#include "spans.h"

#include <cstdio>

#include "base/logging.h"

namespace perfbench {

namespace {

std::string
escape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out;
}

} // namespace

std::string
SpanLog::toChromeJson(const std::string &metadata) const
{
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    for (const Span &s : spans_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += mirage::strprintf(
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
            "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
            "\"args\":{\"variant\":\"%s\"}}",
            escape(s.name).c_str(), escape(s.layer).c_str(),
            double(s.t0_ns) / 1e3, double(s.t1_ns - s.t0_ns) / 1e3,
            escape(s.variant).c_str());
    }
    out += "\n],\"displayTimeUnit\":\"ms\",\"metadata\":" + metadata + "}\n";
    return out;
}

mirage::Status
SpanLog::write(const std::string &path, const std::string &metadata) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return mirage::Status(mirage::Error(mirage::Error::Kind::Io,
                                            "cannot open " + path));
    std::string json = toChromeJson(metadata);
    std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    if (n != json.size())
        return mirage::Status(mirage::Error(mirage::Error::Kind::Io,
                                            "short write to " + path));
    return mirage::Status::success();
}

} // namespace perfbench
