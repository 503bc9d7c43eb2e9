#include "protocols/http/message.h"

#include <algorithm>
#include <cctype>

#include "base/logging.h"

namespace mirage::http {

bool
HeaderLess::operator()(const std::string &a, const std::string &b) const
{
    return std::lexicographical_compare(
        a.begin(), a.end(), b.begin(), b.end(), [](char x, char y) {
            return std::tolower(static_cast<unsigned char>(x)) <
                   std::tolower(static_cast<unsigned char>(y));
        });
}

bool
HttpRequest::keepAlive() const
{
    auto it = headers.find("Connection");
    if (it != headers.end()) {
        std::string v = it->second;
        for (auto &c : v)
            c = char(std::tolower(static_cast<unsigned char>(c)));
        if (v == "close")
            return false;
        if (v == "keep-alive")
            return true;
    }
    return version == "HTTP/1.1";
}

HttpResponse
HttpResponse::text(int status, const std::string &body)
{
    HttpResponse r;
    r.status = status;
    r.reason = status == 200 ? "OK" : "Error";
    r.headers["Content-Type"] = "text/plain";
    r.body = body;
    return r;
}

HttpResponse
HttpResponse::view(std::vector<Cstruct> frags,
                   const std::string &content_type)
{
    HttpResponse r;
    r.headers["Content-Type"] = content_type;
    r.bodyFrags = std::move(frags);
    return r;
}

std::size_t
HttpResponse::bodyLength() const
{
    if (bodyFrags.empty())
        return body.size();
    std::size_t n = 0;
    for (const auto &f : bodyFrags)
        n += f.length();
    return n;
}

HttpResponse
HttpResponse::notFound()
{
    HttpResponse r;
    r.status = 404;
    r.reason = "Not Found";
    r.body = "not found";
    return r;
}

Cstruct
serialiseRequest(const HttpRequest &req)
{
    std::string out = req.method + " " + req.path + " " + req.version +
                      "\r\n";
    for (const auto &[k, v] : req.headers)
        out += k + ": " + v + "\r\n";
    if (!req.body.empty() &&
        req.headers.find("Content-Length") == req.headers.end())
        out += "Content-Length: " + std::to_string(req.body.size()) +
               "\r\n";
    out += "\r\n";
    out += req.body;
    return Cstruct::ofString(out);
}

Cstruct
serialiseResponseHead(const HttpResponse &rsp)
{
    std::string out = "HTTP/1.1 " + std::to_string(rsp.status) + " " +
                      rsp.reason + "\r\n";
    for (const auto &[k, v] : rsp.headers)
        out += k + ": " + v + "\r\n";
    if (rsp.headers.find("Content-Length") == rsp.headers.end())
        out += "Content-Length: " + std::to_string(rsp.bodyLength()) +
               "\r\n";
    out += "\r\n";
    return Cstruct::ofString(out);
}

namespace {

/** Split "A B C" into exactly three tokens. */
bool
splitThree(const std::string &line, std::string &a, std::string &b,
           std::string &c)
{
    auto s1 = line.find(' ');
    if (s1 == std::string::npos)
        return false;
    auto s2 = line.find(' ', s1 + 1);
    if (s2 == std::string::npos)
        return false;
    a = line.substr(0, s1);
    b = line.substr(s1 + 1, s2 - s1 - 1);
    c = line.substr(s2 + 1);
    return !a.empty() && !b.empty() && !c.empty();
}

bool
parseStartLine(HttpRequest &req, const std::string &line)
{
    return splitThree(line, req.method, req.path, req.version);
}

bool
parseStartLine(HttpResponse &rsp, const std::string &line)
{
    std::string version, status, reason;
    if (!splitThree(line, version, status, reason))
        return false;
    try {
        rsp.status = std::stoi(status);
    } catch (...) {
        return false;
    }
    rsp.reason = reason;
    return true;
}

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t");
    std::size_t e = s.find_last_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    return s.substr(b, e - b + 1);
}

} // namespace

template <typename Message>
Result<bool>
MessageParser<Message>::parseHead(std::size_t head_end)
{
    pending_ = Message{};
    std::size_t line_start = 0;
    bool first = true;
    while (line_start < head_end) {
        std::size_t line_end = buf_.find("\r\n", line_start);
        if (line_end == std::string::npos || line_end > head_end)
            line_end = head_end;
        std::string line = buf_.substr(line_start, line_end - line_start);
        if (first) {
            if (!parseStartLine(pending_, line))
                return parseError("bad start line: " + line);
            first = false;
        } else if (!line.empty()) {
            auto colon = line.find(':');
            if (colon == std::string::npos)
                return parseError("bad header line: " + line);
            pending_.headers[trim(line.substr(0, colon))] =
                trim(line.substr(colon + 1));
        }
        line_start = line_end + 2;
    }
    auto it = pending_.headers.find("Content-Length");
    body_expected_ = 0;
    if (it != pending_.headers.end()) {
        try {
            body_expected_ = std::stoul(it->second);
        } catch (...) {
            return parseError("bad Content-Length");
        }
        if (body_expected_ > 16 * 1024 * 1024)
            return parseError("body too large");
    }
    return true;
}

template <typename Message>
typename MessageParser<Message>::State
MessageParser<Message>::parseBuffered()
{
    if (!head_done_) {
        std::size_t head_end = buf_.find("\r\n\r\n");
        if (head_end == std::string::npos) {
            if (buf_.size() > 64 * 1024) {
                state_ = State::Broken;
                error_ = "header section too large";
            }
            return state_;
        }
        auto ok = parseHead(head_end);
        if (!ok.ok()) {
            state_ = State::Broken;
            error_ = ok.error().message;
            return state_;
        }
        buf_.erase(0, head_end + 4);
        head_done_ = true;
    }
    if (buf_.size() >= body_expected_) {
        pending_.body = buf_.substr(0, body_expected_);
        buf_.erase(0, body_expected_);
        head_done_ = false;
        state_ = State::Ready;
    }
    return state_;
}

template <typename Message>
typename MessageParser<Message>::State
MessageParser<Message>::feed(const Cstruct &data)
{
    if (state_ == State::Broken)
        return state_;
    buf_ += data.toString();
    if (state_ == State::Ready)
        return state_; // caller must take() first
    return parseBuffered();
}

template <typename Message>
Message
MessageParser<Message>::take()
{
    if (state_ != State::Ready)
        panic("MessageParser::take without a ready message");
    Message out = std::move(pending_);
    pending_ = Message{};
    state_ = State::NeedMore;
    // Pipelined data may already complete the next message.
    parseBuffered();
    return out;
}

template class MessageParser<HttpRequest>;
template class MessageParser<HttpResponse>;

} // namespace mirage::http
