#include "trace/trace.h"

#include <algorithm>
#include <cstdio>

#include "base/logging.h"

namespace mirage::trace {

const char *
catName(Cat cat)
{
    switch (cat) {
      case Cat::Engine:
        return "engine";
      case Cat::Cpu:
        return "cpu";
      case Cat::Hypervisor:
        return "hypervisor";
      case Cat::Runtime:
        return "runtime";
      case Cat::Net:
        return "net";
      case Cat::Storage:
        return "storage";
      case Cat::App:
        return "app";
      case Cat::Flow:
        return "flow";
      case Cat::Boot:
        return "boot";
      case Cat::Wall:
        return "wall";
    }
    return "unknown";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (u8(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

Status
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return Status(Error(Error::Kind::Io, "cannot open " + path));
    std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    if (n != text.size())
        return Status(Error(Error::Kind::Io, "short write to " + path));
    return Status::success();
}

u32
TraceRecorder::track(const std::string &name)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = track_index_.find(name);
    if (it != track_index_.end())
        return it->second;
    u32 id = u32(tracks_.size());
    tracks_.push_back(name);
    track_index_.emplace(name, id);
    return id;
}

void
TraceRecorder::push(Event &&e)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (flight_cap_ == 0) {
        events_.push_back(std::move(e));
        return;
    }
    if (events_.size() < flight_cap_) {
        events_.push_back(std::move(e));
        head_ = events_.size() % flight_cap_;
        return;
    }
    events_[head_] = std::move(e);
    head_ = (head_ + 1) % flight_cap_;
    dropped_++;
}

void
TraceRecorder::span(Cat cat, const char *name, TimePoint start,
                    Duration dur, u32 tid, std::string args)
{
    if (!enabled_)
        return;
    push(Event{name, cat, 'X', tid, start.ns(), dur.ns(), 0,
               std::move(args)});
}

void
TraceRecorder::instant(Cat cat, const char *name, TimePoint ts, u32 tid,
                       std::string args)
{
    if (!enabled_)
        return;
    push(Event{name, cat, 'i', tid, ts.ns(), 0, 0, std::move(args)});
}

void
TraceRecorder::asyncBegin(Cat cat, const char *name, u64 id, TimePoint ts,
                          u32 tid, std::string args)
{
    if (!enabled_)
        return;
    push(Event{name, cat, 'b', tid, ts.ns(), 0, id, std::move(args)});
}

void
TraceRecorder::asyncEnd(Cat cat, const char *name, u64 id, TimePoint ts,
                        u32 tid, std::string args)
{
    if (!enabled_)
        return;
    push(Event{name, cat, 'e', tid, ts.ns(), 0, id, std::move(args)});
}

void
TraceRecorder::asyncInstant(Cat cat, const char *name, u64 id,
                            TimePoint ts, u32 tid, std::string args)
{
    if (!enabled_)
        return;
    push(Event{name, cat, 'n', tid, ts.ns(), 0, id, std::move(args)});
}

void
TraceRecorder::counter(Cat cat, const char *name, TimePoint ts,
                       std::string args, u32 tid)
{
    if (!enabled_)
        return;
    push(Event{name, cat, 'C', tid, ts.ns(), 0, 0, std::move(args)});
}

void
TraceRecorder::setFlightCapacity(std::size_t n)
{
    std::lock_guard<std::mutex> lk(mu_);
    flight_cap_ = n;
    if (n == 0) {
        head_ = 0;
        return;
    }
    if (events_.size() > n) {
        // Keep the most recent n, oldest-first, and count the rest as
        // lost so accounting matches a ring that was bounded all along.
        dropped_ += events_.size() - n;
        events_.erase(events_.begin(),
                      events_.end() - std::ptrdiff_t(n));
    }
    head_ = events_.size() % n;
}

std::vector<TraceRecorder::Event>
TraceRecorder::events() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return eventsLocked();
}

std::vector<TraceRecorder::Event>
TraceRecorder::eventsLocked() const
{
    std::vector<Event> out;
    out.reserve(events_.size());
    if (flight_cap_ != 0 && events_.size() == flight_cap_) {
        // Full ring: oldest event sits at head_.
        for (std::size_t i = 0; i < events_.size(); i++)
            out.push_back(events_[(head_ + i) % events_.size()]);
    } else {
        out = events_;
    }
    return out;
}

void
TraceRecorder::clear()
{
    std::lock_guard<std::mutex> lk(mu_);
    events_.clear();
    head_ = 0;
    dropped_ = 0;
}

std::string
TraceRecorder::toChromeJson() const
{
    std::vector<Event> store;
    std::vector<std::string> tracks;
    u64 dropped;
    {
        std::lock_guard<std::mutex> lk(mu_);
        store = eventsLocked();
        tracks = tracks_;
        dropped = dropped_;
    }
    return chromeJson(std::move(store), tracks, dropped);
}

std::string
chromeJson(std::vector<TraceRecorder::Event> events,
           const std::vector<std::string> &tracks, u64 dropped)
{
    // Spans are recorded when scheduled, which may predate events that
    // execute earlier (a Cpu books work at its future freeAt); sort by
    // start time so the export reads in timeline order.
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceRecorder::Event &a,
                        const TraceRecorder::Event &b) {
                         return a.ts_ns < b.ts_ns;
                     });
    std::string out = strprintf(
        "{\"displayTimeUnit\":\"ms\",\"droppedEvents\":%llu,"
        "\"traceEvents\":[\n",
        (unsigned long long)dropped);
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
           "\"args\":{\"name\":\"mirage\"}}";
    for (std::size_t i = 0; i < tracks.size(); i++) {
        out += strprintf(",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%zu,"
                         "\"name\":\"thread_name\","
                         "\"args\":{\"name\":\"%s\"}}",
                         i, jsonEscape(tracks[i]).c_str());
    }
    for (const TraceRecorder::Event &e : events) {
        // Chrome expects microsecond timestamps; keep ns resolution
        // with a fractional part.
        out += strprintf(",\n{\"ph\":\"%c\",\"pid\":1,\"tid\":%u,"
                         "\"cat\":\"%s\",\"name\":\"%s\",\"ts\":%.3f",
                         e.ph, e.tid, catName(e.cat),
                         jsonEscape(e.name).c_str(),
                         double(e.ts_ns) / 1000.0);
        if (e.ph == 'X')
            out += strprintf(",\"dur\":%.3f", double(e.dur_ns) / 1000.0);
        if (e.ph == 'i')
            out += ",\"s\":\"t\"";
        if (e.ph == 'b' || e.ph == 'e' || e.ph == 'n')
            out += strprintf(",\"id\":\"0x%llx\"",
                             (unsigned long long)e.id);
        if (!e.args.empty())
            out += strprintf(",\"args\":{%s}", e.args.c_str());
        out += "}";
    }
    out += "\n]}\n";
    return out;
}

} // namespace mirage::trace
