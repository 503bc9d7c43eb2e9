#include "trace/flow.h"

#include "base/logging.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace mirage::trace {

FlowTracker::Flow *
FlowTracker::find(FlowId id)
{
    // Callers hold mu_.
    if (id == 0)
        return nullptr;
    auto it = live_.find(id);
    return it == live_.end() ? nullptr : &it->second;
}

FlowId
FlowTracker::begin(const char *kind, TimePoint ts, u32 tid,
                   std::string detail, std::string domain)
{
    if (!enabled_)
        return 0;
    // The id source reads the engine's ambient dispatch context; call
    // it before taking the lock so it never nests under mu_.
    FlowId id = id_source_ ? id_source_() : 0;
    std::string detail_copy;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (live_.size() >= live_capacity_) {
            // A stuck flow (lost ACK, dead peer) must not pin memory
            // forever; evict the map's first victim and count it.
            live_.erase(live_.begin());
            live_count_.fetch_sub(1, std::memory_order_relaxed);
            abandoned_.fetch_add(1, std::memory_order_relaxed);
        }
        if (id == 0)
            id = next_id_++;
        Flow &f = live_[id];
        f.id = id;
        f.kind = kind;
        f.detail = std::move(detail);
        f.domain = std::move(domain);
        f.start_ns = ts.ns();
        detail_copy = f.detail;
        live_count_.fetch_add(1, std::memory_order_relaxed);
        started_.fetch_add(1, std::memory_order_relaxed);
    }
    if (tracer_)
        tracer_->asyncBegin(Cat::Flow, kind, id, ts, tid,
                            detail_copy.empty()
                                ? std::string()
                                : strprintf("\"detail\":\"%s\"",
                                            jsonEscape(detail_copy).c_str()));
    current_tls_ = id;
    // Hooks run outside the lock: the stall watchdog re-arms off this
    // and reads completed()/liveCount() in the process.
    if (activity_hook_)
        activity_hook_();
    return id;
}

void
FlowTracker::stageBegin(FlowId id, const char *stage, TimePoint ts,
                        u32 tid)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        Flow *f = find(id);
        if (!f)
            return;
        Stage *s = nullptr;
        for (Stage &cand : f->stages) {
            if (cand.name == stage) {
                s = &cand;
                break;
            }
        }
        if (!s) {
            f->stages.push_back(Stage{stage, 0, 0, 0, 0});
            s = &f->stages.back();
        }
        s->count++;
        if (s->open++ == 0)
            s->open_start = ts.ns();
        f->open_total++;
    }
    if (tracer_)
        tracer_->asyncBegin(Cat::Flow, stage, id, ts, tid);
}

void
FlowTracker::stageEnd(FlowId id, const char *stage, TimePoint ts, u32 tid)
{
    bool closed = false;
    Flow done;
    {
        std::lock_guard<std::mutex> lk(mu_);
        Flow *f = find(id);
        if (!f)
            return;
        Stage *s = nullptr;
        for (Stage &cand : f->stages) {
            if (cand.name == stage) {
                s = &cand;
                break;
            }
        }
        if (!s || s->open == 0)
            return; // unmatched end: stage never opened (stamp lost)
        if (--s->open == 0)
            s->total_ns += u64(ts.ns() - s->open_start);
        f->open_total--;
        if (f->end_requested && f->open_total == 0) {
            f->end_ns = ts.ns();
            done = std::move(*f);
            live_.erase(id);
            live_count_.fetch_sub(1, std::memory_order_relaxed);
            closed = true;
        }
    }
    if (tracer_)
        tracer_->asyncEnd(Cat::Flow, stage, id, ts, tid);
    if (closed)
        finalize(done, tid);
}

void
FlowTracker::markFailed(FlowId id)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (Flow *f = find(id))
        f->failed = true;
}

void
FlowTracker::end(FlowId id, TimePoint ts, u32 tid)
{
    bool closed = false;
    Flow done;
    {
        std::lock_guard<std::mutex> lk(mu_);
        Flow *f = find(id);
        if (!f || f->end_requested)
            return;
        f->end_requested = true;
        f->end_ns = ts.ns();
        if (f->open_total == 0) {
            done = std::move(*f);
            live_.erase(id);
            live_count_.fetch_sub(1, std::memory_order_relaxed);
            closed = true;
        }
    }
    if (closed)
        finalize(done, tid);
}

void
FlowTracker::finalize(Flow &f, u32 tid)
{
    // Runs WITHOUT mu_ held; @p f has already been removed from live_.
    // Tracer/metrics are internally thread-safe, and the finalize hook
    // (SLO tracker, telemetry hub) may take its own locks.
    f.done = true;
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (tracer_)
        tracer_->asyncEnd(Cat::Flow, f.kind, f.id, TimePoint(f.end_ns),
                          tid);
    if (metrics_) {
        std::string prefix = strprintf("flow.%s.", f.kind);
        metrics_->counter(prefix + "completed").inc();
        metrics_->histogram(prefix + "total_ns")
            .record(u64(f.end_ns - f.start_ns));
        for (const Stage &s : f.stages)
            metrics_->histogram(prefix + "stage." + s.name + "_ns")
                .record(s.total_ns);
    }
    if (finalize_hook_)
        finalize_hook_(f);
    if (current_tls_ == f.id)
        current_tls_ = 0;
    std::lock_guard<std::mutex> lk(mu_);
    recent_.push_back(std::move(f));
    while (recent_.size() > recent_capacity_)
        recent_.pop_front();
}

void
FlowTracker::setRecentCapacity(std::size_t n)
{
    std::lock_guard<std::mutex> lk(mu_);
    recent_capacity_ = n;
    while (recent_.size() > recent_capacity_)
        recent_.pop_front();
}

std::string
FlowTracker::recentJson() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::string out = "[";
    bool first = true;
    // Newest first: a dashboard polling /flows wants the fresh tail.
    for (auto it = recent_.rbegin(); it != recent_.rend(); ++it) {
        const Flow &f = *it;
        out += strprintf("%s\n{\"id\":%llu,\"kind\":\"%s\","
                         "\"detail\":\"%s\",\"start_ns\":%lld,"
                         "\"total_ns\":%lld,\"stages\":{",
                         first ? "" : ",",
                         (unsigned long long)f.id,
                         jsonEscape(f.kind).c_str(),
                         jsonEscape(f.detail).c_str(),
                         (long long)f.start_ns,
                         (long long)(f.end_ns - f.start_ns));
        first = false;
        bool first_stage = true;
        for (const Stage &s : f.stages) {
            out += strprintf("%s\"%s\":%llu", first_stage ? "" : ",",
                             jsonEscape(s.name).c_str(),
                             (unsigned long long)s.total_ns);
            first_stage = false;
        }
        out += "}}";
    }
    out += "\n]\n";
    return out;
}

} // namespace mirage::trace
