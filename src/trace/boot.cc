#include "trace/boot.h"

#include "base/logging.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace mirage::trace {

BootTracker::Record *
BootTracker::findMutable(BootId id)
{
    // Callers hold mu_.
    if (id == 0)
        return nullptr;
    for (Record &r : records_)
        if (r.id == id)
            return &r;
    return nullptr;
}

const BootTracker::Record *
BootTracker::find(BootId id) const
{
    BootTracker *self = const_cast<BootTracker *>(this);
    std::lock_guard<std::mutex> lk(mu_);
    return self->findMutable(id);
}

const BootTracker::Record *
BootTracker::findOpen(const std::string &domain) const
{
    BootTracker *self = const_cast<BootTracker *>(this);
    std::lock_guard<std::mutex> lk(mu_);
    auto it = open_by_domain_.find(domain);
    if (it == open_by_domain_.end())
        return nullptr;
    return self->findMutable(it->second);
}

u32
BootTracker::bootTrack(const std::string &domain)
{
    if (tracer_ && tracer_->enabled())
        return tracer_->track(domain + "/boot");
    return 0;
}

BootId
BootTracker::begin(const std::string &domain, TimePoint ts)
{
    if (!enabled_)
        return 0;
    BootId id;
    {
        std::lock_guard<std::mutex> lk(mu_);
        while (records_.size() >= capacity_) {
            open_by_domain_.erase(records_.front().domain);
            records_.pop_front();
        }
        id = next_id_++;
        Record r;
        r.id = id;
        r.domain = domain;
        r.submit_ns = ts.ns();
        records_.push_back(std::move(r));
        // A respawned domain replaces its earlier open record: the
        // fleet cares about the boot currently in flight.
        open_by_domain_[domain] = id;
        started_.fetch_add(1, std::memory_order_relaxed);
    }
    if (tracer_)
        tracer_->asyncBegin(Cat::Boot, "boot", id, ts, bootTrack(domain),
                            strprintf("\"domain\":\"%s\"",
                                      jsonEscape(domain).c_str()));
    current_tls_ = id;
    return id;
}

void
BootTracker::phase(BootId id, const char *name, TimePoint start,
                   TimePoint end, u64 ops)
{
    std::string domain;
    {
        std::lock_guard<std::mutex> lk(mu_);
        Record *r = findMutable(id);
        if (!r)
            return;
        Phase p;
        p.name = name;
        p.start_ns = start.ns();
        p.dur_ns = end.ns() - start.ns();
        p.ops = ops;
        r->phases.push_back(std::move(p));
        domain = r->domain;
        phase_hist_[name].record(u64(end.ns() - start.ns()));
    }
    if (tracer_) {
        u32 tid = bootTrack(domain);
        tracer_->asyncBegin(Cat::Boot, name, id, start, tid);
        tracer_->asyncEnd(Cat::Boot, name, id, end, tid);
    }
    if (metrics_)
        metrics_->histogram(std::string("boot.") + name + "_ns")
            .record(u64(end.ns() - start.ns()));
}

void
BootTracker::notePhaseOps(BootId id, const char *name, u64 ops)
{
    std::lock_guard<std::mutex> lk(mu_);
    Record *r = findMutable(id);
    if (!r)
        return;
    for (Phase &p : r->phases) {
        if (p.name == name) {
            p.ops += ops;
            return;
        }
    }
    Phase p;
    p.name = name;
    p.ops = ops;
    r->phases.push_back(std::move(p));
}

void
BootTracker::ready(BootId id, TimePoint ts)
{
    std::string domain;
    u64 total;
    {
        std::lock_guard<std::mutex> lk(mu_);
        Record *r = findMutable(id);
        if (!r || r->ready_ns >= 0)
            return;
        r->ready_ns = ts.ns();
        domain = r->domain;
        total = u64(r->ready_ns - r->submit_ns);
        completed_.fetch_add(1, std::memory_order_relaxed);
        total_hist_.record(total);
    }
    if (tracer_)
        tracer_->asyncEnd(Cat::Boot, "boot", id, ts, bootTrack(domain));
    if (metrics_) {
        metrics_->counter("boot.completed").inc();
        metrics_->histogram("boot.total_ns").record(total);
    }
}

void
BootTracker::firstRequest(const std::string &domain, TimePoint ts)
{
    BootId id;
    i64 ready_ns, submit_ns;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = open_by_domain_.find(domain);
        if (it == open_by_domain_.end())
            return;
        Record *r = findMutable(it->second);
        open_by_domain_.erase(it);
        if (!r || r->ready_ns < 0)
            return;
        r->first_request_ns = ts.ns();
        r->done = true;
        Phase p;
        p.name = "first_request";
        p.start_ns = r->ready_ns;
        p.dur_ns = ts.ns() - r->ready_ns;
        r->phases.push_back(p);
        id = r->id;
        ready_ns = r->ready_ns;
        submit_ns = r->submit_ns;
        first_request_hist_.record(u64(ts.ns() - submit_ns));
    }
    if (tracer_) {
        u32 tid = bootTrack(domain);
        tracer_->asyncBegin(Cat::Boot, "first_request", id,
                            TimePoint(ready_ns), tid);
        tracer_->asyncEnd(Cat::Boot, "first_request", id, ts, tid);
    }
    if (metrics_)
        metrics_->histogram("boot.first_request_ns")
            .record(u64(ts.ns() - submit_ns));
}

std::string
BootTracker::json() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::string out = "[";
    bool first = true;
    for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
        const Record &r = *it;
        out += strprintf(
            "%s\n{\"domain\":\"%s\",\"submit_ns\":%lld,"
            "\"total_ns\":%lld,\"first_request_ns\":%lld,\"phases\":{",
            first ? "" : ",", jsonEscape(r.domain).c_str(),
            (long long)r.submit_ns, (long long)r.totalNs(),
            (long long)(r.first_request_ns >= 0
                            ? r.first_request_ns - r.submit_ns
                            : -1));
        first = false;
        bool first_phase = true;
        for (const Phase &p : r.phases) {
            out += strprintf("%s\"%s\":{\"dur_ns\":%lld,\"ops\":%llu}",
                             first_phase ? "" : ",",
                             jsonEscape(p.name).c_str(),
                             (long long)p.dur_ns,
                             (unsigned long long)p.ops);
            first_phase = false;
        }
        out += "}}";
    }
    out += "\n]";
    return out;
}

} // namespace mirage::trace
