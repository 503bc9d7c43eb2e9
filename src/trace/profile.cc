#include "trace/profile.h"

#include <algorithm>

#include "base/logging.h"
#include "trace/trace.h"

namespace mirage::trace {

// ---- DomainStats -----------------------------------------------------------

void
DomainStats::noteRing(const std::string &ring, u32 occupancy,
                      u32 capacity, bool alert_on_full)
{
    bool raise = false;
    {
        std::lock_guard<std::mutex> lk(rings_mu_);
        Ring &r = rings[ring];
        r.capacity = capacity;
        if (occupancy > r.hwm)
            r.hwm = occupancy;
        if (alert_on_full && occupancy >= capacity && !r.full_alerted) {
            r.full_alerted = true;
            raise = true;
        }
    }
    if (raise && owner)
        owner->alert("ring_full",
                     strprintf("%s: ring %s observed full "
                               "(%u/%u slots)",
                               name.c_str(), ring.c_str(), occupancy,
                               capacity));
}

// ---- Profiler: scope tree --------------------------------------------------

void
Profiler::attach(TraceRecorder *tracer, MetricsRegistry *metrics)
{
    tracer_ = tracer;
    c_alerts_ = metrics ? &metrics->counter("profile.alerts") : nullptr;
}

u32
Profiler::childOf(u32 parent, const char *label)
{
    for (u32 c : nodes_[parent].children)
        if (nodes_[c].label == label)
            return c;
    u32 id = u32(nodes_.size());
    Node n;
    n.label = label;
    n.parent = parent;
    nodes_.push_back(std::move(n));
    nodes_[parent].children.push_back(id);
    return id;
}

Profiler::ScopeId
Profiler::push(const char *label)
{
    ScopeId saved = current_tls_;
    if (enabled_) {
        std::lock_guard<std::mutex> lk(mu_);
        current_tls_ = childOf(current_tls_, label);
    }
    return saved;
}

void
Profiler::charge(const char *leaf, u64 ns, i64 now_ns)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lk(mu_);
    u32 node = childOf(current_tls_, leaf);
    nodes_[node].self_ns += ns;
    nodes_[node].samples++;
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    // Subtree totals accumulate up the ancestry; depth is the static
    // scope nesting (single digits), not anything time-dependent.
    for (u32 at = node; at != 0; at = nodes_[at].parent)
        nodes_[at].total_ns += ns;
    nodes_[0].total_ns += ns;
    if (tracer_ && tracer_->enabled() && now_ns >= next_sample_ns_)
        emitCounterSample(now_ns);
}

void
Profiler::emitCounterSample(i64 now_ns)
{
    next_sample_ns_ = now_ns + sample_interval_ns_;
    // One multi-series counter event: ns charged per top-level scope
    // since the previous sample. Perfetto stacks the series into a
    // CPU-attribution area chart alongside the span tracks.
    std::string args;
    for (u32 c : nodes_[0].children) {
        Node &n = nodes_[c];
        u64 delta = n.total_ns - n.emitted_ns;
        n.emitted_ns = n.total_ns;
        if (!args.empty())
            args += ",";
        args += strprintf("\"%s\":%llu", jsonEscape(n.label).c_str(),
                          (unsigned long long)delta);
    }
    tracer_->counter(Cat::Cpu, "prof.cpu_ns", TimePoint(now_ns),
                     std::move(args));
}

u64
Profiler::unattributedNsLocked() const
{
    u64 ns = nodes_[0].self_ns;
    for (u32 c : nodes_[0].children)
        if (nodes_[c].label == "cpu.work")
            ns += nodes_[c].total_ns;
    return ns;
}

u64
Profiler::unattributedNs() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return unattributedNsLocked();
}

double
Profiler::attributedFractionLocked() const
{
    u64 total = total_ns_.load(std::memory_order_relaxed);
    if (total == 0)
        return 1.0;
    return 1.0 - double(unattributedNsLocked()) / double(total);
}

double
Profiler::attributedFraction() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return attributedFractionLocked();
}

std::string
Profiler::pathOf(u32 node) const
{
    if (node == 0)
        return "(root)";
    std::vector<const std::string *> frames;
    for (u32 at = node; at != 0; at = nodes_[at].parent)
        frames.push_back(&nodes_[at].label);
    std::string path;
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
        if (!path.empty())
            path += ";";
        path += **it;
    }
    return path;
}

u32
Profiler::findPath(const std::string &path) const
{
    u32 at = 0;
    std::size_t pos = 0;
    while (pos <= path.size()) {
        std::size_t sep = path.find(';', pos);
        std::string frame = path.substr(
            pos, sep == std::string::npos ? std::string::npos : sep - pos);
        u32 next = 0;
        for (u32 c : nodes_[at].children) {
            if (nodes_[c].label == frame) {
                next = c;
                break;
            }
        }
        if (next == 0)
            return 0; // no such child (root is never a valid child)
        at = next;
        if (sep == std::string::npos)
            break;
        pos = sep + 1;
    }
    return at;
}

u64
Profiler::selfNs(const std::string &path) const
{
    std::lock_guard<std::mutex> lk(mu_);
    u32 n = findPath(path);
    return n ? nodes_[n].self_ns : 0;
}

u64
Profiler::samples(const std::string &path) const
{
    std::lock_guard<std::mutex> lk(mu_);
    u32 n = findPath(path);
    return n ? nodes_[n].samples : 0;
}

std::string
Profiler::folded() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::string out;
    for (u32 i = 1; i < u32(nodes_.size()); i++) {
        if (nodes_[i].self_ns == 0)
            continue;
        out += pathOf(i);
        out += strprintf(" %llu\n",
                         (unsigned long long)nodes_[i].self_ns);
    }
    if (nodes_[0].self_ns > 0)
        out += strprintf("(root) %llu\n",
                         (unsigned long long)nodes_[0].self_ns);
    return out;
}

Status
Profiler::writeFolded(const std::string &path) const
{
    return writeFile(path, folded());
}

// ---- Per-domain accounting -------------------------------------------------

DomainStats &
Profiler::domain(const std::string &name)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = domains_.find(name);
    if (it == domains_.end()) {
        auto stats = std::make_unique<DomainStats>();
        stats->name = name;
        stats->owner = this;
        it = domains_.emplace(name, std::move(stats)).first;
    }
    return *it->second;
}

const DomainStats *
Profiler::findDomain(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = domains_.find(name);
    return it == domains_.end() ? nullptr : it->second.get();
}

std::string
Profiler::topJson() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::string out = "{\"domains\":[";
    bool first_dom = true;
    for (const auto &[name, d] : domains_) {
        if (!first_dom)
            out += ",";
        first_dom = false;
        out += strprintf(
            "{\"name\":\"%s\","
            "\"cpu\":{\"run_ns\":%llu,\"steal_ns\":%llu,"
            "\"blocked_ns\":%llu,\"polls\":%llu},"
            "\"evtchn\":{\"sent\":%llu,\"received\":%llu},",
            jsonEscape(name).c_str(), (unsigned long long)d->run_ns,
            (unsigned long long)d->steal_ns,
            (unsigned long long)d->blocked_ns,
            (unsigned long long)d->polls,
            (unsigned long long)d->notifies_sent,
            (unsigned long long)d->notifies_received);
        out += "\"rings\":{";
        {
            std::lock_guard<std::mutex> rlk(d->rings_mu_);
            bool first_ring = true;
            for (const auto &[rname, ring] : d->rings) {
                if (!first_ring)
                    out += ",";
                first_ring = false;
                out += strprintf("\"%s\":{\"hwm\":%u,\"capacity\":%u}",
                                 jsonEscape(rname).c_str(), ring.hwm,
                                 ring.capacity);
            }
        }
        out += "},";
        out += strprintf(
            "\"gc\":{\"minor\":%llu,\"major\":%llu,"
            "\"promoted_bytes\":%llu,\"live_after_major_bytes\":%llu,"
            "\"minor_pause\":%s,\"major_pause\":%s}}",
            (unsigned long long)d->gc_minor,
            (unsigned long long)d->gc_major,
            (unsigned long long)d->gc_promoted_bytes,
            (unsigned long long)d->gc_live_after_major_bytes,
            d->gc_minor_pause_ns.summaryJson().c_str(),
            d->gc_major_pause_ns.summaryJson().c_str());
    }
    out += strprintf("],\"charged_ns\":%llu,"
                     "\"attributed_fraction\":%.4f,\"alerts\":%llu}",
                     (unsigned long long)totalNs(),
                     attributedFractionLocked(),
                     (unsigned long long)alerts());
    return out;
}

std::string
Profiler::topText() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::string out =
        strprintf("%-12s %10s %10s %10s %6s %7s %7s %6s %6s %10s\n",
                  "NAME", "RUN(ms)", "STEAL(ms)", "BLOCK(ms)", "POLLS",
                  "NTF-TX", "NTF-RX", "GCMIN", "GCMAJ", "GCP99(us)");
    for (const auto &[name, d] : domains_) {
        out += strprintf(
            "%-12s %10.2f %10.2f %10.2f %6llu %7llu %7llu %6llu %6llu "
            "%10.1f\n",
            name.c_str(), double(d->run_ns) / 1e6,
            double(d->steal_ns) / 1e6, double(d->blocked_ns) / 1e6,
            (unsigned long long)d->polls,
            (unsigned long long)d->notifies_sent,
            (unsigned long long)d->notifies_received,
            (unsigned long long)d->gc_minor,
            (unsigned long long)d->gc_major,
            double(d->gc_minor_pause_ns.quantile(0.99)) / 1e3);
        std::lock_guard<std::mutex> rlk(d->rings_mu_);
        for (const auto &[rname, ring] : d->rings)
            out += strprintf("  ring %-20s hwm %2u / %u%s\n",
                             rname.c_str(), ring.hwm, ring.capacity,
                             ring.full_alerted ? "  [was full]" : "");
    }
    out += strprintf("charged %.2f ms, %.1f%% attributed, %llu alert(s)\n",
                     double(totalNs()) / 1e6,
                     attributedFractionLocked() * 100.0,
                     (unsigned long long)alerts());
    return out;
}

// ---- Watchdogs / alerts ----------------------------------------------------

void
Profiler::alert(const char *kind, const std::string &detail)
{
    alerts_.fetch_add(1, std::memory_order_relaxed);
    bump(c_alerts_);
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (alert_log_.size() >= alertLogCapacity)
            alert_log_.erase(alert_log_.begin());
        alert_log_.push_back(std::string(kind) + ": " + detail);
    }
    // The hook (flight-recorder dump) takes the tracer's lock; keep it
    // outside ours.
    if (alert_hook_)
        alert_hook_(kind, detail);
}

void
Profiler::checkGcPause(u64 pause_ns, const char *kind,
                       const std::string &heap)
{
    if (gc_pause_alert_ns_ == 0 || pause_ns < gc_pause_alert_ns_)
        return;
    alert("gc_pause", strprintf("%s: %s pause of %llu us (threshold "
                                "%llu us)",
                                heap.c_str(), kind,
                                (unsigned long long)(pause_ns / 1000),
                                (unsigned long long)(gc_pause_alert_ns_ /
                                                     1000)));
}

} // namespace mirage::trace
