/**
 * @file
 * Profiler — attributed virtual-time CPU profiling plus per-domain
 * resource accounting (the library-OS answer to gprof and xentop).
 *
 * The paper's appliances deliberately ship without ps/top/gprof: the
 * operating system is a library, so introspection has to be a library
 * too. This module closes that gap in two layers:
 *
 * *Attribution.* An ambient ProfScope stack (mirroring trace/flow.h's
 * FlowScope) labels the current subsystem path — `app/http`, `rt/gc`,
 * `hyp/netback/tx` — and every cost charged through sim::Cpu lands at
 * `<ambient path>;<charge label>` in a weighted call tree. sim::Engine
 * snapshots the ambient scope when work is scheduled and restores it
 * around dispatch, so attribution follows callbacks through promises,
 * timers and event-channel hops exactly like flow ids do. The tree
 * exports as Brendan-Gregg folded stacks (`a;b;c <ns>` lines, ready
 * for flamegraph.pl / speedscope) and as a Chrome-trace counter track.
 * Work charged with the generic "cpu.work" label directly under the
 * root is the only *unattributed* bucket; attributedFraction() reports
 * how much of the charged time escaped it.
 *
 * *Accounting.* A DomainStats record per domain aggregates what xentop
 * would show: vCPU run/steal/blocked time, event-channel notify rates,
 * ring occupancy high-water marks and the GC's pause histograms.
 * Subsystems write the fields directly (same pattern as their `stats_`
 * structs); topJson() renders the whole host snapshot for the
 * appliance's self-served `GET /top` endpoint.
 *
 * *Watchdogs.* Threshold alerts — long GC pause, ring at capacity,
 * request-flow stall — funnel through alert(), which counts, logs and
 * fires a hook the composition root points at the flight-recorder
 * auto-dump path, so a stalled appliance leaves a post-mortem behind.
 *
 * The profiler has no simulator dependencies; sim/hypervisor/runtime
 * call *into* it, keeping the trace library at the bottom of the
 * layering (like FlowTracker).
 */

#ifndef MIRAGE_TRACE_PROFILE_H
#define MIRAGE_TRACE_PROFILE_H

#include <atomic>
#include <functional>
#include <map>
#include <memory>
// mirage-lint: allow(wall-clock-in-sim)
#include <mutex>
#include <string>
#include <vector>

#include "base/result.h"
#include "base/time.h"
#include "base/types.h"
#include "trace/metrics.h"

namespace mirage::trace {

class TraceRecorder;
class Profiler;

/**
 * A u64 cell with relaxed-atomic access, drop-in for the plain counters
 * in DomainStats: each field is written by the owning domain's shard
 * while rollups (/top, TelemetryHub) read from another thread. Totals
 * are exact at window barriers.
 */
class RelaxedU64
{
  public:
    RelaxedU64(u64 v = 0) : v_(v) {}
    RelaxedU64(const RelaxedU64 &o) : v_(o.load()) {}
    RelaxedU64 &operator=(const RelaxedU64 &o)
    {
        store(o.load());
        return *this;
    }
    RelaxedU64 &operator=(u64 v)
    {
        store(v);
        return *this;
    }
    RelaxedU64 &operator+=(u64 n)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
        return *this;
    }
    RelaxedU64 &operator++()
    {
        v_.fetch_add(1, std::memory_order_relaxed);
        return *this;
    }
    u64 operator++(int)
    {
        return v_.fetch_add(1, std::memory_order_relaxed);
    }
    operator u64() const { return load(); }
    u64 load() const { return v_.load(std::memory_order_relaxed); }
    void store(u64 v) { v_.store(v, std::memory_order_relaxed); }

  private:
    std::atomic<u64> v_;
};

/**
 * Per-domain resource accounting — one record per domain, owned by the
 * Profiler, written directly by sim::Cpu (run/steal), xen::Domain
 * (blocked time), the event-channel hub (notify rates), the backends
 * (ring occupancy) and rt::GcHeap (collection numbers). Always on once
 * a Profiler is attached to the engine: every field is a handful of
 * adds per event, cheap enough to leave running under benches.
 */
struct DomainStats
{
    struct Ring
    {
        u32 hwm = 0;      //!< occupancy high-water mark (slots)
        u32 capacity = 0; //!< slot count, for full detection
        bool full_alerted = false;
    };

    std::string name;
    Profiler *owner = nullptr; //!< for ring-full alerts

    // ---- vCPU time (summed over the domain's vcpus) -----------------
    RelaxedU64 run_ns;     //!< work charged to the vcpus
    RelaxedU64 steal_ns;   //!< charged work queued behind earlier work
    RelaxedU64 blocked_ns; //!< time spent inside domainpoll
    RelaxedU64 polls;      //!< completed domainpolls

    // ---- Event channels ---------------------------------------------
    RelaxedU64 notifies_sent;
    RelaxedU64 notifies_received;

    // ---- Ring occupancy high-water marks (keyed by ring name) -------
    // Guarded by rings_mu_: the owning shard updates marks while /top
    // renders from another thread.
    mutable std::mutex rings_mu_;
    std::map<std::string, Ring> rings;

    // ---- GC ----------------------------------------------------------
    RelaxedU64 gc_minor;
    RelaxedU64 gc_major;
    RelaxedU64 gc_promoted_bytes;
    RelaxedU64 gc_live_after_major_bytes;
    Histogram gc_minor_pause_ns;
    Histogram gc_major_pause_ns;

    /**
     * Record @p occupancy slots outstanding on @p ring (of @p capacity
     * total): updates the high-water mark and raises a one-shot
     * `ring_full` alert the first time the ring is observed full.
     * Pass @p alert_on_full = false for rings where full is the healthy
     * state (an RX ring full of posted buffers has spare capacity, not
     * backlog).
     */
    void noteRing(const std::string &ring, u32 occupancy, u32 capacity,
                  bool alert_on_full = true);
};

class Profiler
{
  public:
    /**
     * Index of a node in the scope tree; 0 is the root. Snapshotted by
     * sim::Engine per scheduled event and restored around dispatch.
     */
    using ScopeId = u32;

    /** Attribution is recorded only while enabled (accounting in
     *  DomainStats is always on). */
    void enable(bool on = true) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Sinks for the counter track and the alert counter (optional). */
    void attach(TraceRecorder *tracer, MetricsRegistry *metrics);

    // ---- Ambient scope stack ----------------------------------------
    // Thread-local, like FlowTracker's ambient flow: each shard worker
    // carries its own attribution context across dispatch.
    ScopeId current() const { return current_tls_; }
    void setCurrent(ScopeId s) { current_tls_ = s; }

    /**
     * Descend into child @p label of the current scope (interning it on
     * first use) and return the previous scope for restore. No-op
     * (returns current()) while disabled.
     */
    ScopeId push(const char *label);

    // ---- Charging (the sim::Cpu funnel) -----------------------------
    /**
     * Attribute @p ns of charged virtual CPU time to
     * `<current scope>;<leaf>`. @p now_ns paces the Chrome counter
     * track when a tracer is attached.
     */
    void charge(const char *leaf, u64 ns, i64 now_ns);

    u64 totalNs() const
    {
        return total_ns_.load(std::memory_order_relaxed);
    }
    /** Charged ns in the root-level generic bucket ("cpu.work"). */
    u64 unattributedNs() const;
    /** 1 - unattributed/total; 1.0 when nothing was charged. */
    double attributedFraction() const;

    // ---- Folded-stack export ----------------------------------------
    /**
     * Brendan-Gregg folded stacks: one `path;to;scope <self_ns>` line
     * per node with self time, flamegraph.pl-ready.
     */
    std::string folded() const;
    Status writeFolded(const std::string &path) const;

    /** Self ns / charge count at the node named by a folded @p path
     *  (frames joined with ';'); 0 when absent. */
    u64 selfNs(const std::string &path) const;
    u64 samples(const std::string &path) const;

    /** Counter-track sampling cadence (virtual time; default 100 µs). */
    void setSampleInterval(Duration d) { sample_interval_ns_ = d.ns(); }

    // ---- Per-domain accounting --------------------------------------
    /** Find-or-create; the reference stays valid for the profiler's
     *  life. */
    DomainStats &domain(const std::string &name);
    const DomainStats *findDomain(const std::string &name) const;

    /** All per-domain records, keyed by name (TelemetryHub rollups). */
    const std::map<std::string, std::unique_ptr<DomainStats>> &
    domainStats() const
    {
        return domains_;
    }

    /**
     * The xentop snapshot: one JSON object per domain with "cpu"
     * (run/steal/blocked ns), "evtchn" (notify rates), "rings"
     * (occupancy HWMs) and "gc" (counts + pause quantiles) sections,
     * plus host-wide attribution and alert totals. Serves `GET /top`.
     */
    std::string topJson() const;

    /** Human-readable xentop-style table (the --top flag). */
    std::string topText() const;

    // ---- Watchdogs / alerts -----------------------------------------
    /**
     * @p hook runs on every alert (after counting/logging). The
     * composition root points this at the flight-recorder dump.
     */
    void setAlertHook(
        std::function<void(const char *, const std::string &)> hook)
    {
        alert_hook_ = std::move(hook);
    }

    /** Raise alert @p kind (e.g. "stall", "gc_pause", "ring_full"). */
    void alert(const char *kind, const std::string &detail);

    u64 alerts() const { return alerts_.load(std::memory_order_relaxed); }
    /** Most recent alerts, oldest first ("kind: detail"), bounded. */
    std::vector<std::string> alertLog() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return alert_log_;
    }

    /** GC pauses at or above this raise `gc_pause` (0 disables). */
    void setGcPauseAlertThreshold(Duration d)
    {
        gc_pause_alert_ns_ = u64(d.ns());
    }
    u64 gcPauseAlertNs() const { return gc_pause_alert_ns_; }

    /** rt::GcHeap reports every pause here; raises `gc_pause` when the
     *  threshold is set and crossed. */
    void checkGcPause(u64 pause_ns, const char *kind,
                      const std::string &heap);

  private:
    struct Node
    {
        std::string label;
        u32 parent = 0;
        u64 self_ns = 0;
        u64 total_ns = 0;   //!< self + descendants
        u64 samples = 0;    //!< charges landing exactly here
        u64 emitted_ns = 0; //!< counter-track high-water (root children)
        std::vector<u32> children;
    };

    u32 childOf(u32 parent, const char *label);
    u32 findPath(const std::string &path) const;
    std::string pathOf(u32 node) const;
    void emitCounterSample(i64 now_ns);
    u64 unattributedNsLocked() const;
    double attributedFractionLocked() const;

    bool enabled_ = false;
    TraceRecorder *tracer_ = nullptr;
    Counter *c_alerts_ = nullptr;
    // Guards the scope tree, domain map and alert log; charges arrive
    // from every shard worker. totalNs()/alerts() stay lock-free.
    mutable std::mutex mu_;
    std::vector<Node> nodes_{Node{}}; //!< [0] is the root
    std::atomic<u64> total_ns_{0};
    i64 sample_interval_ns_ = 100'000;
    i64 next_sample_ns_ = 0;
    std::map<std::string, std::unique_ptr<DomainStats>> domains_;
    std::function<void(const char *, const std::string &)> alert_hook_;
    std::atomic<u64> alerts_{0};
    std::vector<std::string> alert_log_;
    u64 gc_pause_alert_ns_ = 0;
    static constexpr std::size_t alertLogCapacity = 64;

    static inline thread_local ScopeId current_tls_ = 0;
};

/**
 * RAII descent into a named child scope; null- and disabled-safe so
 * call sites don't branch. Everything charged (or scheduled) inside
 * the scope is attributed under it.
 */
class ProfScope
{
  public:
    ProfScope(Profiler *p, const char *label)
    {
        if (p && p->enabled()) {
            p_ = p;
            saved_ = p->push(label);
        }
    }
    ~ProfScope()
    {
        if (p_)
            p_->setCurrent(saved_);
    }
    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    Profiler *p_ = nullptr;
    Profiler::ScopeId saved_ = 0;
};

/**
 * RAII restore of an absolute scope snapshot (sim::Engine around event
 * dispatch, mirroring FlowScope for flow ids).
 */
class ProfRestore
{
  public:
    ProfRestore(Profiler *p, Profiler::ScopeId scope) : p_(p)
    {
        if (p_) {
            saved_ = p_->current();
            p_->setCurrent(scope);
        }
    }
    ~ProfRestore()
    {
        if (p_)
            p_->setCurrent(saved_);
    }
    ProfRestore(const ProfRestore &) = delete;
    ProfRestore &operator=(const ProfRestore &) = delete;

  private:
    Profiler *p_;
    Profiler::ScopeId saved_ = 0;
};

} // namespace mirage::trace

#endif // MIRAGE_TRACE_PROFILE_H
