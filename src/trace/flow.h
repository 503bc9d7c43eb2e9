/**
 * @file
 * FlowTracker — causal, request-scoped tracing on top of TraceRecorder.
 *
 * A *flow* is one inbound unit of work (an HTTP request, a DNS query, a
 * block request) followed from arrival to completion across every layer
 * it crosses: guest TCP, the netfront/netback or blkfront/blkback
 * rings, dom0 backends, and back out. Each flow gets a FlowId; the
 * layers it traverses open and close named *stages* against that id,
 * and the tracker emits Chrome nestable-async events ('b'/'e' sharing
 * the flow's id) so Perfetto draws the whole request as one arrowed
 * flow spanning all its tracks.
 *
 * Propagation is ambient: sim::Engine captures `current()` when work is
 * scheduled and restores it around dispatch, so a flow follows its own
 * callbacks through promises, timers and event-channel notifications
 * without any per-call plumbing. Where work changes address space —
 * ring slots crossing the frontend/backend boundary, TCP payload
 * riding a later segment — the id is stamped into the in-flight
 * structure (slot word, TxChunk) and re-established on the far side.
 *
 * When a flow finishes, the critical-path analyzer folds its stage
 * intervals into per-stage durations (overlapping opens of the same
 * stage are merged by union, so two interleaved disk ops don't double
 * count) and feeds histograms:
 *
 *   flow.<kind>.total_ns            end-to-end latency
 *   flow.<kind>.stage.<stage>_ns    time attributed to each stage
 *   flow.<kind>.completed           counter
 *
 * end() is deferred-final: if stages are still open (e.g. tcp_tx ends
 * only when the final ACK lands), the flow finalises when the last one
 * closes, so total_ns covers true completion.
 */

#ifndef MIRAGE_TRACE_FLOW_H
#define MIRAGE_TRACE_FLOW_H

#include <atomic>
#include <deque>
#include <functional>
// mirage-lint: allow(wall-clock-in-sim)
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/time.h"
#include "base/types.h"

namespace mirage::trace {

class TraceRecorder;
class MetricsRegistry;

/** Identifies one tracked request; 0 means "no flow". */
using FlowId = u64;

class FlowTracker
{
  public:
    struct Stage
    {
        std::string name;
        u64 total_ns = 0;   //!< merged (union) busy time
        u64 count = 0;      //!< times the stage was entered
        u32 open = 0;       //!< currently-open begins (nesting depth)
        i64 open_start = 0; //!< ts of the transition 0 -> 1
    };

    struct Flow
    {
        FlowId id = 0;
        const char *kind = "";   //!< "http", "dns", … (static string)
        std::string detail;      //!< e.g. "GET /timeline/alice"
        std::string domain;      //!< serving domain ("" when untagged)
        i64 start_ns = 0;
        i64 end_ns = 0;
        bool end_requested = false;
        bool failed = false; //!< server-reported error (5xx, SERVFAIL)
        bool done = false;
        u32 open_total = 0; //!< open stage-begins across all stages
        std::vector<Stage> stages;
    };

    void enable(bool on = true) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Sinks for async events and per-stage histograms (optional). */
    void attach(TraceRecorder *tracer, MetricsRegistry *metrics)
    {
        tracer_ = tracer;
        metrics_ = metrics;
    }

    // ---- Flow lifecycle ---------------------------------------------
    /**
     * Open a new flow of @p kind and make it current. Returns 0 when
     * disabled (all other entry points ignore id 0).
     */
    FlowId begin(const char *kind, TimePoint ts, u32 tid = 0,
                 std::string detail = {}, std::string domain = {});

    /**
     * Mark the flow as failed (the server answered with an error). The
     * flow still completes and records latency; the SLO layer counts it
     * against the availability budget.
     */
    void markFailed(FlowId id);

    /**
     * Request completion. Finalises immediately when no stage is open;
     * otherwise the flow finalises when its last open stage closes.
     */
    void end(FlowId id, TimePoint ts, u32 tid = 0);

    // ---- Stage accounting -------------------------------------------
    /** Enter @p stage of flow @p id (static-string stage name). */
    void stageBegin(FlowId id, const char *stage, TimePoint ts,
                    u32 tid = 0);
    /** Leave @p stage; closes the flow if end() already ran. */
    void stageEnd(FlowId id, const char *stage, TimePoint ts,
                  u32 tid = 0);

    // ---- Ambient propagation (used by sim::Engine) ------------------
    // The ambient flow is thread-local: each simulation shard worker
    // carries its own dispatch context, restored by FlowScope.
    FlowId current() const { return current_tls_; }
    void setCurrent(FlowId id) { current_tls_ = id; }

    /**
     * Install a deterministic id source (e.g. the engine's causal
     * token derivation) so flow ids are a pure function of the seed at
     * any shard count. Falls back to a sequential counter when unset
     * or when the source yields 0.
     */
    void setIdSource(std::function<FlowId()> source)
    {
        id_source_ = std::move(source);
    }

    // ---- Introspection (lock-free: watchdog hooks read these) -------
    u64 started() const { return started_.load(std::memory_order_relaxed); }
    u64 completed() const
    {
        return completed_.load(std::memory_order_relaxed);
    }
    /** Flows evicted while still live (ran past liveCapacity). */
    u64 abandoned() const
    {
        return abandoned_.load(std::memory_order_relaxed);
    }
    std::size_t liveCount() const
    {
        return live_count_.load(std::memory_order_relaxed);
    }

    /** Completed-flow history (the last 128), for recentJson(). */
    const std::deque<Flow> &recent() const { return recent_; }

    /**
     * JSON array of the most recent completed flows (newest first):
     * id, kind, detail, start/total ns and per-stage durations. Serves
     * the appliance's `/flows` endpoint.
     */
    std::string recentJson() const;

    /** Runs on every begin(); the stall watchdog re-arms off it. */
    void setActivityHook(std::function<void()> hook)
    {
        activity_hook_ = std::move(hook);
    }

    /**
     * Runs on every flow finalize, before the flow is archived into
     * recent(). The SLO tracker and the telemetry hub consume completed
     * flows through this (latency, serving domain, failure flag).
     */
    void setFinalizeHook(std::function<void(const Flow &)> hook)
    {
        finalize_hook_ = std::move(hook);
    }

  private:
    Flow *find(FlowId id);
    void finalize(Flow &f, u32 tid);

    bool enabled_ = false;
    TraceRecorder *tracer_ = nullptr;
    MetricsRegistry *metrics_ = nullptr;
    std::function<FlowId()> id_source_;
    FlowId next_id_ = 1;
    std::atomic<u64> started_{0};
    std::atomic<u64> completed_{0};
    std::atomic<u64> abandoned_{0};
    std::atomic<std::size_t> live_count_{0};
    // Guards live_/recent_/next_id_; shard workers begin and finalize
    // flows concurrently. The counters above stay lock-free so the
    // stall watchdog's hooks can read them from any shard.
    mutable std::mutex mu_;
    std::unordered_map<FlowId, Flow> live_;
    static constexpr std::size_t liveCapacity = 1024; //!< then evict
    std::deque<Flow> recent_;
    static constexpr std::size_t recentCapacity = 128;
    std::function<void()> activity_hook_;
    std::function<void(const Flow &)> finalize_hook_;

    static inline thread_local FlowId current_tls_ = 0;
};

/**
 * RAII save/restore of the ambient flow around a scope; null-tracker
 * safe so call sites don't branch.
 */
class FlowScope
{
  public:
    FlowScope(FlowTracker *t, FlowId id) : t_(t)
    {
        if (t_) {
            saved_ = t_->current();
            t_->setCurrent(id);
        }
    }
    ~FlowScope()
    {
        if (t_)
            t_->setCurrent(saved_);
    }
    FlowScope(const FlowScope &) = delete;
    FlowScope &operator=(const FlowScope &) = delete;

  private:
    FlowTracker *t_;
    FlowId saved_ = 0;
};

} // namespace mirage::trace

#endif // MIRAGE_TRACE_FLOW_H
