/**
 * @file
 * The discrete-event simulation engine.
 *
 * Everything comparative in this reproduction — domain scheduling,
 * device service times, syscall costs — runs on deterministic event
 * queues keyed by virtual time. Ties at the same instant are broken by
 * a *causal* key rather than global insertion order: every event
 * carries the identity hash of the event that scheduled it (its
 * "strand") plus its sibling index within that dispatch, and the queue
 * orders by (when, strand, idx). Siblings therefore stay FIFO, and —
 * crucially for the sharded engine — the key depends only on the
 * causal tree rooted at the seed, never on which shard or worker
 * thread scheduled the event. A run is a pure function of its seed,
 * bit-identical at any shard count (see sim/shard.h).
 *
 * The pending keys live in two binary heaps under that one order: a
 * *near* heap for events due within kNearHorizon of the moment they
 * are scheduled (ring polls, vCPU and bridge hops) and a *far* heap for
 * everything later (protocol timers: RTO, delayed ACK, ARP, TIME_WAIT).
 * Dispatch takes whichever head is least, so the dispatch sequence is
 * exactly that of one heap over the union — the split only decides
 * which heap a key sifts through. A busy appliance's 1 us poll rounds
 * sift through a handful of near keys instead of the whole timer
 * backlog with its cancelled RTO tombstones. The order itself cannot
 * change: event ids, slot reuse, the moment a cancelled closure dies
 * and every virtual result are pinned by the determinism tests and the
 * repo benchmark.
 *
 * Two kinds of event bend the bookkeeping, never the order. A
 * *chained* event (atChain) takes its key from a KeyChain when it
 * reaches the head of the queue rather than when it is scheduled; until
 * then it waits under a provisional key that sorts first among its
 * instant's events, and it is re-filed under the real key if a pending
 * event orders before it. A chained event can also be *postponed*
 * (postpone) in O(1): the slot records the new due time and the stale
 * entry re-files when it reaches the head. sim::Poller uses both to
 * compute its idle rounds instead of running them.
 *
 * The engine is also the attachment point for the observability layer:
 * an optional trace::TraceRecorder and trace::MetricsRegistry hang off
 * it, and every subsystem with engine access shares them. Both default
 * to null, so uninstrumented runs pay one pointer test per hook.
 */

#ifndef MIRAGE_SIM_ENGINE_H
#define MIRAGE_SIM_ENGINE_H

#include <cstdint>
#include <functional>
#include <vector>

#include "base/time.h"
#include "base/types.h"

namespace mirage::trace {
class TraceRecorder;
class MetricsRegistry;
class Counter;
class FlowTracker;
class Profiler;
class BootTracker;
} // namespace mirage::trace

namespace mirage::check {
class Checker;
} // namespace mirage::check

namespace mirage::sim {

class ShardSet;

/**
 * Handle identifying a scheduled event, usable for cancellation.
 * Encodes (generation << 32 | slot + 1): the slot indexes a reusable
 * entry in the engine's slot table, the generation invalidates stale
 * handles after the slot is recycled. 0 is never a valid id.
 */
using EventId = u64;

/** splitmix64-style finaliser used to derive causal event keys. */
inline u64
mixKey(u64 a, u64 b)
{
    u64 z = a + 0x9e3779b97f4a7c15ull + b * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * The causal ordering key of one event: the scheduling event's
 * identity hash, the sibling index within that dispatch, and the new
 * event's own identity hash (`mixKey(strand, idx)`). Computed at
 * schedule time — on the *sender's* shard for cross-shard posts — so
 * the merged order is independent of shard count.
 */
struct CrossKey
{
    u64 strand = 0;
    u64 idx = 0;
    u64 hash = 0;
};

/**
 * The keys of a periodic event that reschedules itself one step later
 * as its only child: tick 0, due at @c base, has key @c head; tick j
 * is scheduled by tick j-1 as its first child, so its key is
 * (h_{j-1}, 0) with h_0 = head.hash and h_j = mixKey(h_{j-1}, 0). A
 * sim::Poller computes its idle ticks from this instead of running
 * them; the engine resolves a chained event's key from it lazily
 * (Engine::atChain).
 */
class KeyChain
{
  public:
    /** Restart the chain: tick 0 at @p base with key @p head. */
    void
    reset(TimePoint base, Duration step, const CrossKey &head)
    {
        base_ = base;
        step_ = step;
        head_ = head;
        walked_ = 0;
    }

    TimePoint base() const { return base_; }
    Duration step() const { return step_; }

    /** Key of the tick due at @p t (a grid point at or after base). */
    CrossKey
    keyAt(TimePoint t)
    {
        u64 j = u64((t - base_).ns() / step_.ns());
        if (j == 0)
            return head_;
        // Ticks are asked for in rising order within a chain, so walk
        // on from the last one asked for.
        if (walked_ == 0 || walked_ > j) {
            walked_ = 0;
            walked_hash_ = head_.hash;
        }
        for (; walked_ < j; walked_++) {
            walked_strand_ = walked_hash_;
            walked_hash_ = mixKey(walked_hash_, 0);
        }
        return CrossKey{walked_strand_, 0, walked_hash_};
    }

  private:
    TimePoint base_;
    Duration step_ = Duration::nanos(1);
    CrossKey head_;
    u64 walked_ = 0;        //!< last tick walked to (0: none yet)
    u64 walked_strand_ = 0; //!< its key: (walked_strand_, 0)
    u64 walked_hash_ = 0;   //!< and hash h_{walked_}
};

class Engine
{
  public:
    /** Sentinel "no pending event" time (nextEventTime()). */
    static constexpr TimePoint kNever{INT64_MAX};

    /**
     * Events due at most this far after now() when scheduled go to the
     * near heap, later ones to the far heap. A fixed constant, not a
     * tuning knob: it only places keys, never reorders them. 50 us
     * covers the 1 us poll rounds and the 4-16 us vCPU and bridge hops;
     * every protocol timer is at least 130 us away.
     */
    static constexpr Duration kNearHorizon = Duration::micros(50);

    Engine() = default;

    /** Current virtual time. */
    TimePoint now() const { return now_; }

    /** Schedule @p fn to run at absolute time @p t (>= now). */
    EventId at(TimePoint t, std::function<void()> fn);

    /** Schedule @p fn to run @p d after now. */
    EventId after(Duration d, std::function<void()> fn);

    /**
     * Schedule with an explicit causal key and ambient context, both
     * captured on the scheduling shard. This is the injection half of
     * the cross-shard mailbox (sim::ShardSet): the coordinator calls
     * it while the target shard is quiescent at a window barrier.
     */
    EventId atKeyed(TimePoint t, const CrossKey &key, u64 flow,
                    u32 pscope, std::function<void()> fn);

    /**
     * Schedule tick @p t of @p chain (a grid point). The key is not
     * computed here: the event is queued under a provisional key that
     * sorts first among events due at @p t, and its real key is taken
     * from @p chain when it reaches the head of the queue, where it is
     * re-filed if another pending event at @p t orders first. So it
     * dispatches exactly where an event keyed by the chain would, and
     * a tick that never reaches the head never pays for its key. The
     * event runs under no flow and the root profiler scope; @p chain
     * must outlive it, and may be reset while it is pending (the key
     * is whatever the chain says at resolution).
     */
    EventId atChain(TimePoint t, KeyChain &chain, std::function<void()> fn);

    /**
     * Move pending chained event @p id to the later tick @p t in O(1):
     * the new due time is stored in its slot, and the stale queue
     * entry is re-filed when it reaches the head (dispatch or
     * nextEventTime()). No-op for fired or cancelled ids.
     */
    void postpone(EventId id, TimePoint t);

    /**
     * Consume and return the next causal key in the current dispatch
     * context (what the next at() would have used). Cross-shard posts
     * take their key from the sending engine via this.
     */
    CrossKey nextKey();

    /**
     * Consume and return the key at() would give an event scheduled
     * now: nextKey(), or on a sharded engine outside dispatch the
     * primary shard's root key.
     */
    CrossKey scheduleKey();

    /** Key of the event this engine is dispatching (zero at root). */
    CrossKey
    dispatchingKey() const
    {
        return CrossKey{cur_strand_, cur_idx_, cur_hash_};
    }

    /**
     * True when an event due at @p t under key @p key would already
     * have been dispatched: it orders at or before the event this
     * engine is dispatching, or, outside dispatch, @p t <= now() (every
     * event due by now has run once runUntil() returns).
     */
    bool
    ranBefore(TimePoint t, const CrossKey &key) const
    {
        if (current_ != this || t != now_)
            return t <= now_;
        return !later(HeapKey{t, key.strand, key.idx, 0, 0},
                      HeapKey{now_, cur_strand_, cur_idx_, 0, 0});
    }

    /**
     * Derive a deterministic token from the current dispatch context
     * (consumes one sibling slot). Used as a shard-count-invariant id
     * source, e.g. for FlowTracker flow ids.
     */
    u64 deriveToken() { return mixKey(cur_hash_ | 1, next_child_++); }

    /** Cancel a pending event. Idempotent; no-op after it fired. */
    void cancel(EventId id);

    /** True when no events remain. */
    bool
    empty() const
    {
        return near_.size() + far_.size() == cancelled_count_;
    }

    /**
     * Run the next pending event, advancing the clock to it.
     * @return false when the queue is empty.
     */
    bool step();

    /** Run until the queue drains. */
    void run();

    /**
     * Run events with time <= @p t, then set the clock to @p t.
     * Events scheduled later stay queued.
     */
    void runUntil(TimePoint t);

    /** runUntil(now + d). */
    void runFor(Duration d);

    /**
     * Dispatch every event strictly before @p end without bumping the
     * clock past the last event (the shard worker loop: events at
     * exactly @p end belong to the next window).
     * @return events dispatched.
     */
    u64 runWindow(TimePoint end);

    /**
     * Time of the earliest pending (non-cancelled) event, or kNever.
     * Drops cancelled queue heads as a side effect; call only while
     * the engine is quiescent (window barriers, tests).
     */
    TimePoint nextEventTime();

    /** Number of events executed since construction. */
    u64 eventsRun() const { return events_run_; }

    /**
     * Commutative fold of mixKey(when, hash) over every dispatched
     * event. Two runs dispatching the same causal set of events at the
     * same times produce the same checksum regardless of sharding —
     * the determinism regression tests compare this across shard
     * counts (order within a shard is implied by the keyed queue).
     */
    u64 dispatchChecksum() const { return checksum_; }

    /** Events scheduled and not yet dispatched (cancelled or not). */
    std::size_t pendingEvents() const { return live_; }

    /**
     * Cancelled ids whose queue slot has not been reached yet. Bounded
     * by pendingEvents(): ids are dropped when their slot is popped,
     * so long simulations cannot accumulate cancellation garbage.
     */
    std::size_t cancelledBacklog() const { return cancelled_count_; }

    /**
     * The engine currently dispatching on this thread, or null outside
     * dispatch. Cross-shard posts use it to find their sending context
     * without plumbing an engine reference through every call chain.
     */
    static Engine *current() { return current_; }

    /** The shard set this engine belongs to, or null (unsharded). */
    ShardSet *shards() const { return shards_; }
    void setShards(ShardSet *s) { shards_ = s; }

    // ---- Observability ----------------------------------------------
    /** Attach (or detach with nullptr) a trace recorder. Not owned. */
    void setTracer(trace::TraceRecorder *tracer) { tracer_ = tracer; }
    trace::TraceRecorder *tracer() const { return tracer_; }

    /** Attach (or detach with nullptr) a metrics registry. Not owned. */
    void setMetrics(trace::MetricsRegistry *metrics);
    trace::MetricsRegistry *metrics() const { return metrics_; }

    /** Attach (or detach with nullptr) an invariant checker. Not owned. */
    void setChecker(check::Checker *checker) { checker_ = checker; }
    check::Checker *checker() const { return checker_; }

    /**
     * Attach (or detach with nullptr) a request-flow tracker. Not
     * owned. When attached, the ambient flow id is captured at
     * schedule time and restored around dispatch, so flows follow
     * their own callbacks through timers, promises and event-channel
     * hops without per-call plumbing.
     */
    void setFlows(trace::FlowTracker *flows) { flows_ = flows; }
    trace::FlowTracker *flows() const { return flows_; }

    /**
     * Attach (or detach with nullptr) a CPU profiler. Not owned. Like
     * flows, the ambient profiler scope is captured at schedule time
     * and restored around dispatch, so attribution follows callbacks.
     */
    void setProfiler(trace::Profiler *profiler) { profiler_ = profiler; }
    trace::Profiler *profiler() const { return profiler_; }

    /**
     * Attach (or detach with nullptr) a boot-phase tracker. Not owned.
     * Bring-up code (toolstack, PVBoot, driver connects) reports phase
     * spans and structural op counts against the ambient boot id.
     */
    void setBoots(trace::BootTracker *boots) { boots_ = boots; }
    trace::BootTracker *boots() const { return boots_; }

  private:
    /**
     * Heap entry of one pending event: the causal ordering key and the
     * slot holding everything else. A plain 32-byte value, so a heap
     * sift moves four words and never a std::function.
     */
    struct HeapKey
    {
        TimePoint when;
        u64 strand; //!< identity hash of the scheduling event
        u64 idx;    //!< sibling index within that dispatch
        u32 slot;   //!< index into slots_
        //! (strand, idx) is the provisional (0, 0) of a chained event
        //! whose key is resolved when it reaches the head.
        u32 provisional;
    };
    static_assert(sizeof(HeapKey) <= 32);

    /** Heap comparator: a min-heap on (when, strand, idx). */
    static bool
    later(const HeapKey &a, const HeapKey &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        if (a.strand != b.strand)
            return a.strand > b.strand;
        return a.idx > b.idx;
    }

    /**
     * Scheduling bookkeeping: one slot per live event, recycled through
     * a free list. Scheduling, cancelling and dispatching are O(1)
     * array operations; the slot also carries the event's payload, so
     * the heap itself holds only keys.
     */
    enum class SlotState : u8
    {
        Free,
        Pending,
        Cancelled
    };

    struct Slot
    {
        u32 gen = 0;
        SlotState state = SlotState::Free;
        u32 pscope = 0; //!< ambient profiler scope captured at schedule
        u64 hash = 0;   //!< this event's identity (mixKey(strand, idx))
        u64 flow = 0;   //!< ambient FlowId captured at schedule time
        KeyChain *chain = nullptr; //!< key source of a chained event
        TimePoint due; //!< chained: due time, later than its entry's
                       //!< when once postponed
        std::function<void()> fn;
    };

    /**
     * The one dispatch path: drop cancelled slots, then run the next
     * event — unless @p bounded and it lies beyond @p limit.
     * @return true when an event ran.
     */
    bool dispatchOne(bool bounded, TimePoint limit);

    /** Fill a slot and queue its key (every at*() lands here). */
    EventId schedule(TimePoint t, const CrossKey &key, u64 flow,
                     u32 pscope, KeyChain *chain,
                     std::function<void()> fn);

    /** Borrow a root-context key from the shard set's primary. */
    CrossKey rootKeyFromSet();

    /** The slot an id names, or null for stale/invalid ids. */
    Slot *slotFor(EventId id);
    void releaseSlot(u32 idx);
    /** The heap holding the least pending key, or null when both are
     *  empty. */
    std::vector<HeapKey> *headHeap();
    /** Pop @p heap's least key. */
    static void popHeap(std::vector<HeapKey> &heap);
    /** Pop @p heap's cancelled head and release its slot and closure. */
    void dropCancelledTop(std::vector<HeapKey> &heap);
    /** Queue @p key in the heap its distance from now() selects. */
    void file(const HeapKey &key);
    /**
     * The head of @p heap is a chained event's entry: pop it into
     * @p key and file it again under its postponed due time, or under
     * its resolved key when a pending event at its instant orders
     * first.
     * @return true when @p key holds the resolved entry, ready to
     * dispatch; false when it was re-filed.
     */
    bool settleChained(std::vector<HeapKey> &heap, HeapKey &key);

    TimePoint now_;
    u64 cur_hash_ = 0;   //!< identity hash of the dispatching event (0 = root)
    u64 cur_strand_ = 0; //!< the dispatching event's key (ranBefore)
    u64 cur_idx_ = 0;
    u64 next_child_ = 0; //!< next sibling index in the current context
    u64 events_run_ = 0;
    u64 checksum_ = 0;
    std::vector<HeapKey> near_; //!< min-heap under later(), due soon
    std::vector<HeapKey> far_;  //!< min-heap under later(), the rest
    std::vector<Slot> slots_;
    std::vector<u32> free_slots_;
    std::size_t live_ = 0;            //!< scheduled, not dispatched
    std::size_t cancelled_count_ = 0; //!< subset of live_
    ShardSet *shards_ = nullptr;
    trace::TraceRecorder *tracer_ = nullptr;
    trace::MetricsRegistry *metrics_ = nullptr;
    check::Checker *checker_ = nullptr;
    trace::FlowTracker *flows_ = nullptr;
    trace::Profiler *profiler_ = nullptr;
    trace::BootTracker *boots_ = nullptr;
    trace::Counter *c_dispatched_ = nullptr;
    trace::Counter *c_cancelled_ = nullptr;

    static inline thread_local Engine *current_ = nullptr;
};

} // namespace mirage::sim

#endif // MIRAGE_SIM_ENGINE_H
