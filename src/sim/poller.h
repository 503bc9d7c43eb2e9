/**
 * @file
 * Adaptive ring polling (the NAPI shape): while a ring is busy its
 * consumer parks the producer's event and drains on a short timer
 * instead of per-publish doorbells; after a quiet period it re-arms the
 * event and goes idle. With the poll cadence at the upcall latency,
 * polled delivery is no slower than a notify — it just stops paying the
 * evtchn_send hypercall per publish.
 *
 * The owner supplies three callbacks:
 *  - idle: true when a round would find nothing — no unconsumed slot
 *    on any ring the poller drains and nothing queued for them;
 *  - drain: park the producer event(s) and consume everything
 *    available; return true when anything was consumed;
 *  - rearm: re-arm the producer event(s) (finalCheck…); return true
 *    when work raced in, which keeps the poller alive one more round.
 *
 * Invariant the owner must keep: events are only parked from code paths
 * that also kick() the poller (or, like blkback, have another
 * guaranteed future drain). Parked events with no scheduled poll would
 * deadlock the ring.
 *
 * Idle rounds are computed, not simulated. The model is a timer that
 * fires every pollInterval while polling, drains, and re-arms once
 * pollIdle passes without activity. A round that finds the owner idle
 * does nothing but schedule the next round as its only child, so the
 * chain of idle rounds is a pure function of the round that started it
 * (sim::KeyChain). After each round the poller *parks*: it schedules no
 * next round, only the re-arm tick (the first round more than pollIdle
 * after the last activity). Whatever ends the idleness wakes it:
 *  - a publish onto a ring it consumes (the producer ring's
 *    PollerLink), or a push onto the owner's wait queue, calls wake();
 *  - wake() schedules the first round of the chain that orders after
 *    the event dispatching now, under the exact (when, strand, idx) key
 *    the ticking timer would have given it (Engine::atChain);
 *  - kick() moves the re-arm tick later in O(1) (Engine::postpone).
 * So every round that does work — and the re-arm — runs at the same
 * instant, in the same order and under the same key as the ticking
 * timer's; the idle rounds between them are simply not run. The wake
 * costs no virtual time and is not a modelled evtchn_send: the parked
 * producer event still suppresses the doorbell. Producer and consumer
 * must share an engine (the wake schedules on it directly); connect
 * code checks it.
 *
 * Idle-round invariant: whenever the poller is active, the owner's
 * events are already parked at its current consumer indices — every
 * drain ends by parking, only a drain moves a consumer index, and the
 * rearm path drains again before it parks. So a round that finds the
 * owner idle would have nothing to do, and skipping it is exact.
 */

#ifndef MIRAGE_SIM_POLLER_H
#define MIRAGE_SIM_POLLER_H

#include <algorithm>
#include <functional>
#include <vector>

#include "sim/engine.h"
#include "sim/tuning.h"

namespace mirage::sim {

class Poller;

/**
 * A producer ring's wake link to the Poller that consumes it: a
 * publish calls wake() on the linked poller. Either side may go first:
 * a link unregisters itself when destroyed or re-bound, and a poller
 * clears every link naming it when destroyed.
 */
class PollerLink
{
  public:
    PollerLink() = default;
    ~PollerLink() { bind(nullptr); }
    PollerLink(const PollerLink &) = delete;
    PollerLink &operator=(const PollerLink &) = delete;

    /** Link to @p poller; null unlinks. */
    void bind(Poller *poller);

    /** Tell the linked poller (if any) that work was published. */
    void wake() const;

  private:
    friend class Poller;
    Poller *poller_ = nullptr;
};

class Poller
{
  public:
    Poller(Engine &engine, std::function<bool()> idle,
           std::function<bool()> drain, std::function<bool()> rearm)
        : engine_(engine), idle_(std::move(idle)), drain_(std::move(drain)),
          rearm_(std::move(rearm))
    {
    }
    ~Poller()
    {
        cancel();
        for (PollerLink *link : links_)
            link->poller_ = nullptr;
    }
    Poller(const Poller &) = delete;
    Poller &operator=(const Poller &) = delete;

    Engine &engine() const { return engine_; }

    /** Activity observed (an event arrived / work drained): start or
     *  extend polling mode. */
    void
    kick()
    {
        last_activity_ = engine_.now();
        if (in_round_)
            return; // the round parks with this activity
        if (!active_) {
            active_ = true;
            rebase();
        }
        placeDeadline();
        if (!idle_())
            wake();
    }

    /**
     * Work was published for this poller (a ring publish or a wait-
     * queue push): if parked, schedule the round that will find it.
     */
    void
    wake()
    {
        if (!active_ || wake_ || in_round_)
            return;
        TimePoint now = engine_.now();
        TimePoint at = chain_.base();
        if (at <= now) {
            // The round at this instant has run if its key orders
            // before the dispatching event.
            Duration step = chain_.step();
            at = at + step * ((now - at).ns() / step.ns());
            if (at < now || engine_.ranBefore(at, chain_.keyAt(at)))
                at = at + step;
        }
        if (at >= deadline_at_)
            return; // the re-arm tick drains before it re-arms
        wake_ = engine_.atChain(at, chain_, [this] {
            wake_ = 0;
            fire();
        });
    }

    /** Drop any scheduled poll (teardown; idempotent). The owner must
     *  re-arm its ring events itself if they are still parked. */
    void
    cancel()
    {
        if (wake_)
            engine_.cancel(wake_);
        if (deadline_)
            engine_.cancel(deadline_);
        wake_ = deadline_ = 0;
        active_ = false;
    }

  private:
    friend class PollerLink;

    /** Start a new chain of rounds: the next one is pollInterval out,
     *  keyed as the ticking timer's next after() would be. */
    void
    rebase()
    {
        Duration step = tuning().pollInterval;
        chain_.reset(engine_.now() + step, step, engine_.scheduleKey());
    }

    /** Put the re-arm tick on the first round more than pollIdle after
     *  the last activity. It only ever moves later: the last activity
     *  only moves later, and a rebase keeps the grid. */
    void
    placeDeadline()
    {
        Duration step = chain_.step();
        i64 past = (last_activity_ + tuning().pollIdle - chain_.base()).ns();
        TimePoint at = chain_.base();
        if (past >= 0)
            at = at + step * (past / step.ns() + 1);
        if (deadline_) {
            if (at != deadline_at_)
                engine_.postpone(deadline_, at);
        } else {
            deadline_ = engine_.atChain(at, chain_, [this] {
                deadline_ = 0;
                fire();
            });
        }
        deadline_at_ = at;
    }

    void
    fire()
    {
        TimePoint now = engine_.now();
        in_round_ = true;
        if (!idle_() && drain_())
            last_activity_ = now;
        bool stay = now - last_activity_ <= tuning().pollIdle;
        // Quiet too long: re-arm the producer's event before going
        // idle. A publish that raced the re-arm keeps us awake.
        if (!stay && rearm_()) {
            last_activity_ = now;
            if (!idle_())
                drain_();
            stay = true;
        }
        in_round_ = false;
        if (!stay) {
            cancel();
            return;
        }
        rebase();
        placeDeadline();
        if (!idle_())
            wake();
    }

    Engine &engine_;
    std::function<bool()> idle_;
    std::function<bool()> drain_;
    std::function<bool()> rearm_;
    KeyChain chain_; //!< keys of the rounds since the last one run
    TimePoint last_activity_;
    TimePoint deadline_at_;
    EventId deadline_ = 0; //!< the re-arm tick, pending while active
    EventId wake_ = 0;     //!< a round woken by work, before the re-arm
    bool active_ = false;
    bool in_round_ = false;
    std::vector<PollerLink *> links_;
};

inline void
PollerLink::bind(Poller *poller)
{
    if (poller_) {
        auto &links = poller_->links_;
        links.erase(std::find(links.begin(), links.end(), this));
    }
    poller_ = poller;
    if (poller_)
        poller_->links_.push_back(this);
}

inline void
PollerLink::wake() const
{
    if (poller_)
        poller_->wake();
}

} // namespace mirage::sim

#endif // MIRAGE_SIM_POLLER_H
