/**
 * @file
 * Adaptive ring polling (the NAPI shape): while a ring is busy its
 * consumer parks the producer's event and drains on a short timer
 * instead of per-publish doorbells; after a quiet period it re-arms the
 * event and goes idle. With the poll cadence at the upcall latency,
 * polled delivery is no slower than a notify — it just stops paying the
 * evtchn_send hypercall per publish.
 *
 * The owner supplies two callbacks:
 *  - drain: park the producer event(s) and consume everything
 *    available; return true when anything was consumed.
 *  - rearm: re-arm the producer event(s) (finalCheck…); return true
 *    when work raced in, which keeps the poller alive one more round.
 *
 * Invariant the owner must keep: events are only parked from code paths
 * that also kick() the poller (or, like blkback, have another
 * guaranteed future drain). Parked events with no scheduled poll would
 * deadlock the ring.
 *
 * Idle-round invariant: whenever a poll is scheduled, the owner's
 * events are already parked at its current consumer indices — every
 * drain ends by parking, only a drain moves a consumer index, and the
 * rearm path drains again before it reschedules. So a round that finds
 * every ring empty and nothing queued has nothing to do: drain may
 * return false at once, skipping its profiler scope, ring accounting
 * and the re-park, which would store the value already there. Most
 * rounds of a busy appliance are such rounds; they still run (and
 * count as events), they just cost one load per ring.
 */

#ifndef MIRAGE_SIM_POLLER_H
#define MIRAGE_SIM_POLLER_H

#include <functional>

#include "sim/engine.h"
#include "sim/tuning.h"
#include "trace/flow.h"
#include "trace/profile.h"

namespace mirage::sim {

class Poller
{
  public:
    Poller(Engine &engine, std::function<bool()> drain,
           std::function<bool()> rearm)
        : engine_(engine), drain_(std::move(drain)),
          rearm_(std::move(rearm))
    {
    }
    ~Poller() { cancel(); }
    Poller(const Poller &) = delete;
    Poller &operator=(const Poller &) = delete;

    /** Activity observed (an event arrived / work drained): start or
     *  extend polling mode. */
    void
    kick()
    {
        last_activity_ = engine_.now();
        if (!scheduled_)
            schedule();
    }

    /** True while a poll is scheduled (events may stay parked). */
    bool active() const { return scheduled_; }

    /** Drop any scheduled poll (teardown; idempotent). The owner must
     *  re-arm its ring events itself if they are still parked. */
    void
    cancel()
    {
        if (!scheduled_)
            return;
        engine_.cancel(event_);
        scheduled_ = false;
    }

  private:
    void
    schedule()
    {
        scheduled_ = true;
        // The poll timer serves whatever sits in the ring when it
        // fires, not the request that happened to be ambient when it
        // was armed — schedule under no flow / root scope so drained
        // slots carry their own stamped ids instead of a stale one.
        trace::FlowScope neutral(engine_.flows(), 0);
        trace::ProfRestore pneutral(engine_.profiler(), 0);
        event_ = engine_.after(tuning().pollInterval, [this] { fire(); });
    }

    void
    fire()
    {
        scheduled_ = false;
        if (drain_())
            last_activity_ = engine_.now();
        if (engine_.now() - last_activity_ <= tuning().pollIdle) {
            schedule();
            return;
        }
        // Quiet too long: re-arm the producer's event before going
        // idle. A publish that raced the re-arm keeps us awake.
        if (rearm_()) {
            last_activity_ = engine_.now();
            drain_();
            schedule();
        }
    }

    Engine &engine_;
    std::function<bool()> drain_;
    std::function<bool()> rearm_;
    TimePoint last_activity_;
    EventId event_ = 0;
    bool scheduled_ = false;
};

} // namespace mirage::sim

#endif // MIRAGE_SIM_POLLER_H
