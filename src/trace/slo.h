/**
 * @file
 * SloTracker — per-appliance service-level objectives with
 * multi-window burn-rate alerting (the SRE-workbook policy, run on the
 * virtual clock).
 *
 * A target names a flow kind ("http", "dns"), a latency threshold and
 * an objective (fraction of requests that must be good). Every flow
 * finalize is scored: good when it completed without a server error
 * within the latency target, bad otherwise. The error *budget* is
 * 1 - objective; the *burn rate* over a window is
 *
 *   burn(w) = bad_fraction(w) / (1 - objective)
 *
 * — burn 1.0 spends the budget exactly at the sustainable rate, burn 14
 * exhausts a 30-day budget in ~2 days. Alerting uses two windows: the
 * *fast* window catches a breach quickly, the *slow* window confirms it
 * is sustained, and the alert fires only when BOTH exceed the
 * threshold — short blips don't page, real breaches page within one
 * fast window. The alert is one-shot: it re-arms when the fast window's
 * burn drops back below threshold, so a sustained breach produces one
 * alert (and one flight-recorder dump), not one per request.
 *
 * Windowed counts are kept as fixed-width time slices (fast_window/8),
 * so evaluation is O(slices), allocation-free on the steady state, and
 * exact enough for threshold tests on the virtual clock.
 */

#ifndef MIRAGE_TRACE_SLO_H
#define MIRAGE_TRACE_SLO_H

#include <atomic>
#include <deque>
#include <functional>
#include <map>
// mirage-lint: allow(wall-clock-in-sim)
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "base/time.h"
#include "base/types.h"

namespace mirage::trace {

struct SloTarget
{
    u64 latencyTargetNs = 0; //!< good iff latency <= this (0: any)
    double objective = 0.999; //!< required good fraction
    Duration fastWindow = Duration::millis(20);
    Duration slowWindow = Duration::millis(200);
    double burnThreshold = 14.0;
};

class SloTracker
{
  public:
    struct State
    {
        SloTarget target;
        u64 good = 0; //!< lifetime totals
        u64 bad = 0;
        u64 alerts = 0;
        bool alerting = false; //!< latched until fast burn recovers
        double fast_burn = 0;  //!< at last evaluation
        double slow_burn = 0;

        // Time-sliced window counts: slice width = fastWindow/8.
        struct Slice
        {
            i64 index;
            u64 good = 0;
            u64 bad = 0;
        };
        std::deque<Slice> slices;
    };

    /** Declare (or replace) the objective for flow kind @p kind. */
    void setTarget(const std::string &kind, SloTarget target);

    /**
     * Score one completed request of @p kind: latency @p latency_ns,
     * @p failed when the server answered with an error. No-op for
     * kinds without a target.
     */
    void record(const std::string &kind, u64 latency_ns, bool failed,
                TimePoint ts);

    /**
     * Re-evaluate burn rates at @p ts without new data (time passing
     * empties the windows — a recovered service must re-arm even if no
     * request arrives). Runs over every target.
     */
    void evaluate(TimePoint ts);

    /**
     * @p hook fires on every burn-rate alert with the kind and a
     * human-readable detail line. The composition root routes it into
     * the watchdog alert path (flight-recorder auto-dump).
     */
    void setAlertHook(
        std::function<void(const std::string &, const std::string &)>
            hook)
    {
        alert_hook_ = std::move(hook);
    }

    u64 alerts() const { return alerts_.load(std::memory_order_relaxed); }
    const State *find(const std::string &kind) const;

    /**
     * JSON array of per-target state: kind, objective, latency target,
     * lifetime good/bad, current fast/slow burn, alerting flag and
     * alert count. Embedded in the `/fleet` response.
     */
    std::string json() const;

  private:
    using PendingAlerts = std::vector<std::pair<std::string, std::string>>;

    void advance(State &s, TimePoint ts);
    void check(const std::string &kind, State &s, TimePoint ts,
               PendingAlerts &fired);
    static i64 sliceWidthNs(const State &s);

    // Guards states_; flows finalize on every shard. The alert hook
    // fires outside the lock (it reaches the profiler's watchdog path).
    mutable std::mutex mu_;
    std::map<std::string, State> states_;
    std::function<void(const std::string &, const std::string &)>
        alert_hook_;
    std::atomic<u64> alerts_{0};
};

} // namespace mirage::trace

#endif // MIRAGE_TRACE_SLO_H
