/**
 * @file
 * TelemetryHub — the dom0 fleet aggregation point.
 *
 * Every appliance in the cloud already self-serves its own telemetry
 * (`/metrics`, `/flows`, `/top`); what the operator is missing is the
 * *fleet* view: one place that answers "what is the p99 across all
 * sixty domains, and which one is burning its error budget?". The hub
 * is that place. It subscribes to flow finalisation (via
 * FlowTracker::setFinalizeHook) and records each completed request
 * into two labelled families of the metrics registry:
 * `fleet.request_latency_ns{domain}` (an HdrHistogram whose count is
 * the domain's request count) and `fleet.errors_total{domain}`. It
 * keeps no state of its own; on demand it computes fleet rollups:
 *
 *   - request/error sums across domains,
 *   - a *histogram-merged* fleet latency distribution, whose quantiles
 *     are exactly the quantiles of the pooled population (hdr.h's merge
 *     guarantee) — not an average-of-p99s, which is meaningless,
 *   - CPU sums and maxes from the profiler's DomainStats,
 *   - the boot tracker's per-phase cold-boot breakdown,
 *   - the SLO tracker's burn-rate state and alert log.
 *
 * fleetJson() renders all of that for `GET /fleet`; metricsText()
 * renders `GET /metrics`: the registry's series — the fleet families
 * with `domain` labels among them, so a real scraper could slice the
 * fleet the same way — plus the sharded engine's wall section.
 *
 * The hub holds only borrowed pointers: the composition root
 * (core::Cloud) owns every source and wires the hub after them, in the
 * same attach() pattern the tracer/profiler use.
 */

#ifndef MIRAGE_TRACE_HUB_H
#define MIRAGE_TRACE_HUB_H

#include <string>

#include "base/types.h"
#include "trace/flow.h"
#include "trace/hdr.h"

namespace mirage::trace {

class Profiler;
class BootTracker;
class SloTracker;
class MetricsRegistry;
class WallProfiler;

class TelemetryHub
{
  public:
    /**
     * Borrow the fleet's telemetry sources. The registry is required:
     * it holds the per-domain series. Any other source may be null and
     * its section is simply omitted from the rollup.
     */
    void attach(Profiler *profiler, BootTracker *boots, SloTracker *slo,
                MetricsRegistry &metrics)
    {
        profiler_ = profiler;
        boots_ = boots;
        slo_ = slo;
        metrics_ = &metrics;
    }

    /**
     * Borrow the sharded engine's wall profiler. Separate from
     * attach() because the profiler lives on the other side of the
     * dependency graph (sim::ShardSet, not a trace source) and only
     * exists when the cloud actually shards. Null detaches.
     */
    void attachWall(const WallProfiler *wall) { wall_ = wall; }

    /**
     * Record one completed flow under its serving domain. Wired as
     * (part of) FlowTracker's finalize hook by the composition root.
     * Untagged flows land under "(untagged)".
     */
    void onFlowDone(const FlowTracker::Flow &f);

    /**
     * The fleet-wide latency distribution: exact merge of every
     * domain's histogram, so quantile(q) equals the pooled-population
     * quantile.
     */
    HdrHistogram fleetLatency() const;

    u64 fleetRequests() const { return fleetLatency().count(); }
    u64 fleetErrors() const;

    /**
     * The `GET /fleet` document: `domains` (per-domain requests,
     * errors, latency quantiles, CPU and GC from DomainStats), `fleet`
     * (sums, maxes and the histogram-merged latency), `boot`
     * (per-phase cold-boot quantiles + recent boot records), `slo`
     * (burn-rate state per target), and — when a wall profiler is
     * attached and has observed windows — `shards` (per-worker wall
     * phase accounting, parallel efficiency, imbalance, lag).
     */
    std::string fleetJson() const;

    /**
     * The `GET /metrics` body: the registry's Prometheus text plus,
     * after a sharded run, the wall profiler's `shard_*` series.
     */
    std::string metricsText() const;

  private:
    /** `fleet.errors_total{domain}` (0 before its first flow). */
    u64 errors(const std::string &domain) const;
    bool wallSettled() const;

    Profiler *profiler_ = nullptr;
    BootTracker *boots_ = nullptr;
    SloTracker *slo_ = nullptr;
    MetricsRegistry *metrics_ = nullptr;
    const WallProfiler *wall_ = nullptr;
};

} // namespace mirage::trace

#endif // MIRAGE_TRACE_HUB_H
