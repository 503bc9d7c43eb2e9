/**
 * @file
 * Self-served telemetry: wrap an application handler so the appliance
 * itself answers GET /metrics (Prometheus text exposition) and
 * GET /flows (recent completed request flows, JSON) — observability as
 * a library, in the unikernel spirit: no sidecar process, the
 * appliance links its own monitoring endpoint.
 */

#ifndef MIRAGE_PROTOCOLS_HTTP_TELEMETRY_H
#define MIRAGE_PROTOCOLS_HTTP_TELEMETRY_H

#include "protocols/http/server.h"

namespace mirage::trace {
class MetricsRegistry;
class FlowTracker;
class Profiler;
class TelemetryHub;
} // namespace mirage::trace

namespace mirage::http {

/**
 * Wrap @p app so the appliance serves its own telemetry; every other
 * request is delegated to @p app unchanged. Any source may be null —
 * its endpoint then answers 503.
 *
 *   GET /metrics  Prometheus text exposition (format 0.0.4) of
 *                 @p metrics — with a @p hub, the hub's metricsText()
 *                 (its registry plus the sharded engine's wall series)
 *   GET /flows    @p flows's recent completed flows as JSON
 *   GET /top      @p profiler's xentop-style per-domain snapshot
 *                 (run/steal/blocked time, notify rates, ring
 *                 high-water marks, GC pause quantiles) as JSON
 *   GET /fleet    @p hub's fleet rollup (per-domain request counts and
 *                 latency quantiles, the histogram-merged fleet-wide
 *                 distribution, boot-phase breakdown and SLO burn-rate
 *                 state) as JSON — the dom0 monitor appliance
 */
HttpServer::Handler withTelemetry(trace::MetricsRegistry *metrics,
                                  trace::FlowTracker *flows,
                                  trace::Profiler *profiler,
                                  trace::TelemetryHub *hub,
                                  HttpServer::Handler app);

} // namespace mirage::http

#endif // MIRAGE_PROTOCOLS_HTTP_TELEMETRY_H
