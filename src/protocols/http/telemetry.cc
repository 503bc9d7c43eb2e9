#include "protocols/http/telemetry.h"

#include <utility>

#include "trace/flow.h"
#include "trace/hub.h"
#include "trace/metrics.h"
#include "trace/profile.h"

namespace mirage::http {

HttpServer::Handler
withTelemetry(trace::MetricsRegistry *metrics, trace::FlowTracker *flows,
              trace::Profiler *profiler, trace::TelemetryHub *hub,
              HttpServer::Handler app)
{
    return [metrics, flows, profiler, hub, app = std::move(app)](
               const HttpRequest &req, HttpServer::Responder respond) {
        if (req.method == "GET" && req.path == "/metrics") {
            if (!metrics) {
                respond(HttpResponse::text(503, "no metrics registry\n"));
                return;
            }
            HttpResponse rsp;
            rsp.headers["Content-Type"] =
                "text/plain; version=0.0.4; charset=utf-8";
            rsp.body = hub ? hub->metricsText() : metrics->toPrometheus();
            respond(std::move(rsp));
            return;
        }
        if (req.method == "GET" && req.path == "/fleet") {
            if (!hub) {
                respond(HttpResponse::text(503, "no telemetry hub\n"));
                return;
            }
            HttpResponse rsp;
            rsp.headers["Content-Type"] = "application/json";
            rsp.body = hub->fleetJson();
            respond(std::move(rsp));
            return;
        }
        if (req.method == "GET" && req.path == "/flows") {
            if (!flows) {
                respond(HttpResponse::text(503, "no flow tracker\n"));
                return;
            }
            HttpResponse rsp;
            rsp.headers["Content-Type"] = "application/json";
            rsp.body = flows->recentJson();
            respond(std::move(rsp));
            return;
        }
        if (req.method == "GET" && req.path == "/top") {
            if (!profiler) {
                respond(HttpResponse::text(503, "no profiler\n"));
                return;
            }
            HttpResponse rsp;
            rsp.headers["Content-Type"] = "application/json";
            rsp.body = profiler->topJson();
            respond(std::move(rsp));
            return;
        }
        app(req, std::move(respond));
    };
}

} // namespace mirage::http
