#include "trace/hub.h"

#include "base/logging.h"
#include "trace/boot.h"
#include "trace/metrics.h"
#include "trace/profile.h"
#include "trace/slo.h"
#include "trace/trace.h"
#include "trace/wallprof.h"

namespace mirage::trace {

namespace {

constexpr const char *kLatency = "fleet.request_latency_ns";
constexpr const char *kErrors = "fleet.errors_total";

} // namespace

u64
TelemetryHub::errors(const std::string &domain) const
{
    const Counter *c = metrics_->findCounter(kErrors, domain);
    return c ? c->value() : 0;
}

void
TelemetryHub::onFlowDone(const FlowTracker::Flow &f)
{
    const std::string &name =
        f.domain.empty() ? std::string("(untagged)") : f.domain;
    // Latency first: a reader that takes errors before the histogram
    // never sees more errors than requests (the histogram's count).
    metrics_->histogram(kLatency, "domain", name)
        .record(u64(f.end_ns - f.start_ns));
    Counter &errors = metrics_->counter(kErrors, "domain", name);
    if (f.failed)
        errors.inc();
}

HdrHistogram
TelemetryHub::fleetLatency() const
{
    HdrHistogram merged;
    for (const auto &[name, h] : metrics_->histogramFamily(kLatency))
        merged.merge(*h);
    return merged;
}

u64
TelemetryHub::fleetErrors() const
{
    u64 n = 0;
    for (const auto &[name, h] : metrics_->histogramFamily(kLatency))
        n += errors(name);
    return n;
}

std::string
TelemetryHub::fleetJson() const
{
    auto latencies = metrics_->histogramFamily(kLatency);
    u64 requests = 0, error_sum = 0;
    HdrHistogram fleet_latency;
    std::string out = "{\n\"domains\":[";
    bool first = true;
    u64 run_sum = 0, steal_sum = 0, blocked_sum = 0;
    u64 run_max = 0, steal_max = 0;
    for (const auto &[name, h] : latencies) {
        // Errors before the latency snapshot (onFlowDone writes them in
        // the other order), and one snapshot for the request count and
        // quantiles, so the row stays consistent while shards record.
        u64 errs = errors(name);
        HdrHistogram latency = *h;
        requests += latency.count();
        error_sum += errs;
        fleet_latency.merge(latency);
        out += strprintf(
            "%s\n{\"name\":\"%s\",\"requests\":%llu,\"errors\":%llu,"
            "\"latency\":%s",
            first ? "" : ",", jsonEscape(name).c_str(),
            (unsigned long long)latency.count(), (unsigned long long)errs,
            latency.summaryJson().c_str());
        first = false;
        const DomainStats *ds =
            profiler_ ? profiler_->findDomain(name) : nullptr;
        if (ds) {
            run_sum += ds->run_ns;
            steal_sum += ds->steal_ns;
            blocked_sum += ds->blocked_ns;
            if (ds->run_ns > run_max)
                run_max = ds->run_ns;
            if (ds->steal_ns > steal_max)
                steal_max = ds->steal_ns;
            out += strprintf(
                ",\"cpu\":{\"run_ns\":%llu,\"steal_ns\":%llu,"
                "\"blocked_ns\":%llu},"
                "\"gc\":{\"minor\":%llu,\"major\":%llu}",
                (unsigned long long)ds->run_ns,
                (unsigned long long)ds->steal_ns,
                (unsigned long long)ds->blocked_ns,
                (unsigned long long)ds->gc_minor,
                (unsigned long long)ds->gc_major);
        }
        out += "}";
    }
    out += "],\n\"fleet\":{";
    out += strprintf(
        "\"domains\":%zu,\"requests\":%llu,\"errors\":%llu,"
        "\"latency\":%s,"
        "\"cpu\":{\"run_ns_sum\":%llu,\"run_ns_max\":%llu,"
        "\"steal_ns_sum\":%llu,\"steal_ns_max\":%llu,"
        "\"blocked_ns_sum\":%llu}",
        latencies.size(), (unsigned long long)requests,
        (unsigned long long)error_sum, fleet_latency.summaryJson().c_str(),
        (unsigned long long)run_sum, (unsigned long long)run_max,
        (unsigned long long)steal_sum, (unsigned long long)steal_max,
        (unsigned long long)blocked_sum);
    if (profiler_) {
        out += strprintf(",\"alerts\":%llu,\"alert_log\":[",
                         (unsigned long long)profiler_->alerts());
        bool fa = true;
        for (const std::string &a : profiler_->alertLog()) {
            out += strprintf("%s\"%s\"", fa ? "" : ",",
                             jsonEscape(a).c_str());
            fa = false;
        }
        out += "]";
    }
    out += "}";
    if (boots_) {
        out += strprintf(
            ",\n\"boot\":{\"started\":%llu,\"completed\":%llu,"
            "\"total\":%s,\"first_request\":%s,\"phases\":{",
            (unsigned long long)boots_->started(),
            (unsigned long long)boots_->completedBoots(),
            boots_->totalHistogram().summaryJson().c_str(),
            boots_->firstRequestHistogram().summaryJson().c_str());
        bool fp = true;
        for (const auto &[phase, h] : boots_->phaseHistograms()) {
            out += strprintf("%s\"%s\":%s", fp ? "" : ",",
                             jsonEscape(phase).c_str(),
                             h->summaryJson().c_str());
            fp = false;
        }
        out += "},\"recent\":" + boots_->json() + "}";
    }
    if (slo_)
        out += ",\n\"slo\":" + slo_->json();
    if (wallSettled())
        out += ",\n\"shards\":" + wall_->statsJson();
    out += "\n}\n";
    return out;
}

std::string
TelemetryHub::metricsText() const
{
    std::string out = metrics_->toPrometheus();
    if (wallSettled())
        out += wall_->toPrometheus();
    return out;
}

bool
TelemetryHub::wallSettled() const
{
    // Only render wall sections once the profiler has seen a sharded
    // run; a 1-shard cloud bypasses the ShardSet entirely and an
    // all-zero section would just read as a broken profiler. Never
    // render them mid-run: /fleet and /metrics are also served to
    // in-sim HTTP clients, and wall-clock bytes in a body would change
    // packetisation and so virtual timing — breaking bit-identical
    // replay.
    return wall_ && wall_->windows() > 0 && !wall_->inRun();
}

} // namespace mirage::trace
