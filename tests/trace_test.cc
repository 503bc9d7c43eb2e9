/**
 * @file
 * Unit tests for the tracing + metrics layer: counters, log-linear
 * histograms, registry dump (plain and Prometheus), the Chrome
 * trace_event exporter (sync, async and flight-recorder modes), the
 * flow tracker, and the engine round-trip (mirrored counters match the
 * engine's own stats; ambient flows survive event hops).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "check/check.h"
#include "core/cloud.h"
#include "sim/engine.h"
#include "trace/flow.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace mirage::trace {
namespace {

TEST(CounterTest, IncrementsMonotonically)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, BumpIsNullSafe)
{
    bump(nullptr, 7); // must not crash
    Counter c;
    bump(&c, 7);
    EXPECT_EQ(c.value(), 7u);
}

TEST(HistogramTest, EmptyIsAllZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST(HistogramTest, TracksExactAggregates)
{
    Histogram h;
    for (u64 v : {10u, 20u, 30u, 40u})
        h.record(v);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 100u);
    EXPECT_EQ(h.min(), 10u);
    EXPECT_EQ(h.max(), 40u);
    EXPECT_DOUBLE_EQ(h.mean(), 25.0);
    observe(nullptr, 5); // null-safe
}

TEST(HistogramTest, QuantileWithinLogLinearError)
{
    Histogram h;
    for (u64 v = 1; v <= 1000; v++)
        h.record(v);
    // Log-linear buckets over-estimate by at most one sub-bucket:
    // bounded relative error of ~ 1/subBuckets.
    u64 p50 = h.quantile(0.5);
    EXPECT_GE(p50, 500u);
    EXPECT_LE(p50, 640u);
    u64 p99 = h.quantile(0.99);
    EXPECT_GE(p99, 990u);
    EXPECT_LE(p99, 1200u);
    EXPECT_GE(h.quantile(1.0), h.quantile(0.5));
}

TEST(HistogramTest, BucketIndexIsMonotonicAndConsistent)
{
    std::size_t prev = 0;
    for (u64 v : {0ull, 1ull, 2ull, 3ull, 5ull, 17ull, 100ull, 4096ull,
                  1ull << 20, 1ull << 40, ~0ull >> 1}) {
        std::size_t idx = Histogram::bucketIndex(v);
        EXPECT_GE(idx, prev) << "index must not decrease at v=" << v;
        EXPECT_LE(v, Histogram::bucketUpperBound(idx))
            << "value must fall at or below its bucket's upper bound";
        EXPECT_LT(idx, Histogram::bucketCount);
        prev = idx;
    }
}

TEST(HistogramTest, SummaryMentionsCountAndMax)
{
    Histogram h;
    h.record(100);
    h.record(300);
    std::string s = h.summary();
    EXPECT_NE(s.find("count=2"), std::string::npos) << s;
    EXPECT_NE(s.find("max=300"), std::string::npos) << s;
}

TEST(MetricsRegistryTest, FindOrCreateReturnsStableRefs)
{
    MetricsRegistry reg;
    Counter &a = reg.counter("tcp.segments_sent");
    Counter &b = reg.counter("tcp.segments_sent");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(reg.counterCount(), 1u);
    a.inc(3);
    ASSERT_NE(reg.findCounter("tcp.segments_sent"), nullptr);
    EXPECT_EQ(reg.findCounter("tcp.segments_sent")->value(), 3u);
    EXPECT_EQ(reg.findCounter("no.such.metric"), nullptr);
    EXPECT_EQ(reg.findHistogram("no.such.metric"), nullptr);
    Histogram &h = reg.histogram("gc.pause_ns");
    h.record(5);
    EXPECT_EQ(reg.findHistogram("gc.pause_ns")->count(), 1u);
}

TEST(MetricsRegistryTest, DumpListsMetricsSortedByName)
{
    MetricsRegistry reg;
    reg.counter("z.last").inc(9);
    reg.counter("a.first").inc(1);
    reg.histogram("m.middle_ns").record(250);
    std::string d = reg.dump();
    std::size_t a = d.find("a.first");
    std::size_t m = d.find("m.middle_ns");
    std::size_t z = d.find("z.last");
    ASSERT_NE(a, std::string::npos) << d;
    ASSERT_NE(m, std::string::npos) << d;
    ASSERT_NE(z, std::string::npos) << d;
    EXPECT_LT(a, z) << "dump must be sorted by name:\n" << d;
}

TEST(TraceRecorderTest, DisabledRecorderIsANoOp)
{
    TraceRecorder tr;
    EXPECT_FALSE(tr.enabled());
    tr.span(Cat::Net, "tcp.tx", TimePoint(0), Duration::micros(5));
    tr.instant(Cat::App, "mark", TimePoint(0));
    EXPECT_EQ(tr.eventCount(), 0u);
}

TEST(TraceRecorderTest, TrackInterningIsStable)
{
    TraceRecorder tr;
    u32 a = tr.track("twitter/vcpu");
    u32 b = tr.track("browser/vcpu");
    EXPECT_NE(a, 0u) << "track 0 is reserved for the event loop";
    EXPECT_NE(b, 0u);
    EXPECT_NE(a, b);
    EXPECT_EQ(tr.track("twitter/vcpu"), a);
}

TEST(TraceRecorderTest, ChromeJsonIsSortedByTimestamp)
{
    TraceRecorder tr;
    tr.enable();
    u32 tid = tr.track("cpu0");
    // Recorded out of order on purpose: a Cpu may book a span whose
    // start lies in the future of the event that scheduled it.
    tr.span(Cat::Cpu, "late", TimePoint(Duration::micros(30).ns()),
            Duration::micros(10), tid);
    tr.span(Cat::Cpu, "early", TimePoint(Duration::micros(1).ns()),
            Duration::micros(2), tid, "\"seq\":7");
    tr.instant(Cat::Engine, "dispatch", TimePoint(0));
    EXPECT_EQ(tr.eventCount(), 3u);

    std::string json = tr.toChromeJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"cpu0\""), std::string::npos)
        << "track names must be emitted as thread metadata";
    EXPECT_NE(json.find("\"seq\":7"), std::string::npos);
    std::size_t d = json.find("\"dispatch\"");
    std::size_t e = json.find("\"early\"");
    std::size_t l = json.find("\"late\"");
    ASSERT_NE(d, std::string::npos);
    ASSERT_NE(e, std::string::npos);
    ASSERT_NE(l, std::string::npos);
    EXPECT_LT(d, e);
    EXPECT_LT(e, l);
}

TEST(TraceRecorderTest, WriteChromeJsonRoundTrips)
{
    TraceRecorder tr;
    tr.enable();
    tr.instant(Cat::App, "mark", TimePoint(Duration::micros(3).ns()));
    std::string path = testing::TempDir() + "trace_test_out.json";
    ASSERT_TRUE(tr.writeChromeJson(path).ok());
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096] = {};
    std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    std::remove(path.c_str());
    std::string content(buf, n);
    EXPECT_NE(content.find("\"mark\""), std::string::npos);
    EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
}

TEST(TraceRecorderTest, EngineMirrorsCountersAndRecordsDispatch)
{
    sim::Engine e;
    MetricsRegistry reg;
    TraceRecorder tr;
    tr.enable();
    e.setMetrics(&reg);
    e.setTracer(&tr);

    int fired = 0;
    for (int i = 0; i < 5; i++)
        e.after(Duration::millis(i + 1), [&] { fired++; });
    sim::EventId doomed = e.after(Duration::millis(50), [&] { fired++; });
    e.cancel(doomed);
    e.run();

    EXPECT_EQ(fired, 5);
    ASSERT_NE(reg.findCounter("sim.events_run"), nullptr);
    EXPECT_EQ(reg.findCounter("sim.events_run")->value(), e.eventsRun());
    EXPECT_EQ(reg.findCounter("sim.events_cancelled")->value(), 1u);
    // One "dispatch" instant per executed event, on the engine track.
    std::size_t dispatches = 0;
    for (const TraceRecorder::Event &ev : tr.events())
        if (ev.ph == 'i' && std::string(ev.name) == "dispatch")
            dispatches++;
    EXPECT_EQ(dispatches, e.eventsRun());
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControlChars)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("line\nbreak"), "line\\nbreak");
    EXPECT_EQ(jsonEscape("tab\there"), "tab\\there");
    EXPECT_EQ(jsonEscape(std::string("nul\x01mid")), "nul\\u0001mid");
    EXPECT_EQ(jsonEscape("\r"), "\\u000d");
}

TEST(TraceRecorderTest, FlightRingKeepsLastNAndCountsDropped)
{
    TraceRecorder tr;
    tr.enable();
    tr.setFlightCapacity(4);
    EXPECT_EQ(tr.flightCapacity(), 4u);
    for (int i = 0; i < 10; i++)
        tr.instant(Cat::App, "tick", TimePoint(i));
    EXPECT_EQ(tr.eventCount(), 4u);
    EXPECT_EQ(tr.droppedEvents(), 6u);
    std::vector<TraceRecorder::Event> evs = tr.events();
    ASSERT_EQ(evs.size(), 4u);
    // Oldest-first: the surviving tail is ts 6..9.
    EXPECT_EQ(evs.front().ts_ns, 6);
    EXPECT_EQ(evs.back().ts_ns, 9);
    std::string json = tr.toChromeJson();
    EXPECT_NE(json.find("\"droppedEvents\":6"), std::string::npos)
        << json;
}

TEST(TraceRecorderTest, SettingFlightCapacityTrimsExistingEvents)
{
    TraceRecorder tr;
    tr.enable();
    for (int i = 0; i < 6; i++)
        tr.instant(Cat::App, "tick", TimePoint(i));
    tr.setFlightCapacity(2);
    EXPECT_EQ(tr.eventCount(), 2u);
    EXPECT_EQ(tr.droppedEvents(), 4u);
    std::vector<TraceRecorder::Event> evs = tr.events();
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs.front().ts_ns, 4);
    EXPECT_EQ(evs.back().ts_ns, 5);
}

TEST(TraceRecorderTest, AsyncEventsCarryMatchingIds)
{
    TraceRecorder tr;
    tr.enable();
    u32 guest = tr.track("guest/tcp");
    u32 dom0 = tr.track("dom0/netback");
    tr.asyncBegin(Cat::Flow, "http", 0xabc, TimePoint(10), guest);
    tr.asyncInstant(Cat::Flow, "hop", 0xabc, TimePoint(15), dom0);
    tr.asyncEnd(Cat::Flow, "http", 0xabc, TimePoint(20), dom0);
    std::string json = tr.toChromeJson();
    // All three phases reference the same async id, so viewers can
    // stitch one flow across the two tracks.
    std::size_t at = 0, ids = 0;
    while ((at = json.find("\"id\":\"0xabc\"", at)) !=
           std::string::npos) {
        ids++;
        at++;
    }
    EXPECT_EQ(ids, 3u) << json;
    EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"ph\":\"n\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos) << json;
}

TEST(MetricsRegistryTest, PrometheusExpositionFormat)
{
    MetricsRegistry reg;
    reg.counter("http.requests").inc(5);
    Histogram &h = reg.histogram("req.latency_ns");
    h.record(3);
    h.record(100);
    std::string prom = reg.toPrometheus();

    EXPECT_NE(prom.find("# TYPE http_requests counter\n"
                        "http_requests 5\n"),
              std::string::npos)
        << prom;
    EXPECT_NE(prom.find("# TYPE req_latency_ns histogram"),
              std::string::npos)
        << prom;
    // Buckets are cumulative and end at +Inf; sum/count close out.
    u64 ub3 = Histogram::bucketUpperBound(Histogram::bucketIndex(3));
    u64 ub100 =
        Histogram::bucketUpperBound(Histogram::bucketIndex(100));
    std::string b3 = strprintf("req_latency_ns_bucket{le=\"%llu\"} 1",
                               (unsigned long long)ub3);
    std::string b100 = strprintf(
        "req_latency_ns_bucket{le=\"%llu\"} 2",
        (unsigned long long)ub100);
    EXPECT_NE(prom.find(b3), std::string::npos) << prom;
    EXPECT_NE(prom.find(b100), std::string::npos) << prom;
    EXPECT_NE(prom.find("req_latency_ns_bucket{le=\"+Inf\"} 2"),
              std::string::npos)
        << prom;
    EXPECT_NE(prom.find("req_latency_ns_sum 103"), std::string::npos)
        << prom;
    EXPECT_NE(prom.find("req_latency_ns_count 2"), std::string::npos)
        << prom;
}

TEST(MetricsRegistryTest, LabelledFamiliesRenderExactly)
{
    // One writer renders plain series and labelled families alike: one
    // `# TYPE` line per name, members in label-value order, label
    // values escaped, histogram buckets cumulative up to +Inf.
    MetricsRegistry reg;
    reg.counter("http.requests").inc(5);
    reg.counter("fleet.errors_total", "domain", "a\"b").inc(2);
    reg.counter("fleet.errors_total", "domain", "c\\d\ne");
    Histogram &web0 = reg.histogram("req.latency_ns", "domain", "web0");
    web0.record(3);
    web0.record(3);
    web0.record(100);
    reg.histogram("req.latency_ns", "domain", "web1").record(40);

    EXPECT_EQ(reg.toPrometheus(),
              "# TYPE fleet_errors_total counter\n"
              "fleet_errors_total{domain=\"a\\\"b\"} 2\n"
              "fleet_errors_total{domain=\"c\\\\d\\ne\"} 0\n"
              "# TYPE http_requests counter\n"
              "http_requests 5\n"
              "# TYPE req_latency_ns histogram\n"
              "req_latency_ns_bucket{domain=\"web0\",le=\"3\"} 2\n"
              "req_latency_ns_bucket{domain=\"web0\",le=\"101\"} 3\n"
              "req_latency_ns_bucket{domain=\"web0\",le=\"+Inf\"} 3\n"
              "req_latency_ns_sum{domain=\"web0\"} 106\n"
              "req_latency_ns_count{domain=\"web0\"} 3\n"
              "req_latency_ns_bucket{domain=\"web1\",le=\"40\"} 1\n"
              "req_latency_ns_bucket{domain=\"web1\",le=\"+Inf\"} 1\n"
              "req_latency_ns_sum{domain=\"web1\"} 40\n"
              "req_latency_ns_count{domain=\"web1\"} 1\n");

    // Members are addressable and enumerable by label value.
    EXPECT_EQ(reg.findHistogram("req.latency_ns", "web0"), &web0);
    EXPECT_EQ(reg.findCounter("fleet.errors_total", "a\"b")->value(), 2u);
    auto family = reg.histogramFamily("req.latency_ns");
    ASSERT_EQ(family.size(), 2u);
    EXPECT_EQ(family.at("web1")->count(), 1u);
    EXPECT_NE(reg.dump().find("req.latency_ns{domain=\"web1\"}"),
              std::string::npos);
}

TEST(FlowTrackerTest, StagesMergeAndFinalizeIsDeferred)
{
    TraceRecorder tr;
    tr.enable();
    MetricsRegistry reg;
    FlowTracker fl;
    fl.enable();
    fl.attach(&tr, &reg);

    FlowId id = fl.begin("http", TimePoint(100), 0, "GET /x");
    ASSERT_NE(id, 0u);
    fl.stageBegin(id, "handler", TimePoint(100));
    fl.stageEnd(id, "handler", TimePoint(150));
    fl.stageBegin(id, "tcp_tx", TimePoint(150));
    // end() arrives while tcp_tx is still open: the flow must not
    // finalize until the last stage closes (the final ACK).
    fl.end(id, TimePoint(160));
    EXPECT_EQ(fl.completed(), 0u);
    EXPECT_EQ(fl.liveCount(), 1u);
    fl.stageEnd(id, "tcp_tx", TimePoint(400));
    EXPECT_EQ(fl.completed(), 1u);
    EXPECT_EQ(fl.liveCount(), 0u);

    ASSERT_NE(reg.findCounter("flow.http.completed"), nullptr);
    EXPECT_EQ(reg.findCounter("flow.http.completed")->value(), 1u);
    ASSERT_NE(reg.findHistogram("flow.http.stage.handler_ns"),
              nullptr);
    EXPECT_EQ(reg.findHistogram("flow.http.stage.handler_ns")->sum(),
              50u);
    ASSERT_NE(reg.findHistogram("flow.http.total_ns"), nullptr);
    EXPECT_EQ(reg.findHistogram("flow.http.total_ns")->sum(), 300u);

    std::string j = fl.recentJson();
    EXPECT_NE(j.find("\"kind\":\"http\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"detail\":\"GET /x\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"handler\":50"), std::string::npos) << j;

    // Stage calls for a finalized (or unknown) flow are no-ops.
    fl.stageBegin(id, "late", TimePoint(500));
    fl.stageEnd(9999, "late", TimePoint(500));
    EXPECT_EQ(fl.completed(), 1u);
}

TEST(FlowTrackerTest, NestedStageOpensAreUnionMerged)
{
    FlowTracker fl;
    fl.enable();
    FlowId id = fl.begin("http", TimePoint(0));
    fl.stageBegin(id, "netif_tx", TimePoint(0));
    fl.stageBegin(id, "netif_tx", TimePoint(10)); // overlapping open
    fl.stageEnd(id, "netif_tx", TimePoint(20));
    fl.stageEnd(id, "netif_tx", TimePoint(50));
    fl.end(id, TimePoint(50));
    ASSERT_EQ(fl.recent().size(), 1u);
    const FlowTracker::Flow &f = fl.recent().front();
    ASSERT_EQ(f.stages.size(), 1u);
    // One merged interval [0, 50), not 50 + 10 double-counted.
    EXPECT_EQ(f.stages.front().total_ns, 50u);
    EXPECT_EQ(f.stages.front().count, 2u);
}

TEST(FlowTrackerTest, EngineCarriesAmbientFlowAcrossEvents)
{
    sim::Engine e;
    FlowTracker fl;
    fl.enable();
    e.setFlows(&fl);

    FlowId id = fl.begin("http", TimePoint(0));
    FlowId seen_outer = 0, seen_inner = 0;
    {
        FlowScope scope(&fl, id);
        e.after(Duration::millis(1), [&] {
            seen_outer = fl.current();
            // Chained work inherits the flow too.
            e.after(Duration::millis(1),
                    [&] { seen_inner = fl.current(); });
        });
    }
    fl.setCurrent(0);
    e.after(Duration::millis(3), [&] { EXPECT_EQ(fl.current(), 0u); });
    e.run();
    EXPECT_EQ(seen_outer, id);
    EXPECT_EQ(seen_inner, id);
    fl.end(id, TimePoint(0));
}

TEST(FlightRecorderTest, CheckerViolationDumpsBoundedTrace)
{
    std::string path = testing::TempDir() + "flight_dump.json";
    std::remove(path.c_str());
    ::setenv("MIRAGE_FLIGHT", "8", 1);
    ::setenv("MIRAGE_FLIGHT_PATH", path.c_str(), 1);
    {
        core::Cloud cloud;
        EXPECT_EQ(cloud.tracer().flightCapacity(), 8u);
        cloud.checker().setMode(check::Checker::Mode::Count);
        cloud.checker().enable();
        for (int i = 0; i < 32; i++)
            cloud.tracer().instant(Cat::App, "tick", TimePoint(i));
        EXPECT_EQ(cloud.tracer().eventCount(), 8u);
        cloud.checker().violation(check::Subsystem::Ring,
                                  "test.injected", "synthetic");
    }
    ::unsetenv("MIRAGE_FLIGHT");
    ::unsetenv("MIRAGE_FLIGHT_PATH");

    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr) << "violation hook must write " << path;
    std::string content;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        content.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_NE(content.find("\"droppedEvents\":"), std::string::npos);
    EXPECT_NE(content.find("\"tick\""), std::string::npos);
}

} // namespace
} // namespace mirage::trace
