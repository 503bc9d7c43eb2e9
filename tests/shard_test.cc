/**
 * @file
 * Determinism and aggregate tests for the sharded event engine
 * (sim/shard.h): the same seed must produce bit-identical virtual
 * results at any shard count — event causal order (dispatch checksum),
 * event counts, flow snapshots — cross-shard cancellation must be
 * exact, and the shard-aware aggregates must span every queue plus the
 * mailbox.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/cloud.h"
#include "protocols/http/client.h"
#include "protocols/http/server.h"
#include "sim/engine.h"
#include "sim/shard.h"

namespace mirage::sim {
namespace {

// ---- Raw ShardSet determinism --------------------------------------------

struct CascadeResult
{
    u64 checksum = 0;
    u64 events = 0;
    i64 max_now_ns = 0;
    u64 work = 0;

    bool
    operator==(const CascadeResult &o) const
    {
        return checksum == o.checksum && events == o.events &&
               max_now_ns == o.max_now_ns && work == o.work;
    }
};

/**
 * A deterministic cross-shard cascade over D virtual "domains": each
 * hop does local work, schedules a local follow-up, and forwards to a
 * pseudo-random other domain with a latency safely above the
 * lookahead. The virtual result must not depend on the shard count —
 * nor on whether the wall profiler's timeline capture is armed
 * (@p timeline); @p inspect, when given, reads the ShardSet after the
 * run so tests can check the profiler without widening the result.
 */
CascadeResult
runCascade(unsigned shards, bool timeline = false,
           const std::function<void(ShardSet &)> &inspect = {})
{
    Engine primary;
    ShardSet set(primary, shards);
    if (timeline)
        set.wallprof().enableTimeline(true);
    constexpr int kDomains = 12;
    constexpr int kDepth = 6;
    // Each slot is only ever touched from its home shard's thread.
    auto work = std::make_shared<std::vector<u64>>(kDomains, 0);

    // `hop` stays alive through set.run() via this strong local ref;
    // the closures hold it weakly so the recursion isn't a self-cycle.
    auto hop = std::make_shared<std::function<void(int, int)>>();
    std::weak_ptr<std::function<void(int, int)>> weak_hop = hop;
    *hop = [&set, work, weak_hop](int dom, int depth) {
        (*work)[dom] += u64(dom) * 17 + u64(depth);
        Engine &here = *Engine::current();
        here.after(Duration::micros(3),
                   [work, dom] { (*work)[dom] += 1; });
        if (depth < kDepth) {
            int next = (dom * 7 + depth + 3) % kDomains;
            crossPost(set.engineFor(unsigned(next)), Duration::micros(5),
                      [weak_hop, next, depth] {
                          if (auto h = weak_hop.lock())
                              (*h)(next, depth + 1);
                      });
        }
    };
    for (int d = 0; d < kDomains; d++) {
        crossPostAt(set.engineFor(unsigned(d)),
                    TimePoint(Duration::micros(10 * (d + 1)).ns()),
                    [hop, d] { (*hop)(d, 0); });
    }
    set.run();

    CascadeResult r;
    r.checksum = set.dispatchChecksum();
    r.events = set.eventsRun();
    r.max_now_ns = set.maxNow().ns();
    for (u64 w : *work)
        r.work += w;
    if (inspect)
        inspect(set);
    return r;
}

TEST(ShardSetTest, CascadeIsIdenticalAtAnyShardCount)
{
    CascadeResult one = runCascade(1);
    CascadeResult two = runCascade(2);
    CascadeResult eight = runCascade(8);
    EXPECT_GT(one.events, u64(12 * 7)); // seeds + hops + local timers
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, eight);
}

TEST(ShardSetTest, SingleShardSetMatchesPlainEngine)
{
    // The degenerate single-shard ShardSet must consume keys exactly
    // like a bare engine: same checksum, same event count.
    auto workload = [](Engine &e) {
        for (int i = 0; i < 4; i++) {
            e.after(Duration::micros(10 * (i + 1)), [&e, i] {
                e.after(Duration::micros(2 + i), [] {});
            });
        }
    };
    Engine plain;
    workload(plain);
    plain.run();

    Engine primary;
    ShardSet set(primary, 1);
    workload(primary);
    set.run();

    EXPECT_EQ(plain.dispatchChecksum(), set.dispatchChecksum());
    EXPECT_EQ(plain.eventsRun(), set.eventsRun());
    EXPECT_EQ(plain.now().ns(), set.maxNow().ns());
}

/** Post a cross-shard message, then cancel it from another shard
 *  before its delivery time: the callback must never run, at any shard
 *  count, without disturbing the rest of the run. */
CascadeResult
runCancelWorkload(unsigned shards, bool *cancelled_ran)
{
    Engine primary;
    ShardSet set(primary, shards);
    auto handle = std::make_shared<CrossHandle>();
    *cancelled_ran = false;

    crossPostAt(set.engineFor(0), TimePoint(Duration::micros(10).ns()),
                [&set, handle, cancelled_ran] {
                    *handle = crossPost(
                        set.engineFor(1), Duration::micros(100),
                        [cancelled_ran] { *cancelled_ran = true; });
                });
    // The cancel runs on the target's own shard at t=30us, well before
    // the 110us delivery: removal must be exact.
    crossPostAt(set.engineFor(1), TimePoint(Duration::micros(30).ns()),
                [handle] { crossCancel(*handle); });
    // Unrelated surviving traffic on a third placement.
    crossPostAt(set.engineFor(2), TimePoint(Duration::micros(50).ns()),
                [&set] {
                    crossPost(set.engineFor(3), Duration::micros(5),
                              [] {});
                });
    set.run();

    CascadeResult r;
    r.checksum = set.dispatchChecksum();
    r.events = set.eventsRun();
    r.max_now_ns = set.maxNow().ns();
    return r;
}

TEST(ShardSetTest, CrossShardCancellationIsExact)
{
    bool ran1 = false, ran2 = false, ran8 = false;
    CascadeResult one = runCancelWorkload(1, &ran1);
    CascadeResult two = runCancelWorkload(2, &ran2);
    CascadeResult eight = runCancelWorkload(8, &ran8);
    EXPECT_FALSE(ran1);
    EXPECT_FALSE(ran2);
    EXPECT_FALSE(ran8);
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, eight);
}

TEST(ShardSetTest, MailboxCancelCountsAsCrossCancelled)
{
    Engine primary;
    ShardSet set(primary, 2);
    bool ran = false;
    auto handle = std::make_shared<CrossHandle>();
    crossPostAt(set.engineFor(0), TimePoint(Duration::micros(10).ns()),
                [&set, handle, &ran] {
                    *handle =
                        crossPost(set.engineFor(1), Duration::micros(100),
                                  [&ran] { ran = true; });
                });
    crossPostAt(set.engineFor(0), TimePoint(Duration::micros(20).ns()),
                [handle] { crossCancel(*handle); });
    set.run();
    EXPECT_FALSE(ran);
    EXPECT_GE(set.crossPosts(), u64(1));
    EXPECT_EQ(set.crossCancelled(), u64(1));
}

TEST(ShardSetTest, CancelledCrossMessagesLeaveNoDeliveryTrace)
{
    // A message cancelled before its delivery window must not reach
    // the delivered count *or* the wall profiler's delivery-lag
    // histograms: both must stay in lock-step with actual deliveries.
    Engine primary;
    ShardSet set(primary, 2);
    bool ran = false;
    auto handle = std::make_shared<CrossHandle>();
    crossPostAt(set.engineFor(0), TimePoint(Duration::micros(10).ns()),
                [&set, handle, &ran] {
                    *handle = crossPost(
                        set.engineFor(1), Duration::micros(100),
                        [&ran] { ran = true; });
                });
    crossPostAt(set.engineFor(1), TimePoint(Duration::micros(30).ns()),
                [handle] { crossCancel(*handle); });
    crossPostAt(set.engineFor(2), TimePoint(Duration::micros(50).ns()),
                [&set] {
                    crossPost(set.engineFor(3), Duration::micros(5),
                              [] {});
                });
    set.run();

    EXPECT_FALSE(ran);
    EXPECT_EQ(set.crossCancelled(), u64(1));
    EXPECT_EQ(set.crossDelivered(),
              set.crossPosts() - set.crossCancelled());
    const trace::WallProfiler &wp = set.wallprof();
    EXPECT_EQ(wp.deliveryLagVirtual().count(), set.crossDelivered());
    EXPECT_EQ(wp.mailboxLagWall().count(), set.crossDelivered());
}

// ---- Wall-clock observability --------------------------------------------

TEST(ShardSetTest, ProfiledTimelineReplayIsBitIdentical)
{
    // Arming the wall profiler's span capture must not perturb the
    // virtual result at any shard count: measurement is observe-only.
    CascadeResult plain = runCascade(1);
    double attr = 0;
    u64 spans = 0;
    std::string timeline;
    auto grab = [&](ShardSet &set) {
        attr = set.wallprof().attributedFraction();
        spans = set.wallprof().spansRecorded();
        timeline = set.wallprof().toChromeJson();
    };
    EXPECT_EQ(plain, runCascade(1, true, grab));
    EXPECT_EQ(plain, runCascade(2, true, grab));
    EXPECT_EQ(plain, runCascade(8, true, grab));

    // The last grab saw the 8-shard run: every worker gets a named
    // wall-time track, execute spans carry their virtual window.
    EXPECT_GT(spans, u64(0));
    EXPECT_NE(timeline.find("\"wall/shard0\""), std::string::npos);
    EXPECT_NE(timeline.find("\"wall/shard7\""), std::string::npos);
    EXPECT_NE(timeline.find("\"execute\""), std::string::npos);
    EXPECT_NE(timeline.find("\"vt_ns\""), std::string::npos);
    EXPECT_GE(attr, 0.95);
}

TEST(ShardSetTest, WallProfilerAccountsForElapsedTime)
{
    runCascade(4, false, [](ShardSet &set) {
        const trace::WallProfiler &wp = set.wallprof();
        ASSERT_GT(wp.windows(), u64(0));
        ASSERT_GT(wp.elapsedNs(), i64(0));
        // >=95% of (workers x elapsed) lands in a phase; efficiency
        // and barrier-wait are fractions of the same denominator, so
        // neither can exceed attribution.
        EXPECT_GE(wp.attributedFraction(), 0.95);
        EXPECT_LE(wp.attributedFraction(), 1.05);
        EXPECT_GT(wp.parallelEfficiency(), 0.0);
        EXPECT_LE(wp.parallelEfficiency(), wp.attributedFraction());
        EXPECT_LE(wp.barrierWaitFraction(), wp.attributedFraction());
        EXPECT_GE(wp.imbalanceRatio(), 1.0);
        // Per-shard totals fold into the same events the engines ran.
        u64 events = 0;
        for (unsigned w = 0; w < set.count(); w++)
            events += wp.shardStats(w).events;
        EXPECT_EQ(events, set.eventsRun());
        std::string json = wp.statsJson();
        EXPECT_NE(json.find("\"per_shard\""), std::string::npos);
        EXPECT_NE(json.find("\"efficiency\""), std::string::npos);
        std::string prom = wp.toPrometheus();
        EXPECT_NE(prom.find("shard_busy_ns{shard=\"0\"}"),
                  std::string::npos);
        EXPECT_NE(prom.find("shard_parallel_efficiency"),
                  std::string::npos);
        EXPECT_NE(prom.find("shard_delivery_lag_virtual_ns_bucket"),
                  std::string::npos);
    });
}

// ---- Shard-aware aggregates ----------------------------------------------

TEST(ShardSetTest, AggregatesSpanShardsAndMailbox)
{
    Engine primary;
    ShardSet set(primary, 4);
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.pendingEvents(), 0u);

    // One direct event per shard plus one parked mailbox message.
    std::vector<EventId> ids;
    for (unsigned i = 0; i < 4; i++)
        ids.push_back(set.shard(i).at(
            TimePoint(Duration::micros(10 * (i + 1)).ns()), [] {}));
    CrossHandle h = set.postAt(set.shard(2),
                               TimePoint(Duration::micros(100).ns()),
                               [] {});
    EXPECT_TRUE(h.valid());

    EXPECT_FALSE(set.empty());
    EXPECT_EQ(set.pendingEvents(), 5u);
    EXPECT_EQ(set.cancelledBacklog(), 0u);

    set.shard(3).cancel(ids[3]);
    EXPECT_EQ(set.cancelledBacklog(), 1u);
    EXPECT_EQ(set.pendingEvents(), 5u); // cancelled slot not yet reaped

    set.run();
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.pendingEvents(), 0u);
    EXPECT_EQ(set.cancelledBacklog(), 0u);
    EXPECT_EQ(set.eventsRun(), 4u); // 3 directs + 1 delivered cross
}

// ---- Cloud-level determinism ---------------------------------------------

struct FlowSnap
{
    u64 id;
    std::string kind;
    std::string detail;
    std::string domain;
    i64 start_ns;
    i64 end_ns;
    std::size_t stages;
    bool done;

    bool
    operator==(const FlowSnap &o) const
    {
        return id == o.id && kind == o.kind && detail == o.detail &&
               domain == o.domain && start_ns == o.start_ns &&
               end_ns == o.end_ns && stages == o.stages && done == o.done;
    }
    bool operator<(const FlowSnap &o) const { return id < o.id; }
};

struct CloudResult
{
    int completed = 0;
    u64 events = 0;
    u64 checksum = 0;
    i64 max_now_ns = 0;
    std::vector<FlowSnap> flows;
};

/** A small HTTP fleet: 3 servers, 3 clients, 4 keep-alive requests
 *  each, across whatever shard placement the count dictates. */
CloudResult
runCloudWorkload(unsigned shards)
{
    core::Cloud::Config cfg;
    cfg.shards = shards;
    core::Cloud cloud(cfg);

    std::vector<core::Guest *> servers, clients;
    std::vector<std::unique_ptr<http::HttpServer>> webs;
    for (int i = 0; i < 3; i++) {
        servers.push_back(&cloud.startUnikernel(
            "server" + std::to_string(i), net::Ipv4Addr(10, 0, 0, u8(10 + i))));
        clients.push_back(&cloud.startUnikernel(
            "client" + std::to_string(i), net::Ipv4Addr(10, 0, 0, u8(20 + i))));
    }
    for (int i = 0; i < 3; i++) {
        webs.push_back(std::make_unique<http::HttpServer>(
            servers[i]->stack, 80,
            [](const http::HttpRequest &req, auto respond) {
                respond(http::HttpResponse::text(
                    200, "echo:" + req.path + std::string(512, 'y')));
            }));
    }

    CloudResult r;
    // Responses land on whichever shard runs their client, possibly two
    // at once.
    std::atomic<int> completed{0};
    for (int i = 0; i < 3; i++) {
        auto holder =
            std::make_shared<std::shared_ptr<http::HttpSession>>();
        *holder = http::HttpSession::open(
            clients[i]->stack, net::Ipv4Addr(10, 0, 0, u8(10 + i)), 80,
            [&completed, holder, i](Status st) {
                ASSERT_TRUE(st.ok());
                for (int q = 0; q < 4; q++) {
                    http::HttpRequest req;
                    req.method = "GET";
                    req.path = "/c" + std::to_string(i) + "/q" +
                               std::to_string(q);
                    (*holder)->request(
                        req,
                        [&completed](Result<http::HttpResponse> resp) {
                            if (resp.ok())
                                completed++;
                        });
                }
            });
    }
    cloud.run();

    r.completed = completed.load();
    r.events = cloud.eventsRun();
    r.checksum = cloud.shards().dispatchChecksum();
    r.max_now_ns = cloud.shards().maxNow().ns();
    for (const trace::FlowTracker::Flow &f : cloud.flows().recent()) {
        r.flows.push_back(FlowSnap{f.id, f.kind, f.detail, f.domain,
                                   f.start_ns, f.end_ns,
                                   f.stages.size(), f.done});
    }
    std::sort(r.flows.begin(), r.flows.end());
    return r;
}

TEST(CloudShardTest, HttpFleetIsIdenticalAtAnyShardCount)
{
    CloudResult one = runCloudWorkload(1);
    CloudResult two = runCloudWorkload(2);
    CloudResult eight = runCloudWorkload(8);

    EXPECT_EQ(one.completed, 12);
    EXPECT_EQ(two.completed, 12);
    EXPECT_EQ(eight.completed, 12);

    // Virtual results — event causal order, counts, final clock, and
    // the flow snapshot down to ids and stage counts — are a pure
    // function of the seed, not of the shard count.
    EXPECT_EQ(one.events, two.events);
    EXPECT_EQ(one.events, eight.events);
    EXPECT_EQ(one.checksum, two.checksum);
    EXPECT_EQ(one.checksum, eight.checksum);
    EXPECT_EQ(one.max_now_ns, two.max_now_ns);
    EXPECT_EQ(one.max_now_ns, eight.max_now_ns);

    ASSERT_EQ(one.flows.size(), two.flows.size());
    ASSERT_EQ(one.flows.size(), eight.flows.size());
    EXPECT_GE(one.flows.size(), 12u);
    for (std::size_t i = 0; i < one.flows.size(); i++) {
        EXPECT_TRUE(one.flows[i] == two.flows[i])
            << "flow " << i << " diverges between 1 and 2 shards (id "
            << one.flows[i].id << " vs " << two.flows[i].id << ")";
        EXPECT_TRUE(one.flows[i] == eight.flows[i])
            << "flow " << i << " diverges between 1 and 8 shards (id "
            << one.flows[i].id << " vs " << eight.flows[i].id << ")";
    }
}

TEST(CloudShardTest, OneShardRunIsPinned)
{
    // Engine and driver fast paths may change what an event costs on
    // the host, never which events run or when: these are the 1-shard
    // figures of the reference implementation. Idle poll rounds are
    // computed, not run (sim/poller.h): the ticking poller ran 3158
    // events (checksum 0x221e80bd9d36ed1a), and folding every skipped
    // round's mixKey(when, hash) back in reproduces exactly that.
    CloudResult one = runCloudWorkload(1);
    EXPECT_EQ(one.completed, 12);
    EXPECT_EQ(one.events, 653u);
    EXPECT_EQ(one.checksum, 0xc9c359e7e6ae1415ull);
}

TEST(CloudShardTest, ShardAwareAggregatesReachQuiescence)
{
    core::Cloud::Config cfg;
    cfg.shards = 4;
    core::Cloud cloud(cfg);
    core::Guest &server =
        cloud.startUnikernel("server", net::Ipv4Addr(10, 0, 0, 2));
    core::Guest &client =
        cloud.startUnikernel("client", net::Ipv4Addr(10, 0, 0, 3));
    http::HttpServer web(server.stack, 80,
                         [](const http::HttpRequest &, auto respond) {
                             respond(http::HttpResponse::text(200, "ok"));
                         });
    int completed = 0;
    auto holder = std::make_shared<std::shared_ptr<http::HttpSession>>();
    *holder = http::HttpSession::open(
        client.stack, net::Ipv4Addr(10, 0, 0, 2), 80,
        [&, holder](Status st) {
            ASSERT_TRUE(st.ok());
            http::HttpRequest req;
            req.method = "GET";
            req.path = "/once";
            (*holder)->request(req,
                               [&](Result<http::HttpResponse> resp) {
                                   if (resp.ok())
                                       completed++;
                               });
        });
    EXPECT_FALSE(cloud.quiescent());
    EXPECT_GT(cloud.pendingEvents(), 0u);
    cloud.run();
    EXPECT_EQ(completed, 1);
    EXPECT_TRUE(cloud.quiescent());
    EXPECT_EQ(cloud.pendingEvents(), 0u);
    EXPECT_GT(cloud.eventsRun(), u64(0));
    EXPECT_EQ(cloud.shards().count(), 4u);
    EXPECT_GT(cloud.shards().windows(), u64(0));
    EXPECT_GT(cloud.shards().crossPosts(), u64(0));

    // The wall profiler saw the same run, and the hub surfaces it:
    // a "shards" section in /fleet and shard_* Prometheus series.
    const trace::WallProfiler &wp = cloud.shards().wallprof();
    EXPECT_GT(wp.windows(), u64(0));
    EXPECT_GE(wp.attributedFraction(), 0.95);
    std::string fleet = cloud.hub().fleetJson();
    EXPECT_NE(fleet.find("\"shards\":"), std::string::npos);
    EXPECT_NE(fleet.find("\"per_shard\""), std::string::npos);
    std::string prom = cloud.hub().toPrometheus();
    EXPECT_NE(prom.find("shard_wait_ns{shard=\"1\"}"),
              std::string::npos);
    EXPECT_NE(prom.find("shard_imbalance_ratio"), std::string::npos);
}

} // namespace
} // namespace mirage::sim
