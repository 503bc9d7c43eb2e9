/**
 * @file
 * Real-time microbenchmarks (google-benchmark) of the library's hot
 * paths: Cstruct accessors and slicing, the Internet checksum, the
 * shared-ring protocol, the event engine, the grant pool and checker
 * teardown, TCP header build/parse, DNS query handling (memo hit vs
 * full path), and B-tree operations. These measure this
 * implementation's own code, complementing the virtual-time
 * reproductions.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <unistd.h>
#include <vector>

#include "base/checksum.h"
#include "base/rand.h"
#include "bench_json.h"
#include "check/check.h"
#include "drivers/grant_pool.h"
#include "hypervisor/ring.h"
#include "hypervisor/xen.h"
#include "sim/engine.h"
#include "sim/shard.h"
#include "sim/tuning.h"
#include "net/tcp_wire.h"
#include "protocols/dns/server.h"
#include "storage/btree.h"

using namespace mirage;

namespace {

void
BM_CstructBe32RoundTrip(benchmark::State &state)
{
    Cstruct c = Cstruct::create(4096);
    u32 v = 0;
    for (auto _ : state) {
        c.setBe32((v % 1000) * 4, v);
        v += c.getBe32((v % 1000) * 4);
        benchmark::DoNotOptimize(v);
    }
}

void
BM_CstructSubSlice(benchmark::State &state)
{
    Cstruct c = Cstruct::create(4096);
    std::size_t off = 0;
    for (auto _ : state) {
        Cstruct view = c.sub(off % 2048, 1024).shift(64);
        benchmark::DoNotOptimize(view.length());
        off += 13;
    }
}

void
BM_InternetChecksum(benchmark::State &state)
{
    Cstruct c = Cstruct::create(std::size_t(state.range(0)));
    for (std::size_t i = 0; i < c.length(); i++)
        c.setU8(i, u8(i * 31));
    for (auto _ : state)
        benchmark::DoNotOptimize(internetChecksum(c));
    state.SetBytesProcessed(i64(state.iterations()) * state.range(0));
}

void
BM_SharedRingRoundTrip(benchmark::State &state)
{
    Cstruct page = Cstruct::create(xen::RingLayout::pageBytes());
    xen::SharedRing(page).init();
    xen::FrontRing front(page);
    xen::BackRing back(page);
    for (auto _ : state) {
        Cstruct req = front.startRequest().value();
        req.setLe64(0, 42);
        front.pushRequests();
        Cstruct got = back.takeRequest().value();
        Cstruct rsp = back.startResponse().value();
        rsp.setLe64(0, got.getLe64(0));
        back.pushResponses();
        benchmark::DoNotOptimize(
            front.takeResponse().value().getLe64(0));
    }
}

void
BM_EngineScheduleDispatch(benchmark::State &state)
{
    // The event-engine hot loop: schedule + dispatch, no cancellation.
    // Exercises the slot allocator that replaced the per-event hash
    // sets.
    sim::Engine engine;
    u64 sink = 0;
    for (auto _ : state) {
        engine.after(Duration::nanos(1), [&sink] { sink++; });
        engine.step();
    }
    benchmark::DoNotOptimize(sink);
}

void
BM_EngineScheduleDispatchDeep(benchmark::State &state)
{
    // The same loop over a queue of 4096 pending events at random
    // times: every schedule and dispatch sifts through ~12 heap levels,
    // so this is where the heap's element size shows.
    sim::Engine engine;
    Rng rng(1);
    u64 sink = 0;
    for (int i = 0; i < 4096; i++)
        engine.after(Duration::nanos(i64(1 + rng.below(1'000'000))),
                     [&sink] { sink++; });
    for (auto _ : state) {
        engine.after(Duration::nanos(i64(1 + rng.below(1'000'000))),
                     [&sink] { sink++; });
        engine.step();
    }
    benchmark::DoNotOptimize(sink);
}

void
BM_EngineScheduleCancel(benchmark::State &state)
{
    // Timer-heavy workloads (TCP RTO, poll timeouts) schedule and
    // cancel far more events than they dispatch.
    sim::Engine engine;
    for (auto _ : state) {
        sim::EventId id = engine.after(Duration::millis(100), [] {});
        engine.cancel(id);
        engine.step(); // pops the cancelled slot
    }
}

void
BM_EngineNearOverFarBacklog(benchmark::State &state)
{
    // A busy appliance's queue: a 1 us poll chain re-arming itself over
    // ~10k protocol timers (RTO, delayed ACK, TIME_WAIT) one to two
    // seconds out, each re-arming when it fires so the backlog stays.
    // In one heap every chain step sifts past the timers; in the near
    // heap it sifts past a handful of keys.
    struct Timer
    {
        sim::Engine &engine;
        Rng &rng;
        void
        operator()() const
        {
            i64 ns = i64(1'000'000'000 + rng.below(1'000'000'000));
            engine.after(Duration::nanos(ns), *this);
        }
    };
    struct Poll
    {
        sim::Engine &engine;
        u64 &rounds;
        void
        operator()() const
        {
            rounds++;
            engine.after(Duration::micros(1), *this);
        }
    };
    sim::Engine engine;
    Rng rng(1);
    u64 rounds = 0;
    for (int i = 0; i < 10'000; i++)
        Timer{engine, rng}();
    engine.after(Duration::micros(1), Poll{engine, rounds});
    for (auto _ : state)
        engine.step();
    benchmark::DoNotOptimize(rounds);
}

void
BM_GrantPoolAcquire(benchmark::State &state)
{
    // A 64-page pool with 63 pages borrowed (posted rx buffers, tx
    // frames in flight): each acquire must find the one free page.
    sim::Tuning saved = sim::tuning();
    sim::tuning().frontendPoolPages = 64;
    sim::Engine engine;
    xen::Hypervisor hv(engine);
    xen::Domain &dom0 =
        hv.createDomain("dom0", xen::GuestKind::LinuxMinimal, 512);
    xen::Domain &uk = hv.createDomain("uk", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot(uk);
    drivers::GrantPool pool(boot, dom0.id());
    std::vector<Cstruct> borrowed;
    for (int i = 0; i < 63; i++)
        borrowed.push_back(pool.acquirePage().value());
    for (auto _ : state) {
        auto page = pool.acquirePage(); // dropped at once: page returns
        benchmark::DoNotOptimize(page.ok());
    }
    borrowed.clear();
    sim::tuning() = saved;
}

void
BM_CheckerDomainTeardown(benchmark::State &state)
{
    // Fleet teardown: 400 domains, each with 8 live grants to dom0,
    // tear down one after another. Time is per 400; items are domains.
    constexpr u32 kDomains = 400;
    constexpr u32 kGrants = 8;
    for (auto _ : state) {
        state.PauseTiming();
        check::Checker ck(check::Checker::Mode::Count);
        ck.enable();
        for (u32 d = 1; d <= kDomains; d++) {
            for (u32 g = 1; g <= kGrants; g++)
                ck.grantCreated(d, g, 0);
        }
        state.ResumeTiming();
        for (u32 d = 1; d <= kDomains; d++)
            ck.domainTeardown(d);
        benchmark::DoNotOptimize(ck.violations());
    }
    state.SetItemsProcessed(i64(state.iterations()) * kDomains);
}

void
BM_TcpHeaderBuildParse(benchmark::State &state)
{
    Cstruct buf = Cstruct::create(64);
    for (auto _ : state) {
        std::size_t len = net::writeTcpHeader(
            buf, 80, 45678, 0x12345678, 0x9abcdef0,
            net::TcpFlags::ack | net::TcpFlags::psh, 2048, false, 0,
            -1);
        auto seg = net::TcpSegment::parse(buf.sub(0, len));
        benchmark::DoNotOptimize(seg.value().seq);
    }
}

void
BM_DnsQueryFullPath(benchmark::State &state)
{
    dns::DnsServer::Config cfg;
    cfg.memoize = false;
    dns::DnsServer server(dns::syntheticZone("bench.example.", 10000),
                          cfg);
    dns::DnsMessage q;
    q.header = dns::DnsHeader{};
    q.header.qdcount = 1;
    q.questions.push_back(dns::Question{
        dns::nameFromString("host004242.bench.example").value(), 1, 1});
    dns::MessageWriter w(dns::CompressionImpl::None);
    Cstruct query = w.write(q);
    for (auto _ : state) {
        auto rsp = server.answer(query);
        benchmark::DoNotOptimize(rsp.value().length());
    }
}

void
BM_DnsQueryMemoHit(benchmark::State &state)
{
    dns::DnsServer server(dns::syntheticZone("bench.example.", 10000),
                          dns::DnsServer::Config{});
    dns::DnsMessage q;
    q.header = dns::DnsHeader{};
    q.header.qdcount = 1;
    q.questions.push_back(dns::Question{
        dns::nameFromString("host004242.bench.example").value(), 1, 1});
    dns::MessageWriter w(dns::CompressionImpl::None);
    Cstruct query = w.write(q);
    (void)server.answer(query); // warm the memo
    for (auto _ : state) {
        auto rsp = server.answer(query);
        benchmark::DoNotOptimize(rsp.value().length());
    }
}

void
BM_BTreeInsert(benchmark::State &state)
{
    storage::MemDevice dev(1u << 18);
    storage::BTree tree(dev);
    tree.format([](Status) {});
    u64 i = 0;
    for (auto _ : state) {
        tree.set(strprintf("key%08llu", (unsigned long long)i++), "v",
                 [](Status) {});
    }
}

void
BM_BTreeLookup(benchmark::State &state)
{
    storage::MemDevice dev(1u << 18);
    storage::BTree tree(dev);
    tree.format([](Status) {});
    for (u64 i = 0; i < 1000; i++)
        tree.set(strprintf("key%08llu", (unsigned long long)i), "v",
                 [](Status) {});
    u64 i = 0;
    for (auto _ : state) {
        tree.get(strprintf("key%08llu",
                           (unsigned long long)(i++ % 1000)),
                 [](Result<std::string> r) {
                     benchmark::DoNotOptimize(r.ok());
                 });
    }
}

// ---- Sharded engine scaling storm -----------------------------------
//
// A fixed 192-actor event storm: every actor runs a 400-event chain on
// its home shard, crossing to the next shard's actor every 16th hop
// through the mailbox API. Total work is independent of the shard
// count, so wall_events_per_sec over shards {1,2,4,8} measures the
// ShardSet's parallel scaling directly; CI gates the 4-shard speedup
// against BENCH_engine.json. The per-event mixKey loop stands in for
// the guest work (netfront/TCP bookkeeping) a real domain does per
// dispatch — without it the storm would measure only barrier overhead.

volatile u64 g_storm_sink;

/** Wall-profiler readout of one storm run, for the --json rows. */
struct StormWallStats
{
    double attribution = 0;      //!< fraction of wall time accounted
    double efficiency = 0;       //!< Σbusy / (workers × elapsed)
    double barrier_wait_frac = 0;
    double imbalance = 0;        //!< mean per-window max/mean ratio
    double mailbox_lag_p99_ns = 0;
};

u64
runShardStorm(unsigned shards, StormWallStats *wall = nullptr)
{
    sim::Engine primary;
    sim::ShardSet set(primary, shards);
    constexpr unsigned kActors = 192;
    constexpr int kChain = 400;
    // `hop` stays alive through set.run() via this strong local ref;
    // the closures hold it weakly so the recursion isn't a self-cycle.
    auto hop = std::make_shared<std::function<void(unsigned, int)>>();
    std::weak_ptr<std::function<void(unsigned, int)>> weak_hop = hop;
    *hop = [&set, weak_hop](unsigned actor, int n) {
        u64 acc = actor;
        for (int k = 0; k < 96; k++)
            acc = sim::mixKey(acc, u64(n) + u64(k));
        g_storm_sink = acc;
        if (n <= 0)
            return;
        auto recur = [weak_hop, actor, n](unsigned next_actor) {
            return [weak_hop, next_actor, n] {
                if (auto h = weak_hop.lock())
                    (*h)(next_actor, n - 1);
            };
        };
        if (n % 16 == 0)
            sim::crossPost(set.engineFor(actor + 1), Duration::micros(2),
                           recur(actor + 1));
        else
            sim::Engine::current()->after(Duration::nanos(700),
                                          recur(actor));
    };
    for (unsigned a = 0; a < kActors; a++)
        set.postAt(set.engineFor(a),
                   TimePoint(Duration::micros(1 + a % 7).ns()),
                   [weak_hop, a] {
                       if (auto h = weak_hop.lock())
                           (*h)(a, kChain);
                   });
    set.run();
    if (wall) {
        const trace::WallProfiler &wp = set.wallprof();
        wall->attribution = wp.attributedFraction();
        wall->efficiency = wp.parallelEfficiency();
        wall->barrier_wait_frac = wp.barrierWaitFraction();
        wall->imbalance = wp.imbalanceRatio();
        wall->mailbox_lag_p99_ns =
            double(wp.mailboxLagWall().quantile(0.99));
    }
    return set.eventsRun();
}

void
BM_ShardStormEvents(benchmark::State &state)
{
    u64 events = 0;
    for (auto _ : state)
        events += runShardStorm(unsigned(state.range(0)));
    state.SetItemsProcessed(i64(events));
}

/**
 * The --json sweep: best-of-5 wall_events_per_sec at each shard count
 * plus the 4-shard speedup row the CI scaling gate compares against
 * BENCH_engine.json.
 */
int
runShardSweep(mirage::bench::JsonReport &json)
{
    // The speedup row only means anything relative to the machine it
    // ran on; record the core count next to it so a reader (or the CI
    // override) can tell "no speedup" from "no cores".
    long cores = sysconf(_SC_NPROCESSORS_ONLN);
    json.add("engine/storm", "runner_cores",
             double(cores > 0 ? cores : 1), "cores");
    double base = 0;
    for (unsigned s : {1u, 2u, 4u, 8u}) {
        double best = 0;
        u64 events = 0;
        StormWallStats wall, best_wall;
        for (int rep = 0; rep < 5; rep++) {
            auto t0 = std::chrono::steady_clock::now();
            events = runShardStorm(s, &wall);
            double secs =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            if (secs > 0 && double(events) / secs > best) {
                best = double(events) / secs;
                best_wall = wall;
            }
        }
        std::string name = strprintf("engine/storm/shards=%u", s);
        json.add(name, "wall_events_per_sec", best, "events/s");
        json.add(name, "events_run", double(events), "events");
        if (s == 1)
            base = best;
        if (s == 4 && base > 0)
            json.add(name, "speedup_vs_1shard", best / base, "x");
        if (s > 1) {
            // Wall rows from the best rep: efficiency and attribution
            // are higher-is-better, the rest lower-is-better (the
            // bench-diff direction heuristics key off these suffixes).
            json.add(name, "efficiency", best_wall.efficiency, "frac");
            json.add(name, "wall_attribution_ratio",
                     best_wall.attribution, "frac");
            json.add(name, "barrier_wait_frac",
                     best_wall.barrier_wait_frac, "frac");
            json.add(name, "imbalance", best_wall.imbalance, "x");
            json.add(name, "mailbox_lag_p99_ns",
                     best_wall.mailbox_lag_p99_ns, "ns");
        }
        std::printf("%-24s %14.0f events/s   (%llu events)"
                    "  eff=%.2f attr=%.2f\n",
                    name.c_str(), best, (unsigned long long)events,
                    best_wall.efficiency, best_wall.attribution);
    }
    return 0;
}

} // namespace

BENCHMARK(BM_CstructBe32RoundTrip);
BENCHMARK(BM_CstructSubSlice);
BENCHMARK(BM_InternetChecksum)->Arg(64)->Arg(1460);
BENCHMARK(BM_SharedRingRoundTrip);
BENCHMARK(BM_EngineScheduleDispatch);
BENCHMARK(BM_EngineScheduleDispatchDeep);
BENCHMARK(BM_EngineScheduleCancel);
BENCHMARK(BM_EngineNearOverFarBacklog);
BENCHMARK(BM_GrantPoolAcquire);
BENCHMARK(BM_CheckerDomainTeardown)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TcpHeaderBuildParse);
BENCHMARK(BM_DnsQueryFullPath);
BENCHMARK(BM_DnsQueryMemoHit);
BENCHMARK(BM_BTreeInsert);
BENCHMARK(BM_BTreeLookup);
BENCHMARK(BM_ShardStormEvents)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// With --json=<path> the binary runs the sharded-engine scaling sweep
// and emits machine-readable rows for the CI gate; without it the full
// google-benchmark suite runs interactively.
int
main(int argc, char **argv)
{
    mirage::bench::JsonReport json(argc, argv);
    if (json.enabled())
        return runShardSweep(json);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
