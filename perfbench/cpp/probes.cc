#include "probes.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "base/rand.h"
#include "check/check.h"
#include "core/cloud.h"
#include "drivers/grant_pool.h"
#include "hypervisor/grant_table.h"
#include "sim/engine.h"
#include "sim/tuning.h"
#include "trace/hdr.h"

namespace perfbench {

using namespace mirage;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kRounds = 5;

double
elapsedNs(Clock::time_point t0)
{
    return double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - t0)
                      .count());
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v.empty() ? 0 : v[v.size() / 2];
}

/** Median over rounds of ns per op; @p round runs @p ops operations. */
template <class F>
double
perOp(u64 ops, F round)
{
    std::vector<double> samples;
    for (int r = 0; r < kRounds; r++) {
        auto t0 = Clock::now();
        round();
        samples.push_back(elapsedNs(t0) / double(ops));
    }
    return median(samples);
}

} // namespace

double
probeSchedDispatchNs(std::size_t depth, u64 seed)
{
    constexpr u64 kOps = 200'000;
    sim::Engine e;
    Rng rng(seed);
    u64 sink = 0;
    for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); i++)
        e.at(TimePoint(i64(1 + rng.below(1'000'000))), [&sink] { sink++; });
    return perOp(kOps, [&] {
        for (u64 i = 0; i < kOps; i++) {
            e.at(e.now() + Duration::nanos(i64(1 + rng.below(1'000'000))),
                 [&sink] { sink++; });
            e.step();
        }
    });
}

double
probeGrantMapUnmapNs(std::size_t active)
{
    constexpr u64 kOps = 100'000;
    // The workloads run with the checker on; so does the probe, since
    // every grant operation also runs the checker's shadow hook.
    sim::Engine engine;
    check::Checker checker(check::Checker::Mode::Count);
    checker.enable();
    engine.setChecker(&checker);
    xen::GrantTable table(1);
    table.bindEngine(&engine);
    Cstruct page = Cstruct::create(4096);
    for (std::size_t i = 0; i < active; i++)
        table.grantAccess(0, page, false);
    return perOp(kOps, [&] {
        for (u64 i = 0; i < kOps; i++) {
            xen::GrantRef ref = table.grantAccess(0, page, false);
            (void)table.mapFor(0, ref, true);
            (void)table.unmapFor(0, ref);
            (void)table.endAccess(ref);
        }
    });
}

double
probeGrantPoolAcquireNs(std::size_t held)
{
    constexpr u64 kOps = 20'000;
    core::Cloud cloud;
    core::Guest &guest =
        cloud.startUnikernel("probe", net::Ipv4Addr(10, 0, 0, 2));
    drivers::GrantPool pool(guest.boot, 0);
    held = std::min<std::size_t>(held, sim::tuning().frontendPoolPages - 1);
    std::vector<Cstruct> borrowed;
    for (std::size_t i = 0; i < held; i++) {
        auto p = pool.acquirePage();
        if (!p.ok())
            break;
        borrowed.push_back(p.value());
    }
    double ns = perOp(kOps, [&] {
        for (u64 i = 0; i < kOps; i++) {
            auto p = pool.acquirePage(); // dropped at once: page frees
            (void)p;
        }
    });
    borrowed.clear();
    pool.drain();
    return ns;
}

double
probeCheckerTeardownNs(std::size_t domains, std::size_t grants)
{
    std::vector<double> samples;
    domains = std::max<std::size_t>(domains, 1);
    for (int r = 0; r < 3; r++) {
        check::Checker ck(check::Checker::Mode::Count);
        ck.enable();
        for (u32 d = 1; d <= domains; d++)
            for (u32 g = 1; g <= grants; g++)
                ck.grantCreated(d, g, 0);
        auto t0 = Clock::now();
        for (u32 d = 1; d <= domains; d++)
            ck.domainTeardown(d);
        samples.push_back(elapsedNs(t0) / double(domains));
    }
    return median(samples);
}

double
probeHdrRecordNs(unsigned threads)
{
    constexpr u64 kOps = 1'000'000;
    threads = std::max(threads, 1u);
    trace::HdrHistogram h;
    return perOp(kOps, [&] {
        std::atomic<bool> go{false};
        std::vector<std::thread> pool;
        auto body = [&h, &go](u64 salt) {
            while (!go.load(std::memory_order_acquire)) {
            }
            u64 x = salt * 0x9e3779b97f4a7c15ull + 1;
            for (u64 i = 0; i < kOps; i++) {
                x ^= x << 13, x ^= x >> 7, x ^= x << 17;
                h.record(x % 10'000'000);
            }
        };
        for (unsigned t = 1; t < threads; t++)
            pool.emplace_back(body, t);
        go.store(true, std::memory_order_release);
        body(0);
        for (auto &t : pool)
            t.join();
    });
}

} // namespace perfbench
