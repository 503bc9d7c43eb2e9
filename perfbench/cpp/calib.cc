#include "calib.h"

#include <cstdint>
#include <ctime>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

struct Timer
{
    std::uint64_t when;
    std::uint32_t id;
    bool operator>(const Timer &o) const
    {
        return when != o.when ? when > o.when : id > o.id;
    }
};

double
threadCpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) / 1e9;
}

} // namespace

double
referenceLoopS()
{
    constexpr std::uint32_t kTimers = 512;
    constexpr std::size_t kLive = 2048;
    constexpr int kSteps = 3000;
    double t0 = threadCpuS();

    std::uint64_t rng = 88172645463325252ull;
    auto next = [&] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    std::uint64_t sum = 0;
    std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> heap;
    for (std::uint32_t i = 0; i < kTimers; i++)
        heap.push({next() % 100000, i});
    std::unordered_map<std::uint64_t, std::unique_ptr<std::uint64_t[]>> live;
    std::vector<std::uint64_t> keys;
    const std::function<std::uint64_t(std::uint64_t)> handlers[] = {
        [](std::uint64_t x) { return x * 3; },
        [](std::uint64_t x) { return x ^ (x >> 5); },
        [&](std::uint64_t x) { return x + sum; },
    };
    for (int step = 0; step < kSteps; step++) {
        // Fire the earliest timer: allocate a node (replacing a random
        // live one once the set is full), look up three live nodes and
        // pass each to a handler, then re-arm the timer.
        Timer t = heap.top();
        heap.pop();
        std::uint64_t k = next();
        if (keys.size() < kLive) {
            keys.push_back(k);
        } else {
            std::uint64_t &slot = keys[k % kLive];
            live.erase(slot);
            slot = k;
        }
        auto node = std::make_unique<std::uint64_t[]>(8);
        node[0] = k;
        live.emplace(k, std::move(node));
        for (int j = 0; j < 3; j++) {
            auto it = live.find(keys[(next() ^ sum) % keys.size()]);
            sum += handlers[(sum + j) % 3](it->second[0]);
        }
        heap.push({t.when + 1 + next() % 1000, t.id});
    }
    volatile std::uint64_t sink = sum;
    (void)sink;
    return threadCpuS() - t0;
}

} // namespace perfbench
