#include "inputs.h"

#include <algorithm>
#include <stdexcept>

#include "base/logging.h"
#include "base/rand.h"

namespace perfbench {

namespace {

// Full-size parameters. The storm uses fewer appliances than the
// 1000-domain fleet so that several iterations fit in one timed run;
// at this size the per-event host cost already grows with fleet size.
constexpr u32 kStormDomains = 400;
constexpr u32 kBulkWindowMs = 400;
constexpr u32 kWebWindowMs = 400;

constexpr u32 kTinyStormDomains = 12;
constexpr u32 kTinyBulkWindowMs = 20;
constexpr u32 kTinyWebWindowMs = 20;

constexpr u32 kWebPaths = 16;
constexpr u32 kWebSequence = 4096;

/** Fisher-Yates with the benchmark's own generator. */
void
shuffle(std::vector<u32> &v, mirage::Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; i--)
        std::swap(v[i - 1], v[rng.below(i)]);
}

std::string
randomPath(mirage::Rng &rng, const char *prefix)
{
    return mirage::strprintf("/%s/%08llx", prefix,
                             (unsigned long long)(rng.next() >> 32));
}

void
mix(u64 &h, u64 v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
}

void
mix(u64 &h, const std::string &s)
{
    for (char c : s)
        mix(h, u64(static_cast<unsigned char>(c)));
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"fleet_storm",
                                                   "bulk_tcp", "web_conns"};
    return names;
}

Inputs
generate(const std::string &workload, u64 seed, Scale scale)
{
    Inputs in;
    in.workload = workload;
    in.seed = seed;
    in.scale = scale;
    bool tiny = scale == Scale::Tiny;
    // One stream per workload, so adding a draw to one generator never
    // shifts another's inputs.
    u64 stream = seed;
    mix(stream, workload);
    mirage::Rng rng(stream);
    if (workload == "fleet_storm") {
        StormInputs &s = in.storm;
        u32 n = tiny ? kTinyStormDomains : kStormDomains;
        s.order.resize(n);
        for (u32 i = 0; i < n; i++) {
            s.order[i] = i;
            // 14-18 MiB: build and init costs scale with memory, so the
            // spread moves boot latency a little without changing the
            // fleet's shape.
            s.memoryMib.push_back(u32(rng.range(14, 18)));
            s.path.push_back(randomPath(rng, "probe"));
        }
        shuffle(s.order, rng);
    } else if (workload == "bulk_tcp") {
        BulkInputs &b = in.bulk;
        b.windowMs = tiny ? kTinyBulkWindowMs : kBulkWindowMs;
        for (u32 i = 0; i < b.flows; i++)
            b.startUs.push_back(u32(rng.below(500)));
    } else if (workload == "web_conns") {
        WebInputs &w = in.web;
        if (tiny) {
            w.servers = 2;
            w.connsPerServer = 8;
        }
        w.windowMs = tiny ? kTinyWebWindowMs : kWebWindowMs;
        for (u32 i = 0; i < kWebPaths; i++)
            w.paths.push_back(randomPath(rng, "www"));
        // Target order: each block of `servers` requests visits every
        // server once in a seeded order, so the load stays balanced.
        std::vector<u32> block(w.servers);
        for (u32 i = 0; i < w.servers; i++)
            block[i] = i;
        while (w.target.size() < kWebSequence) {
            shuffle(block, rng);
            w.target.insert(w.target.end(), block.begin(), block.end());
        }
        for (std::size_t i = 0; i < w.target.size(); i++)
            w.pathOf.push_back(u32(rng.below(kWebPaths)));
    } else {
        throw std::invalid_argument("unknown workload: " + workload);
    }
    return in;
}

u64
Inputs::fingerprint() const
{
    u64 h = 0;
    mix(h, workload);
    for (u32 v : storm.order)
        mix(h, v);
    for (u32 v : storm.memoryMib)
        mix(h, v);
    for (const auto &p : storm.path)
        mix(h, p);
    for (u32 v : bulk.startUs)
        mix(h, v);
    for (const auto &p : web.paths)
        mix(h, p);
    for (u32 v : web.target)
        mix(h, v);
    for (u32 v : web.pathOf)
        mix(h, v);
    return h;
}

u32
Inputs::domains() const
{
    if (workload == "fleet_storm")
        return u32(storm.order.size()) + 1; // + the probing client
    if (workload == "bulk_tcp")
        return 2;
    return web.servers + 1; // + the httperf client
}

std::string
pageBody(u32 i, u32 bytes)
{
    std::string body(bytes, '\0');
    for (u32 j = 0; j < bytes; j++)
        body[j] = char('a' + (i * 7 + j) % 26);
    return body;
}

std::string
stormBody(const std::string &path)
{
    return "up " + path + "\n";
}

} // namespace perfbench
