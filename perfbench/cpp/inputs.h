/**
 * @file
 * Seeded input generation for the three benchmark workloads. The
 * program under test only ever sees the generated inputs; the seed
 * stays in the benchmark. The same seed always gives the same inputs,
 * and every seed-dependent property (memory sizes, submission order,
 * request paths, flow start offsets, target order) is folded into
 * fingerprint() so a run can confirm that a different seed really
 * changed them.
 */

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <string>
#include <vector>

#include "base/types.h"

namespace perfbench {

using mirage::u32;
using mirage::u64;

/** Full-size runs are the benchmark; Tiny is for the self-tests. */
enum class Scale { Full, Tiny };

/**
 * fleet_storm: N appliances cold-booted through the toolstack, all
 * due at virtual t=0, each probed with one HTTP GET the instant it is
 * ready. Chosen because it is the only workload that runs the core
 * toolstack, pvboot, the hypervisor's domain build and checker
 * teardown, and the one the sharded engine (sim::ShardSet) is built
 * for; its per-event host cost grows with fleet size, so fleet-scale
 * regressions show here first. Open loop: the whole storm is
 * submitted at once.
 */
struct StormInputs
{
    /** Submission order: order[j] is the appliance submitted j-th. */
    std::vector<u32> order;
    /** Per appliance (by index): memory size and probe path. */
    std::vector<u32> memoryMib;
    std::vector<std::string> path;
};

/**
 * bulk_tcp: iperf-style bulk transfer, Mirage sender to Linux
 * receiver, 10 flows over a long virtual window (Fig 8's CI-gated
 * row). Chosen for the per-byte datapath: TSO chains, the drivers
 * GrantPool, hypervisor netback, rings and event channels, and the net
 * TCP data path. Two domains, so toolstack and teardown do almost
 * nothing. Closed loop: each flow is bounded by its TCP window.
 */
struct BulkInputs
{
    u32 flows = 10;
    u32 windowMs = 0;
    u32 chunkBytes = 32 * 1024;
    /** Virtual start offset of each flow, in microseconds. */
    std::vector<u32> startUs;
};

/**
 * web_conns: 6 Mirage unikernels serve a 4 KiB page zero-copy to a
 * closed loop of 64 one-shot connections per server (Fig 13's Mirage
 * configuration, 384 in flight). Chosen because it uses the net stack
 * differently from bulk_tcp — handshake and FIN churn with small
 * frames, no bulk — and exercises protocols/http plus the per-request
 * trace work (flows, SLO scoring, the telemetry hub).
 */
struct WebInputs
{
    u32 servers = 6;
    u32 connsPerServer = 64;
    u32 windowMs = 0;
    u32 pageBytes = 4096;
    /** Site paths; page i's body is pageBody(i). */
    std::vector<std::string> paths;
    /** The closed loop's request sequence (cycled): server, path. */
    std::vector<u32> target;
    std::vector<u32> pathOf;
};

struct Inputs
{
    std::string workload;
    u64 seed = 0;
    Scale scale = Scale::Full;
    StormInputs storm;
    BulkInputs bulk;
    WebInputs web;

    /** Hash over every generated value (not the seed itself). */
    u64 fingerprint() const;
    /** Domains the workload provisions (guests, clients included). */
    u32 domains() const;
};

/** Every workload perfbench runs. */
const std::vector<std::string> &workloadNames();

/** Build the inputs for @p workload from @p seed. */
Inputs generate(const std::string &workload, u64 seed, Scale scale);

/** Body of web page @p i: deterministic bytes, distinct per page. */
std::string pageBody(u32 i, u32 bytes);

/** Body an appliance of the storm answers its probe with. */
std::string stormBody(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
