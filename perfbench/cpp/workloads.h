/**
 * @file
 * One iteration of a workload: build a Cloud, provision the workload
 * (set-up), run() it to quiescence, read its results and layer
 * counters from outside, check it, and tear it down. Host time is
 * taken around each of those calls; virtual results come from the
 * simulation and are bit-exact for a given seed.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <map>
#include <string>
#include <vector>

#include "inputs.h"
#include "spans.h"

namespace perfbench {

/** How one iteration is run; the traced run varies these. */
struct Variant
{
    std::string name = "timed";
    u32 shards = 1;
    bool checker = true;   //!< Checker::enable() before provisioning
    bool telemetry = true; //!< flows, profiler, boots, SLO, hub attached
    bool profile = false;  //!< virtual scope tree + wall timeline on
    SpanLog *spans = nullptr;
    /** Where the profiled variant writes its folded stacks and wall
     *  timeline; empty writes nothing. */
    std::string outPrefix;
};

/** Virtual-clock results: identical for the same inputs, any host. */
struct Virtual
{
    std::vector<i64> latencyNs; //!< sorted, one per completed operation
    i64 elapsedNs = 0;          //!< last completion: the rates' base
    u64 payloadBytes = 0;       //!< useful payload delivered
    u64 connsCompleted = 0;
    u64 events = 0;
    u64 checksum = 0; //!< ShardSet::dispatchChecksum()

    double quantileMs(double q) const;
    double goodputMbps() const;
    double connsPerSecond() const;
    /** First difference from @p o, "" when equal. */
    std::string diff(const Virtual &o) const;
};

struct Iteration
{
    double setupS = 0;    //!< Cloud construction + provisioning
    double runS = 0;      //!< Cloud::run()
    double teardownS = 0; //!< domain shutdown + destruction
    double wallS() const { return setupS + runS + teardownS; }
    double cpuS = 0; //!< process CPU time over the same interval
    /** Thread CPU seconds of each slice of the iteration, in order:
     *  set-up, run() in slices of kSliceEvents events, the guests'
     *  shutdown in groups of kSliceGuests, Cloud destruction. A
     *  slice does the same work in every iteration of one seed, so
     *  slices can be compared across iterations. Only 1-shard
     *  iterations are sliced; others leave this empty. */
    std::vector<double> slicesS;

    Virtual virt;
    u64 attempted = 0; //!< storm probes, bulk flows or web connections
    u64 failed = 0;    //!< of those, failed or refused
    /** Correctness failures (wrong body, lost bytes, leaks, ...). */
    std::vector<std::string> errors;
    /** Raw layer readings taken before teardown (see readLayers). */
    std::map<std::string, double> layer;
};

/** Events per slice of run() (see Iteration::slicesS). */
constexpr u32 kSliceEvents = 1000;
/** Guests shut down per slice of the teardown. */
constexpr std::size_t kSliceGuests = 5;

/** Run one iteration of @p in under @p v. */
Iteration runIteration(const Inputs &in, const Variant &v);

/** Set-up alone (Cloud construction + provisioning, checker on),
 *  then teardown without running; returns the set-up's thread CPU
 *  seconds. */
double setupOnly(const Inputs &in, u32 shards);

/** Host peak resident set, MiB. */
double peakRssMib();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
