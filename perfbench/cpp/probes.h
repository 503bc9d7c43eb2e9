/**
 * @file
 * Probes: host-time measurements of one public operation of a layer,
 * called from outside at the size a workload reached (its queue depth,
 * active grants, pool occupancy, domains x grants). Each returns the
 * median over several rounds of nanoseconds per operation.
 */

#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <cstddef>

#include "base/types.h"

namespace perfbench {

/** sim::Engine::at plus step() with @p depth events pending. */
double probeSchedDispatchNs(std::size_t depth, mirage::u64 seed);

/** GrantTable grant/map/unmap/end cycle with @p active grants live. */
double probeGrantMapUnmapNs(std::size_t active);

/** GrantPool::acquirePage with @p held pooled pages still borrowed. */
double probeGrantPoolAcquireNs(std::size_t held);

/** Checker::domainTeardown with @p domains x @p grants shadow state. */
double probeCheckerTeardownNs(std::size_t domains, std::size_t grants);

/** HdrHistogram::record, alone or from @p threads threads at once. */
double probeHdrRecordNs(unsigned threads);

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
