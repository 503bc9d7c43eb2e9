/**
 * @file
 * Host-speed calibration. On a shared host each vCPU runs slower
 * whenever something else is busy on the same physical core, by up to
 * 2x, independently on each vCPU and for seconds to minutes at a time.
 * The timed run measures that speed with a reference loop and states
 * host times at a fixed one (see timed() in main.cc).
 */

#ifndef PERFBENCH_CALIB_H
#define PERFBENCH_CALIB_H

namespace perfbench {

/**
 * One pass of the reference loop; returns the thread CPU seconds it
 * took. The loop is fixed and uses no code from src/: a timer heap,
 * hash-map churn over a cache-resident live set, small allocations
 * and indirect calls, the same kinds of work the simulator's event
 * loop does. A pass takes about a millisecond, as long as a slice of
 * an iteration (Iteration::slicesS).
 */
double referenceLoopS();

/** The reference speed: the CPU seconds one pass takes at it. */
constexpr double kReferenceLoopS = 0.001;

} // namespace perfbench

#endif // PERFBENCH_CALIB_H
