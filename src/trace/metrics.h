/**
 * @file
 * MetricsRegistry — named counters and log-linear histograms shared by
 * every subsystem (the functor-driven-development idea applied to
 * observability: instrumentation is a library module linked into the
 * appliance, not per-subsystem bookkeeping).
 *
 * The registry is the one store for every counter and histogram the
 * trace library exports (flow stages, boot phases, the fleet hub's
 * per-domain series), so one dump() correlates GC, TCP, ring, block and
 * fleet activity across layers. Some subsystems still keep a `stats_`
 * struct for cheap direct reads and mirror it into named counters.
 * A series is plain or a member of a *labelled family*: a name with one
 * label key, whose members are created on first use per label value.
 *
 * Naming convention: `<subsystem>.<metric>`, lower_snake_case, with
 * byte counts suffixed `_bytes` and durations suffixed `_ns`
 * (e.g. `gc.minor_collections`, `tcp.bytes_sent`, `ring.blkif.req_pushed`).
 */

#ifndef MIRAGE_TRACE_METRICS_H
#define MIRAGE_TRACE_METRICS_H

#include <atomic>
#include <map>
#include <memory>
// mirage-lint: allow(wall-clock-in-sim)
#include <mutex>
#include <string>

#include "base/types.h"
#include "trace/hdr.h"

namespace mirage::trace {

/**
 * A monotonically increasing named value. Increments are relaxed
 * atomics so per-shard simulation workers can share one registry; the
 * total is exact once the shards quiesce (window barriers, run end).
 */
class Counter
{
  public:
    void inc(u64 n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
    u64 value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<u64> value_{0};
};

/** Null-safe increment for optionally-wired counter pointers. */
inline void
bump(Counter *c, u64 n = 1)
{
    if (c)
        c->inc(n);
}

/**
 * Every registered histogram is an HdrHistogram (trace/hdr.h):
 * log-bucketed with 32 linear sub-buckets per octave, exact merge, and
 * p999 tail resolution. Kept under the `Histogram` name because this is
 * the one histogram type the codebase uses — the previous 4-sub-bucket
 * local type lost tail resolution above p99 and could not be merged
 * across shards.
 */
using Histogram = HdrHistogram;

/** Null-safe record for optionally-wired histogram pointers. */
inline void
observe(Histogram *h, u64 v)
{
    if (h)
        h->record(v);
}

class MetricsRegistry
{
  public:
    /**
     * Find-or-create; references stay valid for the registry's life.
     * With a @p key, the series is member @p value of the family
     * @p name (`histogram("boot.phase_ns", "phase", "build")`); a name
     * keeps the label key it was first created with.
     */
    Counter &counter(const std::string &name, const std::string &key = {},
                     const std::string &value = {});
    Histogram &histogram(const std::string &name,
                         const std::string &key = {},
                         const std::string &value = {});

    /** Lookup without creating; nullptr when absent. @p value names a
     *  family member. */
    const Counter *findCounter(const std::string &name,
                               const std::string &value = {}) const;
    const Histogram *findHistogram(const std::string &name,
                                   const std::string &value = {}) const;

    /** A histogram family's members by label value. */
    std::map<std::string, const Histogram *>
    histogramFamily(const std::string &name) const;

    std::size_t counterCount() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return counters_.size();
    }

    /**
     * Text dump, one `name value` / `name summary` line per series
     * (`name{key="value"}` in a family), sorted by name (the hook
     * examples and benches print).
     */
    std::string dump() const;

    /**
     * Prometheus text exposition (format 0.0.4): one TYPE line per
     * name, then one sample (counter) or promHistogram() series per
     * member. Metric names are sanitised to [a-zA-Z0-9_:].
     */
    std::string toPrometheus() const;

  private:
    /** A name's series by label value; a plain series is the member ""
     *  of a family with an empty key. */
    template <class T> struct Family
    {
        std::string key;
        std::map<std::string, std::unique_ptr<T>> members;
    };

    // Guards the maps only; Counter/Histogram are internally
    // thread-safe and references stay valid without the lock.
    mutable std::mutex mu_;
    std::map<std::string, Family<Counter>> counters_;
    std::map<std::string, Family<Histogram>> histograms_;
};

// ---- The one Prometheus text writer ----------------------------------------

/** `key="value"`, the value's backslash, quote and newline escaped;
 *  empty when @p key is. */
std::string promLabel(const std::string &key, const std::string &value);

void promType(std::string &out, const std::string &name, const char *type);

/** `name{labels} value` (`name value` without labels). */
void promSample(std::string &out, const std::string &name,
                const std::string &labels, const std::string &value);

/** Cumulative `_bucket` lines (labels plus `le`) for the buckets that
 *  change the count, `le="+Inf"`, then `_sum` and `_count`. */
void promHistogram(std::string &out, const std::string &name,
                   const std::string &labels, const Histogram &h);

} // namespace mirage::trace

#endif // MIRAGE_TRACE_METRICS_H
