/**
 * @file
 * HdrHistogram — the log-bucketed latency histogram shared by the whole
 * observability layer (metrics registry, flow tracker, per-domain GC
 * accounting, the fleet telemetry hub).
 *
 * Shape: power-of-two octaves split into 32 linear sub-buckets each, so
 * relative error is bounded by ~3.1 % over the full u64 range in 1920
 * fixed slots. Values below 32 are exact. This is the classical
 * HdrHistogram layout; the key property over an ad-hoc percentile
 * estimator is that the bucket boundaries are *value-determined*, not
 * population-determined, which makes merge exact:
 *
 *   merge(shard_a, shard_b).quantile(q) ==
 *       record(shard_a ∪ shard_b).quantile(q)
 *
 * for every q — a fleet-wide p99 computed dom0-side from per-appliance
 * histograms equals the p99 of the pooled population. That is what lets
 * the TelemetryHub aggregate thousands of domains without shipping raw
 * samples across the control plane.
 *
 * Header-only: every method is a few lines, and the type is on the hot
 * path of flow finalisation.
 */

#ifndef MIRAGE_TRACE_HDR_H
#define MIRAGE_TRACE_HDR_H

#include <array>
#include <atomic>
#include <bit>
#include <string>

#include "base/logging.h"
#include "base/types.h"

namespace mirage::trace {

class HdrHistogram
{
  public:
    static constexpr u32 subBuckets = 32;
    static constexpr u32 subBucketShift = 5; //!< log2(subBuckets)
    // Exact slots [0, subBuckets) plus one 32-way group per octave
    // subBucketShift..63 inclusive: 32 * 60 = 1920 slots.
    static constexpr std::size_t bucketCount =
        std::size_t(subBuckets) * (64 - subBucketShift + 1);

    HdrHistogram() = default;

    // Buckets are relaxed atomics so per-shard workers can record into
    // shared histograms without locks; totals are exact once the
    // shards quiesce. Copies snapshot the source (readers that want a
    // consistent view copy at a barrier).
    HdrHistogram(const HdrHistogram &o) { copyFrom(o); }
    HdrHistogram &
    operator=(const HdrHistogram &o)
    {
        if (this != &o)
            copyFrom(o);
        return *this;
    }

    void
    record(u64 v)
    {
        buckets_[bucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
        atomicMin(min_, v);
        atomicMax(max_, v);
    }

    /**
     * Fold @p other into this histogram. Exact: buckets are aligned by
     * construction, so the merged quantiles equal the quantiles of the
     * pooled population (up to the shared bucket resolution).
     */
    void
    merge(const HdrHistogram &other)
    {
        for (std::size_t i = 0; i < bucketCount; i++) {
            u64 n = other.buckets_[i].load(std::memory_order_relaxed);
            if (n)
                buckets_[i].fetch_add(n, std::memory_order_relaxed);
        }
        u64 ocount = other.count_.load(std::memory_order_relaxed);
        count_.fetch_add(ocount, std::memory_order_relaxed);
        sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
        if (ocount)
            atomicMin(min_, other.min_.load(std::memory_order_relaxed));
        atomicMax(max_, other.max_.load(std::memory_order_relaxed));
    }

    u64 count() const { return count_.load(std::memory_order_relaxed); }
    u64 sum() const { return sum_.load(std::memory_order_relaxed); }
    u64 min() const
    {
        return count() ? min_.load(std::memory_order_relaxed) : 0;
    }
    u64 max() const { return max_.load(std::memory_order_relaxed); }
    double mean() const { return count() ? double(sum()) / double(count()) : 0; }

    /**
     * Upper bound of the bucket containing quantile @p q in (0, 1] —
     * an over-estimate by at most one sub-bucket width (~3.1 %),
     * clamped to the observed max.
     */
    u64
    quantile(double q) const
    {
        u64 n = count();
        if (n == 0)
            return 0;
        if (q < 0)
            q = 0;
        if (q > 1)
            q = 1;
        u64 rank = u64(q * double(n));
        if (rank >= n)
            rank = n - 1;
        u64 seen = 0;
        u64 mx = max();
        for (std::size_t i = 0; i < bucketCount; i++) {
            seen += buckets_[i].load(std::memory_order_relaxed);
            if (seen > rank)
                return bucketUpperBound(i) < mx ? bucketUpperBound(i)
                                                : mx;
        }
        return mx;
    }

    /** One-line "count=… mean=… p50=… p99=… p999=… max=…" summary. */
    std::string
    summary() const
    {
        return strprintf(
            "count=%llu mean=%.1f p50=%llu p99=%llu p999=%llu max=%llu",
            (unsigned long long)count(), mean(),
            (unsigned long long)quantile(0.50),
            (unsigned long long)quantile(0.99),
            (unsigned long long)quantile(0.999),
            (unsigned long long)max());
    }

    /** `{"count","mean_ns","p50_ns","p99_ns","p999_ns","max_ns"}` — the
     *  one histogram summary every JSON endpoint embeds. */
    std::string
    summaryJson() const
    {
        return strprintf(
            "{\"count\":%llu,\"mean_ns\":%.0f,\"p50_ns\":%llu,"
            "\"p99_ns\":%llu,\"p999_ns\":%llu,\"max_ns\":%llu}",
            (unsigned long long)count(), mean(),
            (unsigned long long)quantile(0.50),
            (unsigned long long)quantile(0.99),
            (unsigned long long)quantile(0.999),
            (unsigned long long)max());
    }

    static std::size_t
    bucketIndex(u64 v)
    {
        if (v < subBuckets)
            return std::size_t(v); // exact for tiny values
        u32 octave = 63u - u32(std::countl_zero(v));
        u64 base = u64(1) << octave;
        u64 sub = (v - base) >> (octave - subBucketShift);
        std::size_t index =
            subBuckets +
            std::size_t(octave - subBucketShift) * subBuckets +
            std::size_t(sub);
        return index < bucketCount ? index : bucketCount - 1;
    }

    static u64
    bucketUpperBound(std::size_t index)
    {
        if (index < subBuckets)
            return u64(index);
        std::size_t rel = index - subBuckets;
        u32 octave = u32(rel / subBuckets) + subBucketShift;
        u64 base = u64(1) << octave;
        u64 sub = u64(rel % subBuckets);
        return base + ((sub + 1) << (octave - subBucketShift)) - 1;
    }

    /** Raw per-bucket counts (for exposition-format export). */
    u64 bucketCountAt(std::size_t index) const
    {
        return buckets_[index].load(std::memory_order_relaxed);
    }

  private:
    static void
    atomicMin(std::atomic<u64> &slot, u64 v)
    {
        u64 cur = slot.load(std::memory_order_relaxed);
        while (v < cur && !slot.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed)) {
        }
    }

    static void
    atomicMax(std::atomic<u64> &slot, u64 v)
    {
        u64 cur = slot.load(std::memory_order_relaxed);
        while (v > cur && !slot.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed)) {
        }
    }

    void
    copyFrom(const HdrHistogram &o)
    {
        for (std::size_t i = 0; i < bucketCount; i++)
            buckets_[i].store(o.buckets_[i].load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
        count_.store(o.count_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
        sum_.store(o.sum_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
        min_.store(o.min_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
        max_.store(o.max_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    }

    std::array<std::atomic<u64>, bucketCount> buckets_{};
    std::atomic<u64> count_{0};
    std::atomic<u64> sum_{0};
    std::atomic<u64> min_{~u64(0)};
    std::atomic<u64> max_{0};
};

} // namespace mirage::trace

#endif // MIRAGE_TRACE_HDR_H
