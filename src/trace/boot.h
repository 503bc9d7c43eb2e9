/**
 * @file
 * BootTracker — phase-attributed cold-boot tracing (the Jitsu
 * prerequisite: before a fleet can gate on "p99 latency including cold
 * boots", a cold boot must decompose into actionable parts).
 *
 * One *boot* is the interval from the toolstack accepting a BootSpec to
 * the domain serving its first request. The bring-up path reports named
 * phases against it:
 *
 *   toolstack       dispatch / queueing in the builder
 *   build           hypervisor domain construction
 *   layout          start-of-day page-table construction (PVBoot)
 *   page_setup      slab / I/O page pool / extent reservation
 *   device_connect  netif + blkif ring, grant and evtchn handshakes
 *   stack_up        network stack bring-up to service-ready
 *   first_request   service-ready to the first completed request
 *
 * (Linux-model guests report coarser phases: kernel_boot, services,
 * app_start.) Each phase lands as a nested trace span under the boot's
 * async id — Perfetto shows every boot as one bar decomposed into
 * phases — and as a `boot.<phase>_ns` histogram, so a fleet's cold-boot
 * p99 splits by phase. Structural code that runs in zero virtual time
 * (the PVBoot constructor, driver connects) annotates the *current*
 * boot with operation counts instead, via the ambient id.
 *
 * The attribution invariant mirrors the profiler's: the recorded phases
 * of a finished boot must sum to >= 95 % of its total; the boot benches
 * gate on it.
 */

#ifndef MIRAGE_TRACE_BOOT_H
#define MIRAGE_TRACE_BOOT_H

#include <atomic>
#include <deque>
#include <map>
// mirage-lint: allow(wall-clock-in-sim)
#include <mutex>
#include <string>
#include <vector>

#include "base/time.h"
#include "base/types.h"
#include "trace/hdr.h"

namespace mirage::trace {

class TraceRecorder;
class MetricsRegistry;

/** Identifies one tracked boot; 0 means "no boot". */
using BootId = u64;

class BootTracker
{
  public:
    struct Phase
    {
        std::string name;
        i64 start_ns = 0;
        i64 dur_ns = 0;
        u64 ops = 0; //!< structural op count (PT updates, grants, …)
    };

    struct Record
    {
        BootId id = 0;
        std::string domain;
        i64 submit_ns = 0;
        i64 ready_ns = -1;         //!< service-ready (boot "done")
        i64 first_request_ns = -1; //!< first completed request
        bool done = false;
        std::vector<Phase> phases;

        i64
        totalNs() const
        {
            return (ready_ns >= 0 ? ready_ns : submit_ns) - submit_ns;
        }
    };

    void enable(bool on = true) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Sinks for phase spans and `boot.<phase>_ns` histograms. */
    void attach(TraceRecorder *tracer, MetricsRegistry *metrics)
    {
        tracer_ = tracer;
        metrics_ = metrics;
    }

    // ---- Boot lifecycle ---------------------------------------------
    /**
     * Open a boot for @p domain, submitted at @p ts, and make it
     * current. Returns 0 while disabled.
     */
    BootId begin(const std::string &domain, TimePoint ts);

    /**
     * Record phase [@p start, @p end) of boot @p id. Phases may be
     * reported out of order and for future timestamps (the toolstack
     * knows its cost schedule up front); spans nest under the boot's
     * async id.
     */
    void phase(BootId id, const char *name, TimePoint start,
               TimePoint end, u64 ops = 0);

    /** Attach @p ops structural operations to @p name of boot @p id
     *  (creating a zero-duration phase entry when absent). */
    void notePhaseOps(BootId id, const char *name, u64 ops);

    /**
     * The domain is service-ready at @p ts: closes the boot span,
     * records `boot.total_ns` and the per-phase histograms. The record
     * stays addressable until firstRequest() or eviction.
     */
    void ready(BootId id, TimePoint ts);

    /**
     * The named domain completed its first request at @p ts: records
     * the trailing `first_request` phase and `boot.first_request_ns`
     * (submit -> first response). No-op when the domain has no open
     * boot record — instant provisioning paths never see it.
     */
    void firstRequest(const std::string &domain, TimePoint ts);

    // ---- Ambient propagation ----------------------------------------
    /** The boot whose bring-up code is currently executing
     *  (thread-local: one per shard worker). */
    BootId current() const { return current_tls_; }
    void setCurrent(BootId id) { current_tls_ = id; }

    // ---- Introspection (lock-free) ----------------------------------
    u64 started() const { return started_.load(std::memory_order_relaxed); }
    u64 completedBoots() const
    {
        return completed_.load(std::memory_order_relaxed);
    }

    /** Boot-record history retained before eviction (default 256). */
    void setCapacity(std::size_t n)
    {
        std::lock_guard<std::mutex> lk(mu_);
        capacity_ = n;
    }

    const Record *find(BootId id) const;
    /** The open (ready but first-request pending) boot of @p domain. */
    const Record *findOpen(const std::string &domain) const;

    /** Completed + in-flight boots, oldest first (bounded history). */
    const std::deque<Record> &records() const { return records_; }

    /** Merged per-phase histograms (fleet rollup source). */
    const std::map<std::string, HdrHistogram> &phaseHistograms() const
    {
        return phase_hist_;
    }
    /** Copy of the per-phase histograms, safe against concurrent
     *  boots (the hub renders while other shards bring domains up). */
    std::map<std::string, HdrHistogram> phaseHistogramsSnapshot() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return phase_hist_;
    }
    const HdrHistogram &totalHistogram() const { return total_hist_; }
    const HdrHistogram &firstRequestHistogram() const
    {
        return first_request_hist_;
    }

    /**
     * JSON array of recorded boots (newest first): domain, submit,
     * total, first_request and per-phase durations + op counts. The
     * `/fleet` endpoint embeds it.
     */
    std::string json() const;

  private:
    Record *findMutable(BootId id);
    u32 bootTrack(const std::string &domain);

    bool enabled_ = false;
    TraceRecorder *tracer_ = nullptr;
    MetricsRegistry *metrics_ = nullptr;
    BootId next_id_ = 1;
    std::atomic<u64> started_{0};
    std::atomic<u64> completed_{0};
    // Guards records_/open_by_domain_/phase_hist_/next_id_; toolstack
    // boots land on every shard.
    mutable std::mutex mu_;
    std::deque<Record> records_;
    std::size_t capacity_ = 256;
    std::map<std::string, BootId> open_by_domain_;
    std::map<std::string, HdrHistogram> phase_hist_;
    HdrHistogram total_hist_;
    HdrHistogram first_request_hist_;

    static inline thread_local BootId current_tls_ = 0;
};

/** RAII save/restore of the ambient boot id (mirrors FlowScope). */
class BootScope
{
  public:
    BootScope(BootTracker *t, BootId id) : t_(t)
    {
        if (t_) {
            saved_ = t_->current();
            t_->setCurrent(id);
        }
    }
    ~BootScope()
    {
        if (t_)
            t_->setCurrent(saved_);
    }
    BootScope(const BootScope &) = delete;
    BootScope &operator=(const BootScope &) = delete;

  private:
    BootTracker *t_;
    BootId saved_ = 0;
};

} // namespace mirage::trace

#endif // MIRAGE_TRACE_BOOT_H
