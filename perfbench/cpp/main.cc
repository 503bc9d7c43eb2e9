/**
 * @file
 * The repository benchmark: three workloads (fleet_storm, bulk_tcp,
 * web_conns), each reporting host-clock cost (what the simulator
 * spends) and virtual-clock results (the reproduced figures).
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--scale full|tiny] [--out DIR]
 *
 * --trace 0 is the timed run: whole iterations (set-up, run(),
 * teardown) repeat until S seconds have passed; host time is stated
 * at a fixed host speed (see timed()), the other end-to-end metrics
 * are medians over the iterations. --trace 1 is the traced run: one
 * iteration per variant (plain, traced, checker off, telemetry
 * detached, another shard count, a same-seed repeat) plus the layer
 * probes, reporting the per-layer metrics and checking that virtual
 * results do not depend on any of those variations.
 *
 * The last line of stdout is one JSON object: correct, attempted,
 * failed and metrics. A wrong result exits 1.
 */

#include <algorithm>
#include <chrono>
#include <sched.h>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.h"
#include "calib.h"
#include "inputs.h"
#include "probes.h"
#include "spans.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;
using mirage::strprintf;

namespace {

struct Metric
{
    std::string name;
    const char *unit;
    double value;
};

/** Boot phases the BootTracker reports for a toolstack-booted
 *  unikernel; a workload that boots nothing reports 0 for each. */
const std::vector<std::string> kBootPhases = {
    "toolstack", "build", "page_setup", "layout", "device_connect",
    "stack_up"};

/** Least set-up-only samples per timed run; setup_s is their median. */
constexpr std::size_t kSetupSamples = 51;

struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    int trace = 0;
    Scale scale = Scale::Full;
    std::string out = ".";
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    if (n == 0)
        return 0;
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

unsigned
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

void
printResult(bool correct, u64 attempted, u64 failed,
            const std::vector<Metric> &metrics)
{
    std::string out = strprintf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct ? "true" : "false", (unsigned long long)attempted,
        (unsigned long long)failed);
    for (std::size_t i = 0; i < metrics.size(); i++) {
        double v = metrics[i].value;
        if (!std::isfinite(v)) {
            std::fprintf(stderr, "perfbench: %s is not finite\n",
                         metrics[i].name.c_str());
            v = 0;
        }
        out += strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         i ? ", " : "", metrics[i].name.c_str(), v,
                         metrics[i].unit);
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

void
reportErrors(const Iteration &it, const std::string &variant)
{
    for (const auto &e : it.errors)
        std::fprintf(stderr, "perfbench: %s: INCORRECT: %s\n",
                     variant.c_str(), e.c_str());
}

void
logIteration(const std::string &variant, const Iteration &it)
{
    std::fprintf(stderr,
                 "perfbench: %-14s wall %.3f s cpu %.3f s (setup %.4f run %.3f "
                 "teardown %.3f) events %llu checksum %016llx ops %llu/%llu\n",
                 variant.c_str(), it.wallS(), it.cpuS, it.setupS, it.runS,
                 it.teardownS, (unsigned long long)it.virt.events,
                 (unsigned long long)it.virt.checksum,
                 (unsigned long long)(it.attempted - it.failed),
                 (unsigned long long)it.attempted);
}

/** Reference passes after each timed iteration (calib.h). */
constexpr int kReferencePasses = 60;

/**
 * Sum over slots of each slot's fastest time across iterations:
 * @p runs holds one row per iteration, and slot j is the same work in
 * every row (a slice of the iteration, or the j-th reference pass).
 */
double
fastestSum(const std::vector<std::vector<double>> &runs, const char *what)
{
    std::vector<double> fastest = runs.front();
    for (const std::vector<double> &row : runs) {
        if (row.size() != fastest.size()) {
            std::fprintf(stderr, "perfbench: finding: iterations of one "
                                 "seed have %zu and %zu %s\n",
                         fastest.size(), row.size(), what);
            fastest.resize(std::min(fastest.size(), row.size()));
        }
        for (std::size_t j = 0; j < fastest.size(); j++)
            fastest[j] = std::min(fastest[j], row[j]);
    }
    double sum = 0;
    for (double f : fastest)
        sum += f;
    return sum;
}

/** Pins the calling thread to one allowed CPU after another, and
 *  restores its affinity when destroyed. */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&saved_);
        if (sched_getaffinity(0, sizeof saved_, &saved_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; c++)
            if (CPU_ISSET(c, &saved_))
                cpus_.push_back(c);
    }
    ~CpuRotation()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof saved_, &saved_);
    }
    void
    next()
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t saved_;
    std::vector<int> cpus_;
    std::size_t turn_ = 0;
};

/**
 * The timed run: end-to-end metrics over the timed iterations.
 *
 * Host time is stated at the reference speed (calib.h), in three
 * steps. (1) Each iteration is timed in slices of a millisecond or so
 * of thread CPU time, the same work in every iteration of one seed,
 * and the iteration's cost is the sum over slices of each slice's
 * fastest time: a slice that ran while the core was shared is
 * replaced by one that did not. (2) Iterations rotate over the CPUs
 * the process may use, so the fastest times come from several
 * physical cores, not the one the process happened to start on.
 * (3) When every core stays busy for the whole run, no slice runs at
 * full speed. Reference passes run on the same CPUs after each
 * iteration and are reduced the same way, each pass's fastest time
 * over the iterations; their mean measures the best speed the host
 * gave, and host times (host_s and setup_s) are scaled from it to the
 * reference speed. CPU time leaves out time the host took the vCPU
 * away (steal). The raw figures are printed on a '#' line.
 */
int
timed(const Options &o, const Inputs &in)
{
    Variant v;
    std::size_t min_iters = o.scale == Scale::Tiny ? 2 : 3;
    // One warm-up iteration fills the allocator and caches; it is
    // checked like the others but not timed.
    Iteration warm = runIteration(in, v);
    logIteration("warm-up", warm);
    auto start = std::chrono::steady_clock::now();
    auto spent = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    // Set-up is short, so it gets its own, larger sample: set-ups that
    // are torn down without running, spread over the run so that they
    // see the same host conditions as the iterations.
    std::vector<Iteration> its;
    std::vector<double> wall, setup;
    std::vector<std::vector<double>> slices, refs;
    {
        CpuRotation rotation;
        do {
            rotation.next();
            its.push_back(runIteration(in, v));
            logIteration("timed", its.back());
            wall.push_back(its.back().wallS());
            slices.push_back(its.back().slicesS);
            refs.emplace_back();
            for (int i = 0; i < kReferencePasses; i++)
                refs.back().push_back(referenceLoopS());
            for (int i = 0; i < 4; i++)
                setup.push_back(setupOnly(in, v.shards));
        } while (spent() < o.seconds || its.size() < min_iters);
        while (setup.size() < kSetupSamples)
            setup.push_back(setupOnly(in, v.shards));
    }
    double fastest_ref = fastestSum(refs, "reference passes") /
                         double(kReferencePasses);
    double scale = kReferenceLoopS / fastest_ref;
    double slices_s = fastestSum(slices, "slices");
    its.push_back(std::move(warm));

    bool correct = true;
    u64 attempted = 0, failed = 0;
    std::vector<double> p50, p99, goodput, conns;
    for (const Iteration &it : its) {
        attempted += it.attempted;
        failed += it.failed;
        p50.push_back(it.virt.quantileMs(0.50));
        p99.push_back(it.virt.quantileMs(0.99));
        goodput.push_back(it.virt.goodputMbps());
        conns.push_back(it.virt.connsPerSecond());
        if (!it.errors.empty()) {
            reportErrors(it, "timed");
            correct = false;
        }
        // The same inputs should give the same virtual results; a
        // difference is a determinism finding about the program, which
        // the traced run's invariance checks also report.
        if (std::string d = it.virt.diff(its[0].virt); !d.empty())
            std::fprintf(stderr, "perfbench: finding: iterations of one "
                                 "seed disagree: %s\n",
                         d.c_str());
    }
    if (failed > 0)
        correct = false;
    std::printf("# timed_iterations=%zu setup_samples=%zu "
                "latency_samples=%zu failed_frac=%.6f\n",
                wall.size(), setup.size(), its[0].virt.latencyNs.size(),
                ratio(double(failed), double(attempted)));
    std::vector<double> passes;
    for (const std::vector<double> &row : refs)
        passes.insert(passes.end(), row.begin(), row.end());
    std::printf("# slices=%zu fastest_slices_s=%.6f median_wall_s=%.6f "
                "fastest_reference_s=%.7f median_reference_s=%.7f "
                "median_setup_cpu_s=%.7f scale=%.4f\n",
                its[0].slicesS.size(), slices_s, median(wall), fastest_ref,
                median(passes), median(setup), scale);
    printResult(correct, attempted, failed,
                {{"host_s", "s", slices_s * scale},
                 {"setup_s", "s", median(setup) * scale},
                 {"peak_rss_mib", "MiB", peakRssMib()},
                 {"virt_p50_ms", "ms", median(p50)},
                 {"virt_p99_ms", "ms", median(p99)},
                 {"virt_goodput_mbps", "Mbit/s", median(goodput)},
                 {"virt_conns_per_s", "1/s", median(conns)}});
    return correct ? 0 : 1;
}

/** The traced run: variants, invariance cross-checks, probes. */
int
traced(const Options &o, const Inputs &in, u32 k)
{
    SpanLog spans;
    std::string prefix =
        strprintf("%s/%s-seed%llu", o.out.c_str(), in.workload.c_str(),
                  (unsigned long long)in.seed);
    unsigned contended = std::min(4u, hostThreads());

    Variant plain;
    plain.name = "plain";
    Variant trace = plain;
    trace.name = "traced";
    trace.profile = true;
    trace.spans = &spans;
    trace.outPrefix = prefix;
    Variant no_check = plain;
    no_check.name = "checker_off";
    no_check.checker = false;
    Variant no_telemetry = plain;
    no_telemetry.name = "telemetry_off";
    no_telemetry.telemetry = false;
    // The sharded variant: the sim.shard metrics come from it, and its
    // virtual results are compared with the 1-shard run.
    Variant other_k = plain;
    other_k.shards = k;
    other_k.name = strprintf("shards=%u", k);
    Variant repeat = plain;
    repeat.name = "repeat";

    bool correct = true;
    u64 attempted = 0, failed = 0;
    double violations = 0;
    auto run = [&](const Variant &v) {
        Iteration it = runIteration(in, v);
        logIteration(v.name, it);
        attempted += it.attempted;
        failed += it.failed;
        violations += it.layer["check.violations"];
        if (!it.errors.empty()) {
            reportErrors(it, v.name);
            correct = false;
        }
        return it;
    };
    Iteration P = run(plain);
    Iteration T = run(trace);
    Iteration C = run(no_check);
    Iteration D = run(no_telemetry);
    Iteration K = run(other_k);
    Iteration R = run(repeat);
    if (failed > 0)
        correct = false;

    // Invariance: none of these variations may move a virtual result.
    // A mismatch is a finding about the program; it is reported, not
    // masked, and does not make the run incorrect.
    u64 mismatches = 0;
    auto compare = [&](const char *pair, const Iteration &a,
                       const Iteration &b) {
        std::string d = a.virt.diff(b.virt);
        if (d.empty())
            return;
        mismatches++;
        std::fprintf(stderr, "perfbench: invariance mismatch (%s): %s\n",
                     pair, d.c_str());
    };
    compare(strprintf("%u vs %u shards", plain.shards, other_k.shards).c_str(),
            P, K);
    compare("checker on vs off", P, C);
    compare("telemetry attached vs detached", P, D);
    compare("same seed twice", P, R);
    compare("profiled vs plain", P, T);
    Inputs next = generate(in.workload, in.seed + 1, in.scale);
    if (next.fingerprint() == in.fingerprint()) {
        mismatches++;
        std::fprintf(stderr, "perfbench: invariance mismatch: seed %llu "
                             "and %llu give the same inputs\n",
                     (unsigned long long)in.seed,
                     (unsigned long long)next.seed);
    }

    // Probes, at the sizes the workload reached.
    spans.setVariant("probes");
    double domains = in.domains();
    auto probe = [&](const char *layer, const char *name, auto fn) {
        SpanLog::Scope s(&spans, layer, name);
        return fn();
    };
    double sched_ns = probe("sim", "probe Engine::at+step", [&] {
        return probeSchedDispatchNs(std::size_t(P.layer["sim.pending_at_run"]),
                                    in.seed);
    });
    double grant_ns = probe("hypervisor", "probe GrantTable cycle", [&] {
        return probeGrantMapUnmapNs(
            std::size_t(P.layer["grants.max_active_per_domain"]));
    });
    double pool_ns = probe("drivers", "probe GrantPool::acquirePage", [&] {
        return probeGrantPoolAcquireNs(std::size_t(P.layer["pool.max_pages"]));
    });
    double teardown_ns = probe("check", "probe Checker::domainTeardown", [&] {
        return probeCheckerTeardownNs(
            std::size_t(domains),
            std::size_t(P.layer["grants.active"] / domains + 0.5));
    });
    double hdr_ns = probe("trace", "probe HdrHistogram::record",
                          [&] { return probeHdrRecordNs(1); });
    double hdr_contended_ns =
        probe("trace", "probe HdrHistogram::record (contended)",
              [&] { return probeHdrRecordNs(contended); });

    std::map<std::string, double> &t = T.layer;
    double segments = t["tcp.segments_sent"];
    double ops_done = double(T.virt.latencyNs.size());
    double wall_p = P.wallS();
    std::vector<Metric> m = {
        {"sim.events", "count", double(T.virt.events)},
        {"sim.host_ns_per_event", "ns",
         ratio(P.runS * 1e9, double(P.virt.events))},
        {"sim.engine.sched_dispatch_ns", "ns", sched_ns},
        {"sim.shard.count", "count", double(k)},
        {"sim.shard.efficiency", "frac", K.layer["shard.efficiency"]},
        {"sim.shard.barrier_wait_frac", "frac",
         K.layer["shard.barrier_wait_frac"]},
        {"sim.shard.imbalance", "ratio", K.layer["shard.imbalance"]},
        {"sim.shard.mailbox_lag_p99_ns", "ns",
         K.layer["shard.mailbox_lag_p99_ns"]},
        {"sim.shard.windows", "count", K.layer["shard.windows"]},
        {"sim.shard.cross_posts", "count", K.layer["shard.cross_posts"]},
        {"sim.shard.work_inflation", "ratio",
         k > 1 ? ratio(K.layer["shard.busy_ns"], P.runS * 1e9) : 0},
        {"core.setup_ns_per_domain", "ns", P.setupS * 1e9 / domains},
        {"core.teardown_ns_per_domain", "ns", P.teardownS * 1e9 / domains},
        {"core.rss_kib_per_domain", "KiB", P.layer["rss_growth_kib"] / domains},
        {"check.host_frac", "frac", ratio(wall_p - C.wallS(), wall_p)},
        {"check.domain_teardown_ns", "ns", teardown_ns},
        {"check.violations", "count", violations},
        {"hyp.gnttab_ops_per_pkt", "ratio", ratio(t["gnttab.ops"], segments)},
        {"hyp.notifies_per_pkt", "ratio", ratio(t["notify.sent"], segments)},
        {"hyp.notify_suppressed_frac", "frac",
         ratio(t["notify.suppressed"],
               t["notify.sent"] + t["notify.suppressed"])},
        {"hyp.grant_map_unmap_ns", "ns", grant_ns},
        {"hyp.virt_busy_frac.netback", "frac", t["virt_busy.netback"]},
        {"drivers.grant_reuse_frac", "frac",
         ratio(t["grant.reused"], t["grant.issued"] + t["grant.reused"])},
        {"drivers.netif_rx_stalls", "count", t["netif.rx.stalls"]},
        {"drivers.grant_pool_acquire_ns", "ns", pool_ns},
        {"net.copies_per_byte", "ratio",
         ratio(t["net.tx.copy_bytes"], t["net.tx.bytes"])},
        {"net.retransmit_frac", "frac", ratio(t["tcp.retransmits"], segments)},
        {"net.segments_per_mb", "1/MB",
         ratio(segments, t["tcp.bytes_sent"] / 1e6)},
        {"protocols.http.virt_busy_frac", "frac", t["virt_busy.http"]},
        {"protocols.http.requests", "count", t["http.requests"]},
        {"rt.gc_minor_per_req", "ratio",
         ratio(t["gc.minor_collections"], ops_done)},
        {"rt.gc_major_pause_p99_ns", "ns", t["gc.major_pause_p99_ns"]},
        {"rt.wakeups_per_req", "ratio", ratio(t["rt.wakeups"], ops_done)},
    };
    for (const std::string &phase : kBootPhases)
        m.push_back({"boot." + phase + "_p99_ms", "ms",
                     t["boot." + phase + "_p99_ms"]});
    for (const auto &[key, value] : t)
        if (key.rfind("boot.", 0) == 0 &&
            std::find(kBootPhases.begin(), kBootPhases.end(),
                      key.substr(5, key.size() - 12)) == kBootPhases.end())
            std::fprintf(stderr, "perfbench: undeclared boot phase %s = %g\n",
                         key.c_str(), value);
    double wall_t = T.wallS();
    m.insert(m.end(), {
        {"trace.host_frac", "frac", ratio(wall_p - D.wallS(), wall_p)},
        {"trace.hdr_record_ns", "ns", hdr_ns},
        {"trace.hdr_record_contended_ns", "ns", hdr_contended_ns},
        {"trace.flows_completed", "count", t["flows.completed"]},
        {"loadgen.attempted", "count", double(T.attempted)},
        {"loadgen.completed", "count", double(T.attempted - T.failed)},
        {"bench.trace_overhead_s", "s", wall_t - wall_p},
        {"bench.invariance_mismatches", "count", double(mismatches)},
    });

    std::string meta = strprintf(
        "{\"workload\":\"%s\",\"seed\":%llu,\"nproc\":%u,"
        "\"build_type\":\"%s\",\"shards\":%u}",
        in.workload.c_str(), (unsigned long long)in.seed, hostThreads(),
        PERFBENCH_BUILD_TYPE, k);
    if (auto st = spans.write(prefix + ".spans.json", meta); !st.ok())
        std::fprintf(stderr, "perfbench: %s\n", st.error().message.c_str());
    std::printf("# spans=%s.spans.json profile=%s.folded wall_timeline=%s"
                ".wall.json invariance_mismatches=%llu\n",
                prefix.c_str(), prefix.c_str(), prefix.c_str(),
                (unsigned long long)mismatches);
    printResult(correct, attempted, failed, m);
    return correct ? 0 : 1;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload {fleet_storm|bulk_tcp|web_conns} "
                 "--seed N --seconds S --trace {0|1} [--scale full|tiny] "
                 "[--out DIR]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            o.workload = v;
        else if (k == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            o.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            o.trace = std::atoi(v.c_str());
        else if (k == "--scale" && (v == "full" || v == "tiny"))
            o.scale = v == "tiny" ? Scale::Tiny : Scale::Full;
        else if (k == "--out")
            o.out = v;
        else
            return usage(argv[0]);
    }
    const auto &names = workloadNames();
    if (argc % 2 == 0 ||
        std::find(names.begin(), names.end(), o.workload) == names.end() ||
        (o.trace != 0 && o.trace != 1))
        return usage(argv[0]);

    // Timed runs use 1 shard. With K worker threads on a host that has
    // only K cores, any other load on the host stalls the window
    // barrier, and the storm's wall time then varied by 3x between
    // runs. The traced run adds a K-shard variant: K=4 for the storm,
    // 2 for the others, lowered to the host's thread count.
    u32 k = std::min(o.workload == "fleet_storm" ? 4u : 2u, hostThreads());
    Inputs in = generate(o.workload, o.seed, o.scale);
    std::printf("# perfbench workload=%s seed=%llu scale=%s trace=%d "
                "nproc=%u build_type=%s shards=1 traced_k=%u domains=%u\n",
                o.workload.c_str(), (unsigned long long)o.seed,
                o.scale == Scale::Tiny ? "tiny" : "full", o.trace,
                hostThreads(), PERFBENCH_BUILD_TYPE, k, in.domains());
    return o.trace ? traced(o, in, k) : timed(o, in);
}
