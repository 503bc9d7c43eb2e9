/**
 * @file
 * Figure 5 — domain boot time vs memory size, synchronous toolstack.
 * Series: Linux PV + Apache, Linux PV (minimal), Mirage. Time is from
 * boot request to first UDP packet (service ready).
 *
 * Also gates the boot-phase attribution invariant: the named phases of
 * every breakdown must sum to >= 95 % of the total boot time (they sum
 * exactly, by construction — the gate catches a phase being dropped),
 * and the per-phase durations land in the --json output for bench-diff.
 */

#include <cstdio>

#include "bench_json.h"
#include "core/cloud.h"

using namespace mirage;

namespace {

int attribution_failures = 0;

xen::BootBreakdown
bootOnce(xen::GuestKind kind, std::size_t memory_mib)
{
    sim::Engine engine;
    xen::Hypervisor hv(engine);
    xen::Toolstack ts(hv, xen::Toolstack::Mode::Synchronous);
    xen::BootBreakdown breakdown;
    ts.boot({"guest", kind, memory_mib, 1, nullptr, {}},
            [&](xen::Domain &, xen::BootBreakdown b) {
                breakdown = std::move(b);
            });
    engine.run();
    if (breakdown.phaseSum().ns() * 100 < breakdown.total().ns() * 95) {
        std::fprintf(stderr,
                     "!! phase attribution below 95%%: %lld of %lld ns "
                     "(kind %d, %zu MiB)\n",
                     (long long)breakdown.phaseSum().ns(),
                     (long long)breakdown.total().ns(), int(kind),
                     memory_mib);
        attribution_failures++;
    }
    return breakdown;
}

const char *
kindLabel(xen::GuestKind kind)
{
    switch (kind) {
      case xen::GuestKind::Unikernel: return "mirage";
      case xen::GuestKind::LinuxMinimal: return "linux_pv";
      case xen::GuestKind::LinuxDebianApache: return "linux_apache";
    }
    return "?";
}

void
reportPhases(bench::JsonReport &json, xen::GuestKind kind,
             std::size_t mem, const xen::BootBreakdown &b)
{
    for (const auto &[phase, dur] : b.phases)
        json.add(strprintf("boot_phase/%s/%zuMiB/%s", kindLabel(kind),
                           mem, phase),
                 "boot_phase", dur.toSecondsF() * 1e3, "ms");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReport json(argc, argv);
    std::printf("# Figure 5: domain boot time vs memory size "
                "(synchronous toolstack)\n");
    std::printf("# paper: Mirage matches minimal Linux PV, boots in "
                "under half the Debian+Apache time;\n");
    std::printf("# builder share of Mirage boot grows to ~60%% at "
                "3072 MiB\n");
    std::printf("%-10s %14s %14s %14s %16s\n", "mem_MiB",
                "linux_apache_s", "linux_pv_s", "mirage_s",
                "mirage_build_pct");
    for (std::size_t mem :
         {8, 16, 32, 64, 128, 256, 512, 1024, 2048, 3072}) {
        xen::BootBreakdown ba =
            bootOnce(xen::GuestKind::LinuxDebianApache, mem);
        xen::BootBreakdown bl =
            bootOnce(xen::GuestKind::LinuxMinimal, mem);
        xen::BootBreakdown bm = bootOnce(xen::GuestKind::Unikernel, mem);
        double apache = ba.total().toSecondsF();
        double linux_pv = bl.total().toSecondsF();
        double mirage = bm.total().toSecondsF();
        Duration build = xen::Toolstack::buildCost(mem);
        double build_pct = 100.0 * build.toSecondsF() / mirage;
        std::printf("%-10zu %14.3f %14.3f %14.3f %15.1f%%\n", mem,
                    apache, linux_pv, mirage, build_pct);
        json.add(strprintf("boot_time/linux_apache/%zuMiB", mem),
                 "boot_time", apache, "s");
        json.add(strprintf("boot_time/linux_pv/%zuMiB", mem),
                 "boot_time", linux_pv, "s");
        json.add(strprintf("boot_time/mirage/%zuMiB", mem),
                 "boot_time", mirage, "s");
        // Phase rows at one representative size per kind keep the
        // bench-diff baseline compact.
        if (mem == 128) {
            reportPhases(json, xen::GuestKind::LinuxDebianApache, mem,
                         ba);
            reportPhases(json, xen::GuestKind::LinuxMinimal, mem, bl);
            reportPhases(json, xen::GuestKind::Unikernel, mem, bm);
        }
    }
    if (attribution_failures) {
        std::fprintf(stderr,
                     "boot_time: %d boots under 95%% attribution\n",
                     attribution_failures);
        return 1;
    }
    std::printf("\nall boots: phases sum to >= 95%% of total\n");
    return 0;
}
