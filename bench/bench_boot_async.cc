/**
 * @file
 * Figure 6 — VM startup time with the parallel (asynchronous)
 * toolstack, isolating guest initialisation from domain building.
 * Paper: Mirage boots in under 50 ms; Linux PV grows with memory.
 */

#include <cstdio>

#include "bench_json.h"
#include "core/cloud.h"

using namespace mirage;

int
main(int argc, char **argv)
{
    bench::JsonReport json(argc, argv);
    std::printf("# Figure 6: VM startup time, parallel toolstack\n");
    std::printf("# paper: Mirage < 50 ms across the sweep\n");
    std::printf("%-10s %14s %14s\n", "mem_MiB", "mirage_s",
                "linux_pv_s");
    for (std::size_t mem : {64, 128, 256, 512, 1024, 2048}) {
        Duration mirage = xen::Toolstack::guestInitCost(
            xen::GuestKind::Unikernel, mem);
        Duration linux_pv = xen::Toolstack::guestInitCost(
            xen::GuestKind::LinuxMinimal, mem);
        std::printf("%-10zu %14.3f %14.3f\n", mem,
                    mirage.toSecondsF(), linux_pv.toSecondsF());
        json.add(strprintf("boot_async/mirage/%zu", mem), "guest_init",
                 mirage.toSecondsF() * 1e3, "ms");
        json.add(strprintf("boot_async/linux-pv/%zu", mem),
                 "guest_init", linux_pv.toSecondsF() * 1e3, "ms");
    }

    // And measured end-to-end through the toolstack for one size,
    // with the per-phase breakdown and the 95 % attribution gate.
    sim::Engine engine;
    xen::Hypervisor hv(engine);
    xen::Toolstack ts(hv, xen::Toolstack::Mode::Parallel);
    Duration init;
    xen::BootBreakdown breakdown;
    ts.boot({"uk", xen::GuestKind::Unikernel, 128, 1, nullptr, {}},
            [&](xen::Domain &, xen::BootBreakdown b) {
                init = b.guestInit;
                breakdown = std::move(b);
            });
    engine.run();
    std::printf("\nmeasured Mirage startup at 128 MiB: %.1f ms %s\n",
                init.toSecondsF() * 1e3,
                init < Duration::millis(50) ? "(< 50 ms, as in the "
                                              "paper)"
                                            : "(!! exceeds 50 ms)");
    json.add("boot_async/mirage/measured_128", "guest_init",
             init.toSecondsF() * 1e3, "ms");
    std::printf("phase breakdown:\n");
    for (const auto &[phase, dur] : breakdown.phases) {
        std::printf("  %-16s %8.2f ms\n", phase,
                    dur.toSecondsF() * 1e3);
        json.add(strprintf("boot_async/mirage/128MiB/%s", phase),
                 "boot_phase", dur.toSecondsF() * 1e3, "ms");
    }
    if (breakdown.phaseSum().ns() * 100 <
        breakdown.total().ns() * 95) {
        std::fprintf(stderr,
                     "!! phase attribution below 95%%: %lld of %lld "
                     "ns\n",
                     (long long)breakdown.phaseSum().ns(),
                     (long long)breakdown.total().ns());
        return 1;
    }
    std::printf("phases sum to >= 95%% of total boot time\n");
    return 0;
}
