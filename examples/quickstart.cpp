/**
 * @file
 * Quickstart: boot two unikernels on a simulated Xen host, seal them,
 * and exchange traffic — the whole library in ~60 lines.
 *
 *   $ ./quickstart
 */

#include <cstdio>

#include "core/cloud.h"

using namespace mirage;

int
main()
{
    // One simulated host: hypervisor, dom0, software bridge, backends.
    core::Cloud cloud;

    // Provision two single-purpose unikernels with static addresses
    // (configuration as code — no config files anywhere).
    core::Guest &echo =
        cloud.startUnikernel("echo-appliance", net::Ipv4Addr(10, 0, 0, 2));
    core::Guest &client =
        cloud.startUnikernel("client", net::Ipv4Addr(10, 0, 0, 3));

    // The appliance: a UDP echo service, then seal the address space —
    // after this, no page of the VM can ever become executable again.
    echo.stack.udp().listen(7, [&](const net::UdpDatagram &dgram) {
        echo.stack.udp().sendTo(dgram.srcIp, dgram.srcPort, 7,
                                {dgram.payload});
    });
    if (auto sealed = echo.seal(); !sealed.ok()) {
        std::fprintf(stderr, "seal failed: %s\n",
                     sealed.error().message.c_str());
        return 1;
    }
    echo.console.writeLine("echo appliance ready (sealed)");

    // Drive it: ping first, then an echo round trip.
    client.stack.icmp().ping(
        net::Ipv4Addr(10, 0, 0, 2), 1, 56, [&](const Result<Duration> &rtt) {
            if (rtt.ok())
                std::printf("ping 10.0.0.2: rtt=%.1f us\n",
                            rtt.value().toMillisF() * 1000.0);
        });
    client.stack.udp().listen(40000, [&](const net::UdpDatagram &d) {
        std::printf("echo reply: \"%s\"\n",
                    d.payload.toString().c_str());
    });
    client.stack.udp().sendTo(net::Ipv4Addr(10, 0, 0, 2), 7, 40000,
                              {Cstruct::ofString("hello unikernel")});

    cloud.run();

    std::printf("virtual time elapsed: %.3f ms\n",
                cloud.engine().now().toSecondsF() * 1e3);
    std::printf("hypercalls issued: %llu\n",
                (unsigned long long)cloud.hypervisor()
                    .totalHypercalls());
    return 0;
}
