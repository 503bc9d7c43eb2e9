/**
 * @file
 * NetworkStack — the composition root of the clean-slate stack:
 * netif ← Ethernet ← {ARP, IPv4 ← {ICMP, UDP, TCP}}. An application
 * links exactly the libraries it references; this class is the runtime
 * wiring for whichever subset the appliance linker kept.
 *
 * The cpuFactor knob is the type-safety tax (§4.1.3): the unikernel
 * stack runs with the bounds-checked factor, the baseline "C" stacks
 * run the *same code* at factor 1.0 — making structural comparisons
 * apples-to-apples.
 */

#ifndef MIRAGE_NET_STACK_H
#define MIRAGE_NET_STACK_H

#include <memory>

#include "drivers/netif.h"
#include "net/arp.h"
#include "net/dhcp.h"
#include "net/ethernet.h"
#include "net/icmp.h"
#include "net/ipv4.h"
#include "net/tcp.h"
#include "net/udp.h"
#include "runtime/scheduler.h"

namespace mirage::net {

class NetworkStack
{
  public:
    struct Config
    {
        Ipv4Addr ip;
        Ipv4Addr netmask = Ipv4Addr(255, 255, 255, 0);
        Ipv4Addr gateway;
        /** CPU multiplier for stack work (type-safety tax or 1.0). */
        double cpuFactor = 1.0;
        /** Architecture-specific per-packet extras (see cost model:
         *  socket handoff/copies for a conventional kernel, header-
         *  page + grant bookkeeping for the unikernel tx path). */
        Duration txOverheadPerPacket = Duration(0);
        Duration rxOverheadPerPacket = Duration(0);
        /** TCP hands multi-MSS chains to the driver for backend
         *  segmentation (TSO). Effective only while the matching
         *  sim::tuning() switch is also on. */
        bool tcpSegOffload = false;
        /** TCP leaves its checksum blank for the backend to fill
         *  (checksum offload); same tuning gate. */
        bool csumOffload = false;
    };

    NetworkStack(drivers::Netif &netif, rt::Scheduler &sched,
                 Config config);

    // ---- Identity ------------------------------------------------------
    MacAddr mac() const { return MacAddr(netif_.mac()); }
    Ipv4Addr ip() const { return config_.ip; }
    Ipv4Addr netmask() const { return config_.netmask; }
    Ipv4Addr gateway() const { return config_.gateway; }
    void configure(Ipv4Addr ip, Ipv4Addr netmask, Ipv4Addr gateway);

    // ---- Sub-protocols ---------------------------------------------------
    Arp &arp() { return arp_; }
    Ipv4 &ipv4() { return ipv4_; }
    Icmp &icmp() { return icmp_; }
    Udp &udp() { return udp_; }
    Tcp &tcp() { return tcp_; }

    rt::Scheduler &scheduler() { return sched_; }
    drivers::Netif &netif() { return netif_; }
    xen::Domain &domain() { return netif_.domain(); }
    const Config &config() const { return config_; }
    /** Enable/disable tx offloads after construction (tests). */
    void setTxOffload(bool seg, bool csum)
    {
        config_.tcpSegOffload = seg;
        config_.csumOffload = csum;
    }

    // ---- Transmission helpers (used by sub-protocols) --------------------
    /** A header page view of @p bytes (14-byte Ethernet header space
     *  included at the front). */
    Result<Cstruct> allocHeader(std::size_t bytes_after_eth);

    /**
     * Fill the Ethernet header of frags[0] and hand the scatter list
     * to the driver. @p offload rides through to the tx slot.
     */
    void transmit(const MacAddr &dst, EtherType type,
                  std::vector<Cstruct> frags,
                  drivers::TxOffload offload = {});

    // ---- Cost charging ----------------------------------------------------
    Duration packetCost() const;
    void chargeChecksum(std::size_t bytes);

    u64 framesIn() const { return frames_in_; }
    u64 framesOut() const { return frames_out_; }

    // ---- Copy accounting (net.tx.copies_per_byte) ------------------------
    /**
     * Report @p bytes the application layer had to copy to assemble
     * an outgoing message (e.g. header serialisation). A copy-free
     * serve path reports only its few header bytes, so
     * txCopyBytes()/txBytes() ≈ 0.
     */
    void noteTxCopy(std::size_t bytes);
    u64 txBytes() const { return tx_bytes_; }
    u64 txCopyBytes() const { return tx_copy_bytes_; }

  private:
    void frameInput(Cstruct frame);
    void wireTxMetrics();

    drivers::Netif &netif_;
    rt::Scheduler &sched_;
    Config config_;
    Arp arp_;
    Ipv4 ipv4_;
    Icmp icmp_;
    Udp udp_;
    Tcp tcp_;
    u64 frames_in_ = 0;
    u64 frames_out_ = 0;
    u64 tx_bytes_ = 0;
    u64 tx_copy_bytes_ = 0;
    trace::Counter *c_tx_bytes_ = nullptr;
    trace::Counter *c_tx_copy_bytes_ = nullptr;
};

} // namespace mirage::net

#endif // MIRAGE_NET_STACK_H
