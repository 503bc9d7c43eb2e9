/**
 * @file
 * TcpConnection: the full connection lifecycle state machine with New
 * Reno congestion control, fast retransmit/recovery, RTO estimation
 * (RFC 6298 structure) and window scaling — the paper's §4.1.3
 * feature list, implemented as an ordinary library.
 *
 * Transmit is zero-copy: application views are queued, segmented into
 * sub-views, and handed to the driver as scatter fragments behind a
 * freshly allocated header page (Fig 4).
 */

#ifndef MIRAGE_NET_TCP_CONN_H
#define MIRAGE_NET_TCP_CONN_H

#include <deque>
#include <map>
#include <memory>

#include "base/time.h"
#include "net/flow.h"
#include "net/tcp_wire.h"
#include "sim/engine.h"

namespace mirage::net {

class NetworkStack;
class Tcp;

class TcpConnection : public Flow,
                      public std::enable_shared_from_this<TcpConnection>
{
  public:
    enum class State {
        Closed,
        SynSent,
        SynReceived,
        Established,
        FinWait1,
        FinWait2,
        CloseWait,
        Closing,
        LastAck,
        TimeWait,
    };

    static constexpr u16 defaultMss = 1460;
    /** Payload fragments per tx chain: with the header page the chain
     *  stays comfortably inside the 32-slot ring. */
    static constexpr std::size_t maxTxFrags = 24;
    static constexpr int windowScaleShift = 7; //!< advertise 2^7
    static constexpr u32 receiveWindowBytes = 256 * 1024;
    /** TIME_WAIT duration (2*MSL, shortened for the simulation). */
    static constexpr i64 timeWaitMillis = 1000;

    ~TcpConnection() override;

    // ---- Flow interface -----------------------------------------------
    rt::PromisePtr write(Cstruct data) override;
    void onData(std::function<void(Cstruct)> handler) override;
    void onClose(std::function<void()> handler) override;
    void close() override;

    /**
     * Drop the data/close/connect handlers. They routinely capture the
     * connection's own TcpConnPtr, a reference cycle that would keep a
     * closed (or abandoned) connection alive forever; called from
     * becomeClosed() and from Tcp teardown.
     */
    void dropHandlers();

    State state() const { return state_; }
    Ipv4Addr peerAddr() const { return peer_ip_; }
    u16 peerPort() const { return peer_port_; }
    u16 localPort() const { return local_port_; }

    struct Stats
    {
        u64 bytesSent = 0;
        u64 bytesReceived = 0;
        u64 segmentsSent = 0;
        u64 segmentsReceived = 0;
        u64 retransmits = 0;
        u64 fastRetransmits = 0;
        u64 rtoFires = 0;
        u64 dupAcksSeen = 0;
    };

    const Stats &stats() const { return stats_; }
    u32 cwnd() const { return cwnd_; }
    u32 ssthresh() const { return ssthresh_; }
    /** Peer-advertised send window, in bytes (post-scaling). */
    u64 sndWnd() const { return snd_wnd_; }

  private:
    friend class Tcp;

    TcpConnection(NetworkStack &stack, Tcp &tcp, u16 local_port,
                  Ipv4Addr peer_ip, u16 peer_port);

    /** Active open: send SYN. */
    void startConnect(std::function<void(Result<bool>)> established);
    /** Passive open: consume the peer's SYN and answer SYN|ACK. */
    void startAccept(const TcpSegment &syn);

    void segmentInput(const TcpSegment &seg);
    void handleAck(const TcpSegment &seg);
    void handleData(const TcpSegment &seg);

    void trySend();
    /** Both the per-stack config and the global tuning switch agree
     *  that tx segmentation may be offloaded to the backend. */
    bool segOffloadActive() const;
    bool csumOffloadActive() const;
    /**
     * Build and emit one segment. @p allow_offload marks fresh data
     * segments from trySend: those may ride as a multi-MSS TSO chain
     * and/or leave the checksum blank for the backend. Control
     * segments and retransmissions always go the software path.
     */
    void sendSegment(u8 flags, u32 seq,
                     const std::vector<Cstruct> &payload,
                     bool allow_offload = false);
    /**
     * Retransmit from the front of the retransmission queue: one MSS
     * starting at the hole (snd_una_), re-sliced against the current
     * MSS and software-checksummed — never a replay of the original
     * (possibly offloaded multi-MSS) wire image.
     */
    void retransmitFront();
    void sendAck();

    void armRto();
    void cancelRto();
    void onRtoFire();
    void updateRtt(Duration sample);
    void enterTimeWait();
    void becomeClosed();
    u32 initialSeq() const;
    /** Deliver a failure to a pending connect callback, at most once. */
    void failConnect(const char *msg);

    u32 flightSize() const { return snd_nxt_ - snd_una_; }
    u32 effectiveWindow() const;
    u16 mss() const { return mss_; }
    u32 tcpTrack();

    NetworkStack &stack_;
    Tcp &tcp_;
    State state_ = State::Closed;
    u16 local_port_;
    Ipv4Addr peer_ip_;
    u16 peer_port_;

    // Send sequence space.
    u32 iss_ = 0;
    u32 snd_una_ = 0;
    u32 snd_nxt_ = 0;
    u64 snd_wnd_ = 0; //!< peer-advertised, already scaled
    int snd_wscale_ = 0;
    u16 mss_ = defaultMss;
    bool fin_queued_ = false;
    bool fin_sent_ = false;

    // Receive sequence space.
    u32 rcv_nxt_ = 0;
    std::map<u32, Cstruct> out_of_order_;

    // Send buffering: application views awaiting segmentation.
    struct TxChunk
    {
        Cstruct data;
        std::size_t consumed = 0;
        rt::PromisePtr done;
        u64 flow = 0; //!< request flow this write belongs to
    };
    std::deque<TxChunk> tx_queue_;

    /**
     * Flow marks for the tcp_tx critical-path stage: (sequence number
     * past the chunk's last byte, flow id). The stage opened by write()
     * closes only when snd_una_ passes the mark — i.e. at the final
     * ACK, not at window acceptance, so flow totals cover true
     * delivery.
     */
    std::deque<std::pair<u32, u64>> tx_flow_marks_;

    // Retransmission queue: sent, unacked segments.
    struct Unacked
    {
        u32 seq;
        std::vector<Cstruct> payload;
        u8 flags;
        TimePoint firstSent;
        bool retransmitted = false;
    };
    std::deque<Unacked> unacked_;

    // Congestion control (New Reno).
    u32 cwnd_;
    u32 ssthresh_ = 0xffffffff;
    u32 dup_acks_ = 0;
    bool in_recovery_ = false;
    u32 recover_ = 0;

    // RTO (RFC 6298 structure).
    bool rtt_valid_ = false;
    Duration srtt_;
    Duration rttvar_;
    Duration rto_ = Duration::millis(200);
    sim::EventId rto_event_ = 0;
    bool rto_armed_ = false;
    sim::EventId time_wait_event_ = 0;

    /** Reentrancy guard: resolving a write promise inside trySend can
     *  trigger the application's next write() synchronously; the inner
     *  call must not interleave with the in-progress gather. */
    bool in_try_send_ = false;

    std::function<void(Cstruct)> data_handler_;
    std::function<void()> close_handler_;
    std::function<void(Result<bool>)> connect_cb_;
    bool close_signalled_ = false;
    Stats stats_;

    u32 trace_track_ = 0;
};

using TcpConnPtr = std::shared_ptr<TcpConnection>;

} // namespace mirage::net

#endif // MIRAGE_NET_TCP_CONN_H
