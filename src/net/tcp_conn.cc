#include "net/tcp_conn.h"

#include <algorithm>

#include "base/logging.h"
#include "net/stack.h"
#include "net/tcp.h"
#include "sim/cost_model.h"
#include "sim/tuning.h"
#include "trace/flow.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace mirage::net {

namespace {

constexpr Duration minRto = Duration::millis(50);
constexpr Duration maxRto = Duration::seconds(60);

} // namespace

TcpConnection::TcpConnection(NetworkStack &stack, Tcp &tcp,
                             u16 local_port, Ipv4Addr peer_ip,
                             u16 peer_port)
    : stack_(stack), tcp_(tcp), local_port_(local_port),
      peer_ip_(peer_ip), peer_port_(peer_port),
      cwnd_(u32(defaultMss) * 10) // RFC 6928 initial window
{
    // The registry mirrors of stats_ live in Tcp, one set per stack.
    tcp_.resolveCounters();
}

u32
TcpConnection::tcpTrack()
{
    if (trace_track_ == 0) {
        if (auto *tr = stack_.scheduler().engine().tracer();
            tr && tr->enabled())
            trace_track_ = tr->track(stack_.domain().name() + "/tcp");
    }
    return trace_track_;
}

u32
TcpConnection::initialSeq() const
{
    // ISS from the (virtual) clock, per the classical scheme, salted
    // with both ports so the two directions of a connection (and
    // simultaneous opens at the same instant) get distinct sequences.
    return u32(stack_.scheduler().engine().now().ns() / 4000) ^
           (u32(local_port_) << 16) ^ u32(peer_port_);
}

void
TcpConnection::failConnect(const char *msg)
{
    if (!connect_cb_)
        return;
    auto cb = std::move(connect_cb_);
    connect_cb_ = nullptr;
    cb(stateError(msg));
}

TcpConnection::~TcpConnection() = default;

// ---- Opens -----------------------------------------------------------------

void
TcpConnection::startConnect(std::function<void(Result<bool>)> established)
{
    connect_cb_ = std::move(established);
    iss_ = initialSeq();
    snd_una_ = iss_;
    snd_nxt_ = iss_ + 1;
    state_ = State::SynSent;
    sendSegment(TcpFlags::syn, iss_, {});
    unacked_.push_back(Unacked{iss_, {}, TcpFlags::syn,
                               stack_.scheduler().engine().now(), false});
    armRto();
}

void
TcpConnection::startAccept(const TcpSegment &syn)
{
    rcv_nxt_ = syn.seq + 1;
    if (syn.mssOpt)
        mss_ = std::min(mss_, syn.mssOpt);
    snd_wscale_ = syn.wscaleOpt >= 0 ? syn.wscaleOpt : 0;
    // RFC 7323: the window field of a SYN is never scaled; the scale
    // factor applies only to segments after the handshake.
    snd_wnd_ = syn.window;
    iss_ = initialSeq();
    snd_una_ = iss_;
    snd_nxt_ = iss_ + 1;
    state_ = State::SynReceived;
    sendSegment(TcpFlags::syn | TcpFlags::ack, iss_, {});
    unacked_.push_back(Unacked{iss_, {}, TcpFlags::syn | TcpFlags::ack,
                               stack_.scheduler().engine().now(), false});
    armRto();
}

// ---- Flow interface -----------------------------------------------------------

rt::PromisePtr
TcpConnection::write(Cstruct data)
{
    auto p = rt::Promise::make();
    if (state_ != State::Established && state_ != State::CloseWait &&
        state_ != State::SynSent && state_ != State::SynReceived) {
        p->cancel();
        return p;
    }
    if (fin_queued_) {
        p->cancel(); // write after close
        return p;
    }
    u64 flow = 0;
    if (auto *fl = stack_.scheduler().engine().flows();
        fl && fl->enabled() && fl->current()) {
        flow = fl->current();
        fl->stageBegin(flow, "tcp_tx",
                       stack_.scheduler().engine().now(), tcpTrack());
    }
    tx_queue_.push_back(TxChunk{std::move(data), 0, p, flow});
    trySend();
    return p;
}

void
TcpConnection::onData(std::function<void(Cstruct)> handler)
{
    data_handler_ = std::move(handler);
}

void
TcpConnection::onClose(std::function<void()> handler)
{
    close_handler_ = std::move(handler);
}

void
TcpConnection::close()
{
    if (state_ == State::SynSent || state_ == State::Closed) {
        // Abort an unfinished handshake: the SYN must not keep
        // retransmitting, and the pending connect must learn it failed.
        cancelRto();
        unacked_.clear();
        failConnect("closed before connection established");
        becomeClosed();
        return;
    }
    if (fin_queued_)
        return;
    fin_queued_ = true;
    trySend();
}

// ---- Input --------------------------------------------------------------------

void
TcpConnection::segmentInput(const TcpSegment &seg)
{
    stats_.segmentsReceived++;
    trace::bump(tcp_.counters_.segmentsReceived);
    if (auto *tr = stack_.scheduler().engine().tracer();
        tr && tr->enabled()) {
        if (trace_track_ == 0)
            trace_track_ =
                tr->track(stack_.domain().name() + "/tcp");
        tr->instant(trace::Cat::Net, "tcp.rx",
                    stack_.scheduler().engine().now(), trace_track_,
                    strprintf("\"port\":%u,\"seq\":%u,\"flags\":%u,"
                              "\"len\":%zu",
                              local_port_, seg.seq, seg.flags,
                              seg.payload.length()));
    }

    if (seg.has(TcpFlags::rst)) {
        failConnect("connection refused");
        becomeClosed();
        return;
    }

    switch (state_) {
      case State::SynSent:
        if (seg.has(TcpFlags::syn) && seg.has(TcpFlags::ack) &&
            seg.ack == iss_ + 1) {
            snd_una_ = seg.ack;
            rcv_nxt_ = seg.seq + 1;
            if (seg.mssOpt)
                mss_ = std::min(mss_, seg.mssOpt);
            snd_wscale_ = seg.wscaleOpt >= 0 ? seg.wscaleOpt : 0;
            // The SYN|ACK's window field is unscaled (RFC 7323).
            snd_wnd_ = seg.window;
            unacked_.clear();
            cancelRto();
            state_ = State::Established;
            sendAck();
            if (connect_cb_) {
                auto cb = std::move(connect_cb_);
                connect_cb_ = nullptr;
                cb(true);
            }
            trySend();
        }
        return;

      case State::SynReceived:
        if (seg.has(TcpFlags::ack) && seg.ack == iss_ + 1) {
            snd_una_ = seg.ack;
            snd_wnd_ = u64(seg.window) << snd_wscale_;
            unacked_.clear();
            cancelRto();
            state_ = State::Established;
            tcp_.connectionEstablished(*this);
            // Fall through to consume any data on the ACK.
            handleData(seg);
            trySend();
        }
        return;

      case State::Closed:
        return;

      default:
        break;
    }

    handleAck(seg);
    handleData(seg);
}

void
TcpConnection::handleAck(const TcpSegment &seg)
{
    if (!seg.has(TcpFlags::ack))
        return;
    u64 new_wnd = u64(seg.window) << snd_wscale_;

    if (seqLt(snd_una_, seg.ack) && seqLe(seg.ack, snd_nxt_)) {
        u32 acked = seg.ack - snd_una_;
        snd_una_ = seg.ack;
        snd_wnd_ = new_wnd;

        // RTT sample from the oldest segment, Karn's rule.
        while (!unacked_.empty()) {
            Unacked &u = unacked_.front();
            u32 seg_len = u32(fragsLength(u.payload)) +
                          ((u.flags & (TcpFlags::syn | TcpFlags::fin))
                               ? 1u
                               : 0u);
            if (!seqLe(u.seq + seg_len, snd_una_))
                break;
            if (!u.retransmitted)
                updateRtt(stack_.scheduler().engine().now() -
                          u.firstSent);
            unacked_.pop_front();
        }

        // tcp_tx stages close when the chunk's last byte is acked.
        while (!tx_flow_marks_.empty() &&
               seqLe(tx_flow_marks_.front().first, snd_una_)) {
            u64 flow = tx_flow_marks_.front().second;
            tx_flow_marks_.pop_front();
            if (auto *fl = stack_.scheduler().engine().flows())
                fl->stageEnd(flow, "tcp_tx",
                             stack_.scheduler().engine().now(),
                             tcpTrack());
        }

        if (in_recovery_) {
            if (seqLt(recover_, seg.ack) || recover_ == seg.ack) {
                // Full ACK: leave recovery (New Reno).
                in_recovery_ = false;
                cwnd_ = ssthresh_;
                dup_acks_ = 0;
            } else {
                // Partial ACK: retransmit the next hole, deflate.
                if (!unacked_.empty()) {
                    retransmitFront();
                    stats_.retransmits++;
                    trace::bump(tcp_.counters_.retransmits);
                }
                cwnd_ = cwnd_ > acked ? cwnd_ - acked : u32(mss_);
                cwnd_ += mss_;
            }
        } else {
            dup_acks_ = 0;
            if (cwnd_ < ssthresh_)
                cwnd_ += std::min(acked, u32(mss_)); // slow start
            else
                cwnd_ += std::max(1u, u32(mss_) * u32(mss_) / cwnd_);
        }

        if (unacked_.empty())
            cancelRto();
        else {
            cancelRto();
            armRto();
        }

        // FIN acknowledged?
        if (fin_sent_ && snd_una_ == snd_nxt_) {
            if (state_ == State::FinWait1)
                state_ = State::FinWait2;
            else if (state_ == State::Closing)
                enterTimeWait();
            else if (state_ == State::LastAck)
                becomeClosed();
        }
        trySend();
        return;
    }

    if (seg.ack == snd_una_ && !unacked_.empty()) {
        snd_wnd_ = new_wnd;
        if (seg.payload.empty() && !seg.has(TcpFlags::fin)) {
            dup_acks_++;
            stats_.dupAcksSeen++;
            trace::bump(tcp_.counters_.dupAcks);
            if (!in_recovery_ && dup_acks_ == 3) {
                // Fast retransmit + fast recovery.
                u32 flight = flightSize();
                ssthresh_ =
                    std::max(flight / 2, u32(mss_) * 2);
                retransmitFront();
                stats_.retransmits++;
                stats_.fastRetransmits++;
                trace::bump(tcp_.counters_.retransmits);
                trace::bump(tcp_.counters_.fastRetransmits);
                in_recovery_ = true;
                recover_ = snd_nxt_;
                cwnd_ = ssthresh_ + 3 * u32(mss_);
            } else if (in_recovery_) {
                cwnd_ += mss_; // inflation per extra dup ack
            }
            trySend();
        }
    }
}

void
TcpConnection::handleData(const TcpSegment &seg)
{
    Cstruct payload = seg.payload;
    u32 seq = seg.seq;
    bool has_fin = seg.has(TcpFlags::fin);
    if (payload.empty() && !has_fin)
        return;

    // Trim any prefix we already received.
    if (seqLt(seq, rcv_nxt_)) {
        u32 overlap = rcv_nxt_ - seq;
        if (overlap >= payload.length() + (has_fin ? 1u : 0u)) {
            sendAck(); // entirely old: re-ack
            return;
        }
        if (overlap >= payload.length()) {
            payload = Cstruct();
        } else {
            payload = payload.shift(overlap);
        }
        seq = rcv_nxt_;
    }

    if (seq != rcv_nxt_) {
        // Out of order: hold the view, emit a duplicate ACK.
        if (!payload.empty())
            out_of_order_.emplace(seq, payload);
        sendAck();
        return;
    }

    if (!payload.empty()) {
        rcv_nxt_ += u32(payload.length());
        stats_.bytesReceived += payload.length();
        trace::bump(tcp_.counters_.bytesReceived, payload.length());
        if (data_handler_)
            data_handler_(payload);
    }

    // Drain contiguous out-of-order segments.
    auto it = out_of_order_.begin();
    while (it != out_of_order_.end()) {
        if (seqLt(rcv_nxt_, it->first))
            break;
        Cstruct held = it->second;
        u32 held_seq = it->first;
        it = out_of_order_.erase(it);
        if (seqLt(held_seq + u32(held.length()), rcv_nxt_) ||
            held_seq + u32(held.length()) == rcv_nxt_)
            continue; // fully duplicate
        u32 skip = rcv_nxt_ - held_seq;
        Cstruct fresh = skip ? held.shift(skip) : held;
        rcv_nxt_ += u32(fresh.length());
        stats_.bytesReceived += fresh.length();
        trace::bump(tcp_.counters_.bytesReceived, fresh.length());
        if (data_handler_)
            data_handler_(fresh);
        it = out_of_order_.begin();
    }

    if (has_fin && seq + u32(payload.length()) == rcv_nxt_) {
        rcv_nxt_++;
        switch (state_) {
          case State::Established:
            state_ = State::CloseWait;
            if (close_handler_ && !close_signalled_) {
                close_signalled_ = true;
                close_handler_();
            }
            break;
          case State::FinWait1:
            // Simultaneous close: our FIN not yet acked.
            state_ = State::Closing;
            break;
          case State::FinWait2:
            enterTimeWait();
            break;
          default:
            break;
        }
    }
    sendAck();
}

// ---- Output -------------------------------------------------------------------

u32
TcpConnection::effectiveWindow() const
{
    u64 wnd = std::min(u64(cwnd_), snd_wnd_);
    u32 flight = snd_nxt_ - snd_una_;
    return wnd > flight ? u32(wnd - flight) : 0;
}

bool
TcpConnection::segOffloadActive() const
{
    return stack_.config().tcpSegOffload && sim::tuning().tcpSegOffload;
}

bool
TcpConnection::csumOffloadActive() const
{
    return stack_.config().csumOffload && sim::tuning().csumOffload;
}

void
TcpConnection::trySend()
{
    if (state_ != State::Established && state_ != State::CloseWait &&
        state_ != State::FinWait1 && state_ != State::Closing &&
        state_ != State::LastAck)
        return;
    if (in_try_send_)
        return; // the outer invocation will pick up new queue entries
    in_try_send_ = true;

    while (!tx_queue_.empty()) {
        u32 window = effectiveWindow();
        if (window == 0)
            break;
        // With segmentation offload the send unit is a TSO chain of up
        // to tsoMaxBytes; the backend cuts it into MSS-sized frames.
        std::size_t unit = segOffloadActive()
                               ? sim::tuning().tsoMaxBytes
                               : std::size_t(mss_);
        std::size_t budget = std::min<std::size_t>(unit, window);

        // Gather up to `budget` bytes as zero-copy sub-views across
        // queued chunks (Fig 4's payload rearrangement).
        std::vector<Cstruct> payload;
        std::size_t gathered = 0;
        while (gathered < budget && payload.size() < maxTxFrags &&
               !tx_queue_.empty()) {
            TxChunk &chunk = tx_queue_.front();
            std::size_t left = chunk.data.length() - chunk.consumed;
            std::size_t take = std::min(left, budget - gathered);
            payload.push_back(chunk.data.sub(chunk.consumed, take));
            chunk.consumed += take;
            gathered += take;
            if (chunk.consumed == chunk.data.length()) {
                // Fully accepted into the window: release the writer.
                // (The guard above keeps any synchronous follow-up
                // write from re-entering this gather.)
                auto writer_done = chunk.done;
                if (chunk.flow)
                    tx_flow_marks_.emplace_back(
                        snd_nxt_ + u32(gathered), chunk.flow);
                tx_queue_.pop_front();
                writer_done->resolve();
            }
        }
        if (gathered == 0)
            break;

        u8 flags = TcpFlags::ack | TcpFlags::psh;
        sendSegment(flags, snd_nxt_, payload, /*allow_offload=*/true);
        unacked_.push_back(Unacked{snd_nxt_, payload, flags,
                                   stack_.scheduler().engine().now(),
                                   false});
        snd_nxt_ += u32(gathered);
        stats_.bytesSent += gathered;
        trace::bump(tcp_.counters_.bytesSent, gathered);
        armRto();
    }

    if (fin_queued_ && !fin_sent_ && tx_queue_.empty()) {
        u8 flags = TcpFlags::fin | TcpFlags::ack;
        sendSegment(flags, snd_nxt_, {});
        unacked_.push_back(Unacked{snd_nxt_, {}, flags,
                                   stack_.scheduler().engine().now(),
                                   false});
        snd_nxt_++;
        fin_sent_ = true;
        if (state_ == State::Established)
            state_ = State::FinWait1;
        else if (state_ == State::CloseWait)
            state_ = State::LastAck;
        armRto();
    }
    in_try_send_ = false;
}

void
TcpConnection::sendSegment(u8 flags, u32 seq,
                           const std::vector<Cstruct> &payload,
                           bool allow_offload)
{
    // Header page allocated per write; payload rides as sub-views.
    auto hdr_page = stack_.allocHeader(Ipv4::headerBytes + 60);
    if (!hdr_page.ok())
        return;
    Cstruct tcp_hdr = hdr_page.value()
                          .shift(EthFrame::headerBytes + Ipv4::headerBytes);
    bool with_opts = (flags & TcpFlags::syn) != 0;
    u16 wnd;
    if (with_opts) {
        wnd = u16(std::min<u32>(receiveWindowBytes, 0xffff));
    } else {
        wnd = u16(std::min<u32>(receiveWindowBytes >> windowScaleShift,
                                0xffff));
    }
    std::size_t hdr_len = writeTcpHeader(
        tcp_hdr, local_port_, peer_port_, seq, rcv_nxt_, flags, wnd,
        with_opts, defaultMss, with_opts ? windowScaleShift : -1);
    Cstruct hdr = tcp_hdr.sub(0, hdr_len);
    std::size_t payload_len = fragsLength(payload);
    drivers::TxOffload offload;
    if (allow_offload && payload_len > 0) {
        if (segOffloadActive() && payload_len > mss_)
            offload.gsoSize = mss_;
        if (csumOffloadActive())
            offload.csumBlank = true;
    }
    if (!offload.csumBlank) {
        fillTcpChecksum(stack_.ip(), peer_ip_, hdr, hdr_len, payload);
        stack_.chargeChecksum(hdr_len + payload_len);
    }
    std::size_t total = hdr_len + payload_len;
    stats_.segmentsSent++;
    trace::bump(tcp_.counters_.segmentsSent);
    if (auto *tr = stack_.scheduler().engine().tracer();
        tr && tr->enabled()) {
        if (trace_track_ == 0)
            trace_track_ =
                tr->track(stack_.domain().name() + "/tcp");
        tr->instant(trace::Cat::Net, "tcp.tx",
                    stack_.scheduler().engine().now(), trace_track_,
                    strprintf("\"port\":%u,\"seq\":%u,\"flags\":%u,"
                              "\"len\":%zu",
                              local_port_, seq, flags,
                              total - hdr_len));
    }

    std::vector<Cstruct> frags;
    frags.push_back(hdr);
    for (const auto &p : payload)
        frags.push_back(p);
    stack_.ipv4().send(peer_ip_, IpProto::tcp, std::move(frags),
                       offload);
}

void
TcpConnection::retransmitFront()
{
    if (unacked_.empty())
        return;
    Unacked &u = unacked_.front();
    u.retransmitted = true;
    std::size_t len = fragsLength(u.payload);
    if (len == 0) {
        sendSegment(u.flags, u.seq, u.payload);
        return;
    }
    // One MSS from the hole, against the *current* MSS — a stale wire
    // replay would resend the whole (possibly multi-MSS TSO) chain and
    // could exceed a renegotiated MSS.
    u32 off = seqLt(u.seq, snd_una_) ? snd_una_ - u.seq : 0;
    if (off >= len)
        off = 0;
    std::size_t take = std::min<std::size_t>(mss_, len - off);
    sendSegment(u.flags, u.seq + off, sliceFrags(u.payload, off, take));
}

void
TcpConnection::sendAck()
{
    sendSegment(TcpFlags::ack, snd_nxt_, {});
}

// ---- Timers -------------------------------------------------------------------

void
TcpConnection::armRto()
{
    if (rto_armed_ || unacked_.empty())
        return;
    rto_armed_ = true;
    auto self = shared_from_this();
    rto_event_ = stack_.scheduler().engine().after(rto_, [self] {
        self->rto_armed_ = false;
        self->onRtoFire();
    });
}

void
TcpConnection::cancelRto()
{
    if (!rto_armed_)
        return;
    stack_.scheduler().engine().cancel(rto_event_);
    rto_armed_ = false;
}

void
TcpConnection::onRtoFire()
{
    if (unacked_.empty() || state_ == State::Closed)
        return;
    stats_.rtoFires++;
    stats_.retransmits++;
    trace::bump(tcp_.counters_.rtoFires);
    trace::bump(tcp_.counters_.retransmits);
    // Collapse to one MSS and back off (RFC 5681 / 6298).
    ssthresh_ = std::max(flightSize() / 2, u32(mss_) * 2);
    cwnd_ = mss_;
    in_recovery_ = false;
    dup_acks_ = 0;
    rto_ = std::min(rto_ * 2, maxRto);
    retransmitFront();
    armRto();
}

void
TcpConnection::updateRtt(Duration sample)
{
    if (!rtt_valid_) {
        srtt_ = sample;
        rttvar_ = Duration(sample.ns() / 2);
        rtt_valid_ = true;
    } else {
        i64 err = srtt_.ns() - sample.ns();
        if (err < 0)
            err = -err;
        rttvar_ = Duration((3 * rttvar_.ns() + err) / 4);
        srtt_ = Duration((7 * srtt_.ns() + sample.ns()) / 8);
    }
    Duration candidate = srtt_ + Duration(4 * rttvar_.ns());
    rto_ = std::max(candidate, minRto);
}

void
TcpConnection::enterTimeWait()
{
    state_ = State::TimeWait;
    auto self = shared_from_this();
    time_wait_event_ = stack_.scheduler().engine().after(
        Duration::millis(timeWaitMillis),
        [self] { self->becomeClosed(); });
}

void
TcpConnection::becomeClosed()
{
    if (state_ == State::Closed)
        return;
    state_ = State::Closed;
    cancelRto();
    unacked_.clear();
    // Close any tcp_tx stages still waiting on ACKs so their flows
    // can finalise (the connection will never deliver them now).
    if (!tx_flow_marks_.empty()) {
        if (auto *fl = stack_.scheduler().engine().flows()) {
            for (auto &[seq_end, flow] : tx_flow_marks_)
                fl->stageEnd(flow, "tcp_tx",
                             stack_.scheduler().engine().now(),
                             tcpTrack());
        }
        tx_flow_marks_.clear();
    }
    failConnect("connection closed");
    if (time_wait_event_)
        stack_.scheduler().engine().cancel(time_wait_event_);
    for (auto &chunk : tx_queue_)
        chunk.done->cancel();
    tx_queue_.clear();
    if (close_handler_ && !close_signalled_) {
        close_signalled_ = true;
        close_handler_();
    }
    dropHandlers();
    tcp_.remove(*this);
}

void
TcpConnection::dropHandlers()
{
    data_handler_ = nullptr;
    close_handler_ = nullptr;
    connect_cb_ = nullptr;
}

} // namespace mirage::net
