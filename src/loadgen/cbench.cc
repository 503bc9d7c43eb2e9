#include "loadgen/cbench.h"

#include <algorithm>

#include "base/logging.h"

namespace mirage::loadgen {

CBench::CBench(core::Guest &client, Config config)
    : client_(client), config_(config)
{
}

void
CBench::EmulatedSwitch::sendPacketIn()
{
    if (!owner->running_)
        return;
    // A frame between two of this switch's MACs; destinations are
    // usually already learned, so the controller answers with a
    // flow-mod referencing our buffer id.
    Cstruct frame = Cstruct::create(64);
    u64 dst = rng.below(owner->config_.macsPerSwitch);
    u64 src = rng.below(owner->config_.macsPerSwitch);
    net::MacAddr dst_mac =
        net::MacAddr::local(u32(index * 1000 + dst));
    net::MacAddr src_mac =
        net::MacAddr::local(u32(index * 1000 + src));
    for (std::size_t i = 0; i < 6; i++) {
        frame.setU8(i, dst_mac.bytes()[i]);
        frame.setU8(6 + i, src_mac.bytes()[i]);
    }
    frame.setBe16(12, 0x0800);
    u16 in_port = u16(1 + (src % 48));
    outstanding++;
    u32 xid = next_xid++;
    conn->write(openflow::buildPacketIn(xid, xid, in_port, 0, frame));
}

void
CBench::EmulatedSwitch::refill()
{
    if (!owner->running_)
        return;
    u32 target = owner->config_.batch ? owner->config_.batchDepth : 1;
    while (outstanding < target)
        sendPacketIn();
}

void
CBench::EmulatedSwitch::onData(Cstruct data)
{
    framer.feed(data);
    while (auto msg = framer.next()) {
        auto h = openflow::parseHeader(*msg);
        if (!h.ok())
            continue;
        switch (h.value().type) {
          case openflow::MsgType::Hello:
            // Handshake continues with the features request.
            break;
          case openflow::MsgType::FeaturesRequest:
            conn->write(openflow::buildFeaturesReply(
                h.value().xid, 0x1000 + index, 256, 1));
            // Handshake complete: start offering load.
            refill();
            break;
          case openflow::MsgType::EchoRequest:
            conn->write(openflow::buildEchoReply(h.value().xid));
            break;
          case openflow::MsgType::FlowMod:
          case openflow::MsgType::PacketOut:
            if (owner->running_)
                responses++;
            if (outstanding > 0)
                outstanding--;
            refill();
            break;
          default:
            break;
        }
    }
}

void
CBench::run(std::function<void(Report)> done)
{
    done_ = std::move(done);
    running_ = true;
    started_ = client_.sched.engine().now();

    for (u32 i = 0; i < config_.switches; i++) {
        auto sw = std::make_shared<EmulatedSwitch>(
            this, i, config_.seed * 131 + i);
        switches_.push_back(sw);
        client_.stack.tcp().connect(
            config_.controller, config_.port,
            [sw](Result<net::TcpConnPtr> r) {
                if (!r.ok())
                    fatal("cbench connect: %s",
                          r.error().message.c_str());
                sw->conn = r.value();
                // switches_ owns every switch for the whole run; the
                // connection's handler takes only a weak reference,
                // since sw->conn already owns the connection and a
                // strong capture would tie the pair into a cycle.
                std::weak_ptr<EmulatedSwitch> weak = sw;
                sw->conn->onData([weak](Cstruct data) {
                    if (auto locked = weak.lock())
                        locked->onData(data);
                });
                sw->conn->write(openflow::buildHello(sw->next_xid++));
            });
    }
    client_.sched.engine().after(config_.window, [this] { finish(); });
}

void
CBench::finish()
{
    if (!running_)
        return;
    running_ = false;
    Report report;
    u64 min_r = ~0ULL, max_r = 0;
    for (const auto &sw : switches_) {
        report.responses += sw->responses;
        min_r = std::min(min_r, sw->responses);
        max_r = std::max(max_r, sw->responses);
    }
    Duration elapsed = client_.sched.engine().now() - started_;
    report.responsesPerSecond =
        double(report.responses) / elapsed.toSecondsF();
    report.unfairness =
        min_r > 0 ? double(max_r) / double(min_r) : 1e9;
    for (const auto &sw : switches_)
        if (sw->conn)
            sw->conn->close();
    done_(report);
}

} // namespace mirage::loadgen
