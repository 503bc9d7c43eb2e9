#include "protocols/openflow/wire.h"

#include <cstring>

namespace mirage::openflow {

namespace {

Cstruct
makeMessage(MsgType type, u32 xid, std::size_t body_bytes)
{
    Cstruct msg = Cstruct::create(headerBytes + body_bytes);
    msg.setU8(0, ofVersion);
    msg.setU8(1, u8(type));
    msg.setBe16(2, u16(msg.length()));
    msg.setBe32(4, xid);
    return msg;
}

void
writeMatch(Cstruct at, const Match &m)
{
    at.setBe32(0, m.wildcards);
    at.setBe16(4, m.inPort);
    for (std::size_t i = 0; i < 6; i++) {
        at.setU8(6 + i, m.dlSrc.bytes()[i]);
        at.setU8(12 + i, m.dlDst.bytes()[i]);
    }
    at.setBe16(22, m.dlType);
}

Match
readMatch(const Cstruct &at)
{
    Match m;
    m.wildcards = at.getBe32(0);
    m.inPort = at.getBe16(4);
    xen::MacBytes src, dst;
    for (std::size_t i = 0; i < 6; i++) {
        src[i] = at.getU8(6 + i);
        dst[i] = at.getU8(12 + i);
    }
    m.dlSrc = net::MacAddr(src);
    m.dlDst = net::MacAddr(dst);
    m.dlType = at.getBe16(22);
    return m;
}

/** Serialise output actions after @p at; returns bytes written. */
std::size_t
writeOutputActions(Cstruct at, const std::vector<u16> &ports)
{
    std::size_t off = 0;
    for (u16 port : ports) {
        at.setBe16(off, 0); // OFPAT_OUTPUT
        at.setBe16(off + 2, 8);
        at.setBe16(off + 4, port);
        at.setBe16(off + 6, 0xffff); // max_len
        off += 8;
    }
    return off;
}

Result<std::vector<u16>>
readOutputActions(const Cstruct &at, std::size_t len)
{
    std::vector<u16> ports;
    std::size_t off = 0;
    while (off + 4 <= len) {
        u16 type = at.getBe16(off);
        u16 alen = at.getBe16(off + 2);
        if (alen < 4 || off + alen > len)
            return parseError("bad OF action length");
        if (type == 0 && alen >= 8)
            ports.push_back(at.getBe16(off + 4));
        off += alen;
    }
    return ports;
}

} // namespace

Match
Match::l2Exact(u16 in_port, const net::MacAddr &src,
               const net::MacAddr &dst, u16 dl_type)
{
    Match m;
    m.wildcards = wildcardAll & ~(wildcardInPort | wildcardDlSrc |
                                  wildcardDlDst | wildcardDlType);
    m.inPort = in_port;
    m.dlSrc = src;
    m.dlDst = dst;
    m.dlType = dl_type;
    return m;
}

bool
Match::matchesFrame(u16 in_port, const Cstruct &frame) const
{
    if (frame.length() < 14)
        return false;
    if (!(wildcards & wildcardInPort) && in_port != inPort)
        return false;
    if (!(wildcards & wildcardDlDst)) {
        for (std::size_t i = 0; i < 6; i++)
            if (frame.getU8(i) != dlDst.bytes()[i])
                return false;
    }
    if (!(wildcards & wildcardDlSrc)) {
        for (std::size_t i = 0; i < 6; i++)
            if (frame.getU8(6 + i) != dlSrc.bytes()[i])
                return false;
    }
    if (!(wildcards & wildcardDlType) && frame.getBe16(12) != dlType)
        return false;
    return true;
}

Result<OfHeader>
parseHeader(const Cstruct &data)
{
    if (data.length() < headerBytes)
        return parseError("truncated OF header");
    OfHeader h;
    h.version = data.getU8(0);
    h.type = MsgType(data.getU8(1));
    h.length = data.getBe16(2);
    h.xid = data.getBe32(4);
    if (h.version != ofVersion)
        return parseError("unsupported OF version");
    if (h.length < headerBytes || h.length > data.length())
        return parseError("bad OF length");
    return h;
}

Result<PacketIn>
parsePacketIn(const Cstruct &msg)
{
    auto h = parseHeader(msg);
    if (!h.ok())
        return h.error();
    if (msg.length() < 18)
        return parseError("truncated PACKET_IN");
    PacketIn p;
    p.xid = h.value().xid;
    p.bufferId = msg.getBe32(8);
    p.totalLen = msg.getBe16(12);
    p.inPort = msg.getBe16(14);
    p.reason = msg.getU8(16);
    p.frame = msg.sub(18, h.value().length - 18);
    return p;
}

Result<PacketOut>
parsePacketOut(const Cstruct &msg)
{
    auto h = parseHeader(msg);
    if (!h.ok())
        return h.error();
    if (msg.length() < 16)
        return parseError("truncated PACKET_OUT");
    PacketOut p;
    p.xid = h.value().xid;
    p.bufferId = msg.getBe32(8);
    p.inPort = msg.getBe16(12);
    u16 actions_len = msg.getBe16(14);
    if (16 + std::size_t(actions_len) > h.value().length)
        return parseError("PACKET_OUT actions overrun");
    auto ports =
        readOutputActions(msg.sub(16, actions_len), actions_len);
    if (!ports.ok())
        return ports.error();
    p.outputPorts = ports.value();
    std::size_t data_at = 16 + actions_len;
    p.frame = msg.sub(data_at, h.value().length - data_at);
    return p;
}

Result<FlowMod>
parseFlowMod(const Cstruct &msg)
{
    auto h = parseHeader(msg);
    if (!h.ok())
        return h.error();
    if (h.value().length < 72)
        return parseError("truncated FLOW_MOD");
    FlowMod f;
    f.xid = h.value().xid;
    f.match = readMatch(msg.sub(8, matchBytes));
    f.command = msg.getBe16(56);
    f.idleTimeout = msg.getBe16(58);
    f.hardTimeout = msg.getBe16(60);
    f.priority = msg.getBe16(62);
    f.bufferId = msg.getBe32(64);
    std::size_t actions_len = h.value().length - 72;
    auto ports =
        readOutputActions(msg.sub(72, actions_len), actions_len);
    if (!ports.ok())
        return ports.error();
    f.outputPorts = ports.value();
    return f;
}

Result<FeaturesReply>
parseFeaturesReply(const Cstruct &msg)
{
    auto h = parseHeader(msg);
    if (!h.ok())
        return h.error();
    if (h.value().length < 32)
        return parseError("truncated FEATURES_REPLY");
    FeaturesReply f;
    f.xid = h.value().xid;
    f.datapathId = msg.getBe64(8);
    f.nBuffers = msg.getBe32(16);
    f.nTables = msg.getU8(20);
    return f;
}

Cstruct
buildHello(u32 xid)
{
    return makeMessage(MsgType::Hello, xid, 0);
}

Cstruct
buildEchoReply(u32 xid)
{
    return makeMessage(MsgType::EchoReply, xid, 0);
}

Cstruct
buildFeaturesRequest(u32 xid)
{
    return makeMessage(MsgType::FeaturesRequest, xid, 0);
}

Cstruct
buildFeaturesReply(u32 xid, u64 dpid, u32 n_buffers, u8 n_tables)
{
    Cstruct msg = makeMessage(MsgType::FeaturesReply, xid, 24);
    msg.setBe64(8, dpid);
    msg.setBe32(16, n_buffers);
    msg.setU8(20, n_tables);
    return msg;
}

Cstruct
buildPacketIn(u32 xid, u32 buffer_id, u16 in_port, u8 reason,
              const Cstruct &frame)
{
    Cstruct msg = makeMessage(MsgType::PacketIn, xid,
                              10 + frame.length());
    msg.setBe32(8, buffer_id);
    msg.setBe16(12, u16(frame.length()));
    msg.setBe16(14, in_port);
    msg.setU8(16, reason);
    msg.blitFrom(frame, 0, 18, frame.length());
    return msg;
}

Cstruct
buildPacketOut(u32 xid, u32 buffer_id, u16 in_port,
               const std::vector<u16> &out_ports, const Cstruct &frame)
{
    std::size_t actions = out_ports.size() * 8;
    Cstruct msg =
        makeMessage(MsgType::PacketOut, xid, 8 + actions + frame.length());
    msg.setBe32(8, buffer_id);
    msg.setBe16(12, in_port);
    msg.setBe16(14, u16(actions));
    writeOutputActions(msg.sub(16, actions), out_ports);
    if (frame.length() > 0)
        msg.blitFrom(frame, 0, 16 + actions, frame.length());
    return msg;
}

Cstruct
buildFlowMod(u32 xid, const Match &match, u16 priority, u32 buffer_id,
             const std::vector<u16> &out_ports)
{
    std::size_t actions = out_ports.size() * 8;
    Cstruct msg = makeMessage(MsgType::FlowMod, xid, 64 + actions);
    writeMatch(msg.sub(8, matchBytes), match);
    msg.setBe16(56, 0); // OFPFC_ADD
    msg.setBe16(58, 60);
    msg.setBe16(60, 0);
    msg.setBe16(62, priority);
    msg.setBe32(64, buffer_id);
    msg.setBe16(68, portNone);
    writeOutputActions(msg.sub(72, actions), out_ports);
    return msg;
}

void
MessageFramer::feed(const Cstruct &data)
{
    std::size_t old = buf_.size();
    buf_.resize(old + data.length());
    std::memcpy(buf_.data() + old, data.data(), data.length());
}

std::optional<Cstruct>
MessageFramer::next()
{
    if (buf_.size() < headerBytes)
        return std::nullopt;
    u16 length = u16((u16(buf_[2]) << 8) | buf_[3]);
    if (length < headerBytes) {
        errors_++;
        buf_.clear(); // unrecoverable framing damage
        return std::nullopt;
    }
    if (buf_.size() < length)
        return std::nullopt;
    Cstruct msg(Buffer::fromBytes(buf_.data(), length));
    buf_.erase(buf_.begin(), buf_.begin() + length);
    return msg;
}

} // namespace mirage::openflow
