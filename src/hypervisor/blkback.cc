#include "hypervisor/blkback.h"

#include <algorithm>
#include <cstring>

#include "base/logging.h"
#include "hypervisor/xen.h"
#include "sim/cost_model.h"
#include "sim/tuning.h"
#include "hypervisor/ring.h"
#include "trace/flow.h"
#include "trace/profile.h"
#include "trace/trace.h"

namespace mirage::xen {

VirtualDisk::VirtualDisk(sim::Engine &engine, std::string name,
                         u64 size_sectors)
    : engine_(engine), server_(engine, name), size_sectors_(size_sectors)
{
}

std::vector<u8> &
VirtualDisk::chunkFor(u64 sector)
{
    u64 key = sector / chunkSectors;
    auto it = chunks_.find(key);
    if (it == chunks_.end()) {
        it = chunks_
                 .emplace(key, std::vector<u8>(chunkSectors *
                                               BlkifWire::sectorBytes))
                 .first;
    }
    return it->second;
}

Status
VirtualDisk::readSync(u64 sector, u32 count, Cstruct dst)
{
    if (sector + count > size_sectors_)
        return boundsError("read past end of disk");
    if (dst.length() < std::size_t(count) * BlkifWire::sectorBytes)
        return boundsError("read buffer too small");
    for (u32 i = 0; i < count; i++) {
        u64 s = sector + i;
        std::vector<u8> &chunk = chunkFor(s);
        std::size_t in_chunk =
            std::size_t(s % chunkSectors) * BlkifWire::sectorBytes;
        std::memcpy(dst.data() + std::size_t(i) * BlkifWire::sectorBytes,
                    chunk.data() + in_chunk, BlkifWire::sectorBytes);
    }
    return Status::success();
}

Status
VirtualDisk::writeSync(u64 sector, u32 count, const Cstruct &src)
{
    if (sector + count > size_sectors_)
        return boundsError("write past end of disk");
    if (src.length() < std::size_t(count) * BlkifWire::sectorBytes)
        return boundsError("write buffer too small");
    for (u32 i = 0; i < count; i++) {
        u64 s = sector + i;
        std::vector<u8> &chunk = chunkFor(s);
        std::size_t in_chunk =
            std::size_t(s % chunkSectors) * BlkifWire::sectorBytes;
        std::memcpy(chunk.data() + in_chunk,
                    src.data() + std::size_t(i) * BlkifWire::sectorBytes,
                    BlkifWire::sectorBytes);
    }
    return Status::success();
}

Duration
VirtualDisk::serviceTime(u32 count) const
{
    const auto &c = sim::costs();
    double bytes = double(count) * BlkifWire::sectorBytes;
    return Duration(i64(bytes / c.ssdBytesPerNs));
}

// The device model: each command pays the fixed flash/command latency,
// but commands overlap (NCQ) — only the data transfer serialises on
// the device's internal bus. Small reads at low queue depth are thus
// latency-bound; large or deeply queued reads approach the bandwidth
// ceiling. This is the two-regime shape Fig 9 sweeps across.

void
VirtualDisk::readAsync(u64 sector, u32 count, Cstruct dst,
                       std::function<void(Status)> done)
{
    requests_++;
    // Metrics attach after construction (Cloud wires them up later).
    if (!c_requests_ && engine_.metrics())
        c_requests_ = &engine_.metrics()->counter("disk.requests");
    trace::bump(c_requests_);
    engine_.after(sim::costs().ssdPerRequest, [this, sector, count,
                                               dst,
                                               done = std::move(done)] {
        server_.submit(serviceTime(count),
                       [this, sector, count, dst,
                        done = std::move(done)]() {
                           done(readSync(sector, count, dst));
                       },
                       "disk.read", trace::Cat::Storage);
    });
}

void
VirtualDisk::writeAsync(u64 sector, u32 count, Cstruct src,
                        std::function<void(Status)> done)
{
    requests_++;
    if (!c_requests_ && engine_.metrics())
        c_requests_ = &engine_.metrics()->counter("disk.requests");
    trace::bump(c_requests_);
    engine_.after(sim::costs().ssdPerRequest, [this, sector, count,
                                               src = std::move(src),
                                               done = std::move(done)] {
        server_.submit(serviceTime(count),
                       [this, sector, count, src,
                        done = std::move(done)]() {
                           done(writeSync(sector, count, src));
                       },
                       "disk.write", trace::Cat::Storage);
    });
}

// ---- Blkback ---------------------------------------------------------------

Blkback::Blkback(Domain &backend_dom, VirtualDisk &disk)
    : dom_(backend_dom), disk_(disk), pmap_(backend_dom, "blkback")
{
}

void
Blkback::connect(Domain &frontend, GrantRef ring_grant, Port backend_port,
                 sim::Poller *poller)
{
    Hypervisor &hv = dom_.hypervisor();
    auto page = hv.grantMap(dom_, frontend, ring_grant, true);
    if (!page.ok())
        fatal("blkback: cannot map ring grant for %s",
              frontend.name().c_str());
    frontend_ = &frontend;
    port_ = backend_port;
    ring_grant_ = ring_grant;
    pmap_.bind(&frontend);
    bell_ = std::make_unique<LazyDoorbell>(hv.events(), dom_, port_);
    ring_ = std::make_unique<BackRing>(page.value());
    if (auto *m = dom_.engine().metrics())
        ring_->attachMetrics(*m, "ring.blkback");
    ring_->attachChecker(dom_.engine().checker(), "ring.blkback");
    // A push wakes the frontend's poller on its engine directly: dom0's
    // blkback serves only frontends on its own engine (unsharded).
    CHECK(!poller || &poller->engine() == &dom_.engine());
    ring_->wakeOnPush(poller);
    dom_.setPortHandler(port_, [this] {
        dom_.clearPending(port_);
        onEvent();
    });
    frontend.addShutdownHook([this] { disconnect(); });
}

void
Blkback::disconnect()
{
    if (!frontend_)
        return;
    Hypervisor &hv = dom_.hypervisor();
    // A pending deferred notify must not fire after the port closes.
    bell_.reset();
    // In-flight data grants first, then the ring page itself.
    for (GrantRef gref : mapped_grefs_)
        hv.grantUnmap(dom_, *frontend_, gref);
    mapped_grefs_.clear();
    pmap_.unmapAll();
    ring_.reset();
    hv.grantUnmap(dom_, *frontend_, ring_grant_);
    frontend_ = nullptr;
}

void
Blkback::complete(u64 id, u8 status)
{
    CHECK(ring_);
    // The blkif response slot has no flow field on the wire; the
    // frontend restores attribution from its Pending map keyed by the
    // echoed request id, so this hop does not lose the flow.
    // mirage-lint: allow(flow-scope-hop) flow restored via rsp id
    Cstruct rsp = ring_->startResponse().value();
    rsp.setLe64(BlkifWire::rspId, id);
    rsp.setU8(BlkifWire::rspStatus, status);
    if (ring_->pushResponses()) {
        if (sim::tuning().doorbellBatching && bell_)
            bell_->ring();
        else
            dom_.hypervisor().events().notify(dom_, port_);
    }
}

u32
Blkback::flowTrack()
{
    if (track_ == 0) {
        if (auto *tr = dom_.engine().tracer();
            tr && tr->enabled())
            track_ = tr->track(dom_.name() + "/blkback");
    }
    return track_;
}

void
Blkback::onEvent()
{
    if (!ring_)
        return; // event raced with disconnect
    Hypervisor &hv = dom_.hypervisor();
    const auto &c = sim::costs();
    trace::ProfScope pscope(dom_.engine().profiler(), "hyp/blkback");
    if (frontend_) {
        if (auto *s = frontend_->stats())
            s->noteRing("blkback", ring_->unconsumedRequests(),
                        RingLayout::slotCount);
    }
    trace::FlowTracker *fl = dom_.engine().flows();
    if (fl && !fl->enabled())
        fl = nullptr;
    do {
        while (ring_->unconsumedRequests() > 0) {
            Cstruct req = ring_->takeRequest().value();
            u64 id = req.getLe64(BlkifWire::reqId);
            u8 op = req.getU8(BlkifWire::reqOp);
            u8 sectors = req.getU8(BlkifWire::reqSectors);
            bool persistent =
                (req.getU8(BlkifWire::reqFlags) &
                 BlkifWire::flagPersistent) != 0;
            std::size_t offset = req.getLe32(BlkifWire::reqOffset);
            u64 sector = req.getLe64(BlkifWire::reqSector);
            GrantRef gref = req.getLe32(BlkifWire::reqGrant);
            u64 flow = fl ? req.getLe32(BlkifWire::reqFlow) : 0;
            handled_++;
            dom_.vcpu().charge(c.backendPerRequest, "blkback.request",
                               trace::Cat::Hypervisor);
            if (flow)
                fl->stageBegin(flow, "blkback", dom_.engine().now(),
                               flowTrack());

            if (sectors == 0 || sectors > BlkifWire::maxSectors) {
                if (flow)
                    fl->stageEnd(flow, "blkback", dom_.engine().now(),
                                 flowTrack());
                complete(id, BlkifWire::statusError);
                continue;
            }
            bool write = op == BlkifWire::opWrite;
            // Persistent grants are mapped through the cache and stay
            // mapped (always readwrite — the pool issues writable
            // grants); one-shot grants map here and unmap in finish().
            auto page = persistent
                            ? pmap_.map(gref)
                            : hv.grantMap(dom_, *frontend_, gref, !write);
            std::size_t bytes =
                std::size_t(sectors) * BlkifWire::sectorBytes;
            if (page.ok() && offset + bytes > page.value().length()) {
                if (!persistent)
                    hv.grantUnmap(dom_, *frontend_, gref);
                page = Result<Cstruct>(
                    boundsError("blk request outside granted region"));
            }
            if (!page.ok()) {
                if (flow)
                    fl->stageEnd(flow, "blkback", dom_.engine().now(),
                                 flowTrack());
                complete(id, BlkifWire::statusError);
                continue;
            }
            Cstruct data = page.value().sub(offset, bytes);
            if (!persistent)
                mapped_grefs_.push_back(gref);
            inflight_++;
            auto finish = [this, id, gref, persistent, flow](Status st) {
                inflight_--;
                sim::Engine &eng = dom_.engine();
                if (flow) {
                    if (auto *f = eng.flows())
                        f->stageEnd(flow, "blkback", eng.now(),
                                    flowTrack());
                }
                if (!frontend_)
                    return; // disconnect() already unmapped everything
                if (!persistent) {
                    auto it = std::find(mapped_grefs_.begin(),
                                        mapped_grefs_.end(), gref);
                    if (it != mapped_grefs_.end())
                        mapped_grefs_.erase(it);
                    dom_.hypervisor().grantUnmap(dom_, *frontend_, gref);
                }
                complete(id, st.ok() ? BlkifWire::statusOk
                                     : BlkifWire::statusError);
                // Requests pushed while req_event was parked are picked
                // up here; the last completion re-arms the event.
                onEvent();
            };
            // The disk service chain (and ultimately finish) runs
            // under the request's flow via engine ambient propagation.
            trace::FlowScope scope(fl, flow);
            if (write)
                disk_.writeAsync(sector, sectors, data, finish);
            else
                disk_.readAsync(sector, sectors, data, finish);
        }
        // While requests are in flight every completion re-enters this
        // drain, so the ring needs no doorbells: park req_event until
        // the queue runs dry.
        if (sim::tuning().doorbellBatching && inflight_ > 0) {
            ring_->suppressRequestEvents();
            break;
        }
    } while (ring_->finalCheckForRequests());
}

} // namespace mirage::xen
