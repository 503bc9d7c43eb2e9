#include "drivers/blkif.h"

#include "base/logging.h"
#include "sim/cost_model.h"
#include "sim/tuning.h"
#include "trace/boot.h"
#include "trace/flow.h"
#include "trace/trace.h"

namespace mirage::drivers {

Blkif::Blkif(pvboot::PVBoot &boot, xen::Blkback &backend)
    : boot_(boot), backend_domid_(backend.backendDomain().id()),
      // The pool registers its drain hook before backend.connect()
      // registers disconnect(): LIFO shutdown unmaps the backend's
      // cached grants first, then the pool revokes cleanly.
      pool_(std::make_unique<GrantPool>(boot, backend_domid_)),
      size_sectors_(backend.disk().sizeSectors())
{
    xen::Domain &dom = boot_.domain();
    xen::Domain &back_dom = backend.backendDomain();
    xen::Hypervisor &hv = dom.hypervisor();

    ring_page_ = Cstruct::create(xen::RingLayout::pageBytes());
    xen::SharedRing(ring_page_).init();
    ring_ = std::make_unique<xen::FrontRing>(ring_page_);
    if (auto *m = dom.engine().metrics()) {
        ring_->attachMetrics(*m, "ring.blkif");
        c_completed_ = &m->counter("blk.completed");
        c_errors_ = &m->counter("blk.errors");
    }
    ring_->attachChecker(dom.engine().checker(), "ring.blkif");

    xen::GrantRef ring_grant =
        dom.grantTable().grantAccess(back_dom.id(), ring_page_, false);
    auto [front_port, back_port] = hv.events().connect(dom, back_dom);
    port_ = front_port;
    dom.setPortHandler(port_, [this] {
        boot_.domain().clearPending(port_);
        onEvent();
    });
    poller_ = std::make_unique<sim::Poller>(
        dom.engine(),
        [this] {
            return ring_->unconsumedResponses() == 0 && wait_queue_.empty();
        },
        [this] { return drainResponses(true); },
        [this] { return ring_->finalCheckForResponses(); });
    backend.connect(dom, ring_grant, back_port, poller_.get());

    // Structural connect work for the boot-phase breakdown: one shared
    // ring initialised + granted, one event-channel pair wired.
    if (trace::BootTracker *boots = dom.engine().boots())
        boots->notePhaseOps(boots->current(), "device_connect", 3);
}

Result<Cstruct>
Blkif::allocPage()
{
    if (sim::tuning().persistentGrants) {
        auto page = pool_->acquirePage();
        if (page.ok())
            return page;
    }
    return boot_.ioPages().allocPage();
}

u32
Blkif::blkTrack()
{
    if (trace_track_ == 0) {
        if (auto *tr = boot_.domain().engine().tracer();
            tr && tr->enabled())
            trace_track_ = tr->track(boot_.domain().name() + "/blkif");
    }
    return trace_track_;
}

rt::PromisePtr
Blkif::submit(u8 op, u64 sector, u32 count, Cstruct page)
{
    xen::Domain &dom = boot_.domain();
    auto p = rt::Promise::make();

    if (count == 0 || count > xen::BlkifWire::maxSectors ||
        page.length() <
            std::size_t(count) * xen::BlkifWire::sectorBytes) {
        errors_++;
        trace::bump(c_errors_);
        p->cancel();
        return p;
    }
    sim::Engine &engine = dom.engine();
    u64 flow = 0;
    if (auto *fl = engine.flows();
        fl && fl->enabled() && fl->current()) {
        flow = fl->current();
        fl->stageBegin(flow, "blkif", engine.now(), blkTrack());
    }
    // Ring full (or earlier waiters): park in the driver queue, as a
    // real blkfront parks bios.
    if (!wait_queue_.empty() || ring_->freeRequests() == 0) {
        if (wait_queue_.size() >= waitQueueLimit) {
            errors_++;
            trace::bump(c_errors_);
            if (flow)
                engine.flows()->stageEnd(flow, "blkif", engine.now(),
                                         blkTrack());
            p->cancel();
            return p;
        }
        wait_queue_.push_back(
            Queued{op, sector, count, std::move(page), p, flow});
        poller_->wake();
        return p;
    }
    enqueueOnRing(op, sector, count, page, p, flow);
    return p;
}

bool
Blkif::enqueueOnRing(u8 op, u64 sector, u32 count, const Cstruct &page,
                     const rt::PromisePtr &p, u64 flow)
{
    xen::Domain &dom = boot_.domain();
    auto slot = ring_->startRequest();
    if (!slot.ok())
        return false;
    u64 id = next_id_++;
    bool write = op == xen::BlkifWire::opWrite;
    // Persistent path: name a region of a long-lived grant (pooled
    // page or registered buffer). The le32 offset field bounds how far
    // into a registered buffer a request can point.
    bool persistent = false;
    xen::GrantRef gref = 0;
    std::size_t offset = 0;
    if (sim::tuning().persistentGrants &&
        page.bufferOffset() <= 0xffffffff) {
        GrantPool::Region region = pool_->regionFor(page);
        if (region.persistent) {
            gref = region.gref;
            offset = region.offset;
            persistent = true;
        }
    }
    if (!persistent) {
        gref = dom.grantTable().grantAccess(backend_domid_, page, write);
        dom.vcpu().charge(sim::costs().grantIssue, "grant.issue",
                          trace::Cat::Hypervisor);
    }

    slot.value().setLe64(xen::BlkifWire::reqId, id);
    slot.value().setU8(xen::BlkifWire::reqOp, op);
    slot.value().setU8(xen::BlkifWire::reqSectors, u8(count));
    slot.value().setU8(xen::BlkifWire::reqFlags,
                       persistent ? xen::BlkifWire::flagPersistent : 0);
    slot.value().setLe32(xen::BlkifWire::reqOffset, u32(offset));
    slot.value().setLe64(xen::BlkifWire::reqSector, sector);
    slot.value().setLe32(xen::BlkifWire::reqGrant, gref);
    slot.value().setLe32(xen::BlkifWire::reqFlow, u32(flow));

    pending_.emplace(
        id, Pending{p, gref, page, op, count,
                    dom.engine().now(), flow});
    if (!persistent) {
        p->addFinalizer([this, gref] {
            Status st = boot_.domain().grantTable().endAccess(gref);
            if (!st.ok())
                warn("blkif: endAccess: %s", st.error().message.c_str());
        });
    }

    if (ring_->pushRequests())
        dom.hypervisor().events().notify(dom, port_);
    return true;
}

void
Blkif::drainWaitQueue()
{
    while (!wait_queue_.empty() && ring_->freeRequests() > 0) {
        Queued q = std::move(wait_queue_.front());
        wait_queue_.pop_front();
        enqueueOnRing(q.op, q.sector, q.count, q.page, q.promise,
                      q.flow);
    }
}

rt::PromisePtr
Blkif::read(u64 sector, u32 count, Cstruct page)
{
    return submit(xen::BlkifWire::opRead, sector, count, std::move(page));
}

rt::PromisePtr
Blkif::write(u64 sector, u32 count, Cstruct page)
{
    return submit(xen::BlkifWire::opWrite, sector, count,
                  std::move(page));
}

void
Blkif::onEvent()
{
    // While I/O is in flight, park rsp_event and drain on the poller's
    // cadence: the backend's completion pushes then stop ringing
    // doorbells until the device goes quiet.
    bool park = sim::tuning().doorbellBatching;
    drainResponses(park);
    if (park)
        poller_->kick();
}

bool
Blkif::drainResponses(bool park)
{
    bool any = false;
    do {
        for (u32 n = ring_->unconsumedResponses(); n > 0; n--) {
            Cstruct rsp = ring_->nextResponse();
            any = true;
            u64 id = rsp.getLe64(xen::BlkifWire::rspId);
            u8 status = rsp.getU8(xen::BlkifWire::rspStatus);
            auto it = pending_.find(id);
            if (it == pending_.end())
                continue;
            Pending pending = std::move(it->second);
            pending_.erase(it);
            sim::Engine &eng = boot_.domain().engine();
            if (auto *tr = eng.tracer(); tr && tr->enabled()) {
                if (trace_track_ == 0)
                    trace_track_ =
                        tr->track(boot_.domain().name() + "/blkif");
                tr->span(trace::Cat::Storage, "blk.request",
                         pending.submitted,
                         eng.now() - pending.submitted, trace_track_,
                         strprintf("\"op\":\"%s\",\"sectors\":%u",
                                   pending.op == xen::BlkifWire::opWrite
                                       ? "write"
                                       : "read",
                                   pending.count));
            }
            if (pending.flow) {
                if (auto *fl = eng.flows())
                    fl->stageEnd(pending.flow, "blkif", eng.now(),
                                 blkTrack());
            }
            // Completion continuations belong to the I/O's flow.
            trace::FlowScope scope(pending.flow ? eng.flows() : nullptr,
                                   pending.flow);
            if (status == xen::BlkifWire::statusOk) {
                completed_++;
                trace::bump(c_completed_);
                pending.promise->resolve();
            } else {
                errors_++;
                trace::bump(c_errors_);
                pending.promise->cancel();
            }
        }
        if (park) {
            ring_->suppressResponseEvents();
            break;
        }
    } while (ring_->finalCheckForResponses());
    drainWaitQueue();
    return any;
}

} // namespace mirage::drivers
