#include "drivers/netif.h"

#include <optional>

#include "base/logging.h"
#include "check/check.h"
#include "sim/cost_model.h"
#include "sim/tuning.h"
#include "trace/boot.h"
#include "trace/flow.h"
#include "trace/profile.h"
#include "trace/trace.h"

namespace mirage::drivers {

Netif::Netif(pvboot::PVBoot &boot, xen::Netback &backend,
             xen::MacBytes mac)
    : boot_(boot), mac_(mac)
{
    xen::Domain &dom = boot_.domain();
    xen::Domain &back_dom = backend.backendDomain();
    backend_domid_ = back_dom.id();
    xen::Hypervisor &hv = dom.hypervisor();

    tx_ring_page_ = Cstruct::create(xen::RingLayout::pageBytes());
    rx_ring_page_ = Cstruct::create(xen::RingLayout::pageBytes());
    xen::SharedRing(tx_ring_page_).init();
    xen::SharedRing(rx_ring_page_).init();
    tx_ring_ = std::make_unique<xen::FrontRing>(tx_ring_page_);
    rx_ring_ = std::make_unique<xen::FrontRing>(rx_ring_page_);
    if (auto *m = dom.engine().metrics()) {
        tx_ring_->attachMetrics(*m, "ring.netif.tx");
        rx_ring_->attachMetrics(*m, "ring.netif.rx");
    }
    tx_ring_->attachChecker(dom.engine().checker(), "ring.netif.tx");
    rx_ring_->attachChecker(dom.engine().checker(), "ring.netif.rx");

    xen::GrantRef tx_grant = dom.grantTable().grantAccess(
        back_dom.id(), tx_ring_page_, false);
    xen::GrantRef rx_grant = dom.grantTable().grantAccess(
        back_dom.id(), rx_ring_page_, false);

    auto [ftx, btx] = hv.events().connect(dom, back_dom);
    auto [frx, brx] = hv.events().connect(dom, back_dom);
    tx_port_ = ftx;
    rx_port_ = frx;
    dom.setPortHandler(tx_port_, [this] {
        boot_.domain().clearPending(tx_port_);
        onEvent();
    });
    dom.setPortHandler(rx_port_, [this] {
        boot_.domain().clearPending(rx_port_);
        onEvent();
    });

    // The pool registers its drain hook before the backend registers
    // disconnect(); hooks run LIFO, so the backend's cached persistent
    // maps are gone by the time the pool revokes its grants.
    pool_ = std::make_unique<GrantPool>(boot_, back_dom.id());
    recycle_listener_ = boot_.ioPages().addRecycleListener([this] {
        // Fired from a buffer destructor: defer the restock to the
        // engine so we never re-enter the page pool mid-release.
        if (rx_stalled_)
            scheduleRxRepost();
    });
    // Pooled pages recycle inside the GrantPool (their buffers never
    // return to the I/O page pool), so a stalled rx ring needs the
    // pool's own recycle event too.
    pool_recycle_listener_ = pool_->addRecycleListener([this] {
        if (rx_stalled_)
            scheduleRxRepost();
    });

    poller_ = std::make_unique<sim::Poller>(
        dom.engine(),
        [this] {
            return tx_ring_->unconsumedResponses() == 0 &&
                   rx_ring_->unconsumedResponses() == 0 &&
                   tx_wait_queue_.empty();
        },
        [this] {
            bool tx = drainTxResponses(true);
            bool rx = drainRxResponses(true);
            return tx || rx;
        },
        [this] {
            bool tx = tx_ring_->finalCheckForResponses();
            bool rx = rx_ring_->finalCheckForResponses();
            return tx || rx;
        });

    xen::Netback::Vif &vif = backend.connect(xen::NetConnectInfo{
        &dom, tx_grant, rx_grant, btx, brx, mac_,
        sim::tuning().tcpSegOffload, sim::tuning().csumOffload,
        poller_.get()});
    // The vif checked that it shares this domain's engine.
    tx_ring_->wakeOnPush(&vif.txPoller());
    postRxBuffers();

    // Structural connect work for the boot-phase breakdown: two shared
    // rings initialised, two ring pages granted, two event-channel
    // pairs wired.
    if (trace::BootTracker *boots = dom.engine().boots())
        boots->notePhaseOps(boots->current(), "device_connect", 6);
}

Netif::~Netif()
{
    pool_->removeRecycleListener(pool_recycle_listener_);
    boot_.ioPages().removeRecycleListener(recycle_listener_);
    if (repost_pending_)
        boot_.domain().engine().cancel(repost_event_);
}

Result<Cstruct>
Netif::allocTxPage()
{
    if (sim::tuning().persistentGrants) {
        auto page = pool_->acquirePage();
        if (page.ok())
            return page;
    }
    return boot_.ioPages().allocPage();
}

rt::PromisePtr
Netif::writeFrame(Cstruct frame)
{
    return writeFrameV({std::move(frame)});
}

u32
Netif::flowTrack()
{
    if (track_ == 0) {
        if (auto *tr = boot_.domain().engine().tracer();
            tr && tr->enabled())
            track_ = tr->track(boot_.domain().name() + "/netif");
    }
    return track_;
}

rt::PromisePtr
Netif::writeFrameV(const std::vector<Cstruct> &frags, TxOffload offload)
{
    auto p = rt::Promise::make();
    if (frags.empty()) {
        tx_errors_++;
        p->cancel();
        return p;
    }
    sim::Engine &engine = boot_.domain().engine();
    u64 flow = 0;
    if (auto *fl = engine.flows();
        fl && fl->enabled() && fl->current()) {
        flow = fl->current();
        fl->stageBegin(flow, "netif_tx", engine.now(), flowTrack());
    }
    // A chain longer than the whole ring can never be enqueued: fail
    // it now instead of parking it at the head of the wait queue,
    // where it would wedge every later frame forever.
    if (frags.size() > xen::RingLayout::slotCount) {
        abortTx(frags, p, flow);
        return p;
    }
    // Preserve ordering: queue behind earlier waiters, then behind a
    // full ring. Frames stay queued in the driver exactly as real
    // netfront holds skbs when the ring is full.
    if (!tx_wait_queue_.empty() ||
        tx_ring_->freeRequests() < frags.size()) {
        if (tx_wait_queue_.size() >= txQueueLimit) {
            abortTx(frags, p, flow);
            return p;
        }
        tx_wait_queue_.push_back(QueuedTx{frags, p, flow, offload});
        poller_->wake();
        return p;
    }
    enqueueOnRing(frags, p, flow, offload);
    return p;
}

void
Netif::abortTx(const std::vector<Cstruct> &frags, const rt::PromisePtr &p,
               u64 flow)
{
    tx_errors_++;
    sim::Engine &engine = boot_.domain().engine();
    if (flow) {
        if (auto *fl = engine.flows())
            fl->stageEnd(flow, "netif_tx", engine.now(), flowTrack());
    }
    // Chain-abort invariant: dropping the chain must return every
    // grant-pool lease its fragments held. The caller's frags vector
    // is still alive during this call, so the check runs after the
    // current event — by then only a leaked lease keeps a page busy.
    if (auto *ck = engine.checker(); ck && ck->enabled()) {
        std::vector<const Buffer *> bufs;
        bufs.reserve(frags.size());
        for (const Cstruct &f : frags)
            bufs.push_back(f.buffer().get());
        engine.after(Duration::nanos(0),
                     [this, bufs = std::move(bufs)] {
                         auto *c = boot_.domain()
                                       .hypervisor()
                                       .engine()
                                       .checker();
                         for (const Buffer *b : bufs)
                             if (!pool_->bufferIsFree(b))
                                 c->violation(
                                     check::Subsystem::Net,
                                     "tx.abort_leaked_lease",
                                     "aborted tx chain still holds a "
                                     "grant-pool page lease");
                     });
    }
    p->cancel();
}

bool
Netif::enqueueOnRing(const std::vector<Cstruct> &frags,
                     const rt::PromisePtr &p, u64 flow,
                     TxOffload offload, xen::DoorbellBatch *batch)
{
    xen::Domain &dom = boot_.domain();
    if (tx_ring_->freeRequests() < frags.size())
        return false;
    auto frame = std::make_shared<TxFrame>();
    frame->promise = p;
    frame->remaining = frags.size();
    frame->flow = flow;
    for (std::size_t i = 0; i < frags.size(); i++) {
        bool last = i + 1 == frags.size();
        Cstruct slot = tx_ring_->startRequest().value();
        u16 id = next_id_++;

        // Persistent path: name a region of a pooled/registered grant.
        // One-shot fallback: grant the fragment view itself (offset 0).
        // The offset field is le16, so deep views of large buffers
        // cannot ride a whole-buffer grant and fall back too.
        xen::GrantRef gref = 0;
        std::size_t offset = 0;
        bool persistent = false;
        if (sim::tuning().persistentGrants &&
            frags[i].bufferOffset() <= 0xffff) {
            GrantPool::Region region = pool_->regionFor(frags[i]);
            if (region.persistent) {
                gref = region.gref;
                offset = region.offset;
                persistent = true;
            }
        }
        if (!persistent) {
            gref = dom.grantTable().grantAccess(backend_domid_,
                                                frags[i], true);
            dom.vcpu().charge(sim::costs().grantIssue, "grant.issue",
                              trace::Cat::Hypervisor);
        }

        u16 flags = last ? 0 : xen::NetifWire::txflagMoreData;
        if (persistent)
            flags |= xen::NetifWire::txflagPersistent;
        // Offload metadata rides the chain's first slot only, like the
        // real protocol's leading extra-info slot.
        if (i == 0 && offload.csumBlank)
            flags |= xen::NetifWire::txflagCsumBlank;
        slot.setLe16(xen::NetifWire::txreqId, id);
        slot.setLe32(xen::NetifWire::txreqGrant, gref);
        slot.setLe16(xen::NetifWire::txreqOffset, u16(offset));
        slot.setLe16(xen::NetifWire::txreqLen, u16(frags[i].length()));
        slot.setLe16(xen::NetifWire::txreqFlags, flags);
        slot.setLe32(xen::NetifWire::txreqFlow, u32(flow));
        slot.setLe16(xen::NetifWire::txreqGsoSize,
                     i == 0 ? offload.gsoSize : 0);
        tx_pending_.emplace(id,
                            TxPending{frame, gref, frags[i], persistent});
    }

    if (tx_ring_->pushRequests()) {
        if (batch)
            batch->ring(tx_port_);
        else
            dom.hypervisor().events().notify(dom, tx_port_);
    }
    return true;
}

void
Netif::drainTxQueue()
{
    if (tx_wait_queue_.empty())
        return;
    xen::Domain &dom = boot_.domain();
    // One doorbell for the whole burst of queued frames.
    std::optional<xen::DoorbellBatch> batch;
    if (sim::tuning().doorbellBatching)
        batch.emplace(dom.hypervisor().events(), dom);
    while (!tx_wait_queue_.empty()) {
        QueuedTx &head = tx_wait_queue_.front();
        // Defensive: a chain the ring can never hold must not wedge
        // the queue head (writeFrameV refuses these up front).
        if (head.frags.size() > xen::RingLayout::slotCount) {
            QueuedTx dead = std::move(head);
            tx_wait_queue_.pop_front();
            abortTx(dead.frags, dead.promise, dead.flow);
            continue;
        }
        if (tx_ring_->freeRequests() < head.frags.size())
            break;
        enqueueOnRing(head.frags, head.promise, head.flow, head.offload,
                      batch ? &*batch : nullptr);
        tx_wait_queue_.pop_front();
    }
}

void
Netif::onFrame(std::function<void(Cstruct)> handler)
{
    rx_handler_ = std::move(handler);
}

void
Netif::scheduleRxRepost()
{
    if (repost_pending_)
        return;
    repost_pending_ = true;
    repost_event_ = boot_.domain().engine().after(
        Duration::nanos(0), [this] {
            repost_pending_ = false;
            postRxBuffers();
        });
}

void
Netif::postRxBuffers()
{
    xen::Domain &dom = boot_.domain();
    bool posted = false;
    bool starved = false;
    for (;;) {
        if (rx_posted_.size() >= xen::RingLayout::slotCount ||
            rx_ring_->freeRequests() == 0)
            break;
        // Find a page before claiming the ring slot — an abandoned
        // startRequest() would publish a garbage slot on the next push.
        Cstruct page;
        xen::GrantRef gref = 0;
        bool persistent = false;
        bool have_page = false;
        if (sim::tuning().persistentGrants) {
            if (auto pooled = pool_->acquirePage(); pooled.ok()) {
                page = pooled.value();
                GrantPool::Region region = pool_->regionFor(page);
                gref = region.gref;
                persistent = region.persistent;
                have_page = true;
            }
        }
        if (!have_page) {
            auto fresh = boot_.ioPages().allocPage();
            if (!fresh.ok()) {
                starved = true;
                break; // out of pages; restock on recycle
            }
            page = fresh.value();
            gref = dom.grantTable().grantAccess(backend_domid_, page,
                                                false);
            dom.vcpu().charge(sim::costs().grantIssue, "grant.issue",
                              trace::Cat::Hypervisor);
        }
        // Posted rx buffers carry no flow on purpose: attribution is
        // assigned by netback when it delivers into the slot (the
        // rxrspFlow stamp), not when the empty buffer is offered.
        // mirage-lint: allow(flow-scope-hop) rx post is pre-flow
        Cstruct slot = rx_ring_->startRequest().value();
        u16 id = next_id_++;
        slot.setLe16(xen::NetifWire::rxreqId, id);
        slot.setLe32(xen::NetifWire::rxreqGrant, gref);
        slot.setLe16(xen::NetifWire::rxreqFlags,
                     persistent ? xen::NetifWire::rxflagPersistent : 0);
        // Audited lease holder: rx_posted_ keeps the lease only until
        // the backend fills the buffer and deliverRx recycles it; the
        // PR 6 shadow checker verifies the recycle at runtime.
        // mirage-lint: allow(lease-escape) audited rx_posted_ holder
        rx_posted_.emplace(id, RxPosted{page, gref, persistent});
        posted = true;
    }
    if (starved) {
        if (!rx_stalled_) {
            rx_stalled_ = true;
            rx_stalls_++;
            if (!c_rx_stalls_) {
                if (auto *m =
                        dom.engine().metrics())
                    c_rx_stalls_ = &m->counter("netif.rx.stalls");
            }
            trace::bump(c_rx_stalls_);
        }
    } else {
        rx_stalled_ = false;
    }
    if (posted && rx_ring_->pushRequests())
        dom.hypervisor().events().notify(dom, rx_port_);
}

void
Netif::onEvent()
{
    // While traffic flows, park both rings' rsp_event and drain on the
    // poller's cadence: the backend's pushes then stop ringing
    // doorbells entirely until the device goes quiet.
    bool park = sim::tuning().doorbellBatching;
    drainTxResponses(park);
    drainRxResponses(park);
    if (park)
        poller_->kick();
}

bool
Netif::drainTxResponses(bool park)
{
    trace::ProfScope pscope(
        boot_.domain().engine().profiler(), "net/netif");
    bool any = false;
    do {
        for (u32 n = tx_ring_->unconsumedResponses(); n > 0; n--) {
            Cstruct rsp = tx_ring_->nextResponse();
            any = true;
            u16 id = rsp.getLe16(xen::NetifWire::txrspId);
            u8 status = rsp.getU8(xen::NetifWire::txrspStatus);
            auto it = tx_pending_.find(id);
            if (it == tx_pending_.end())
                continue;
            TxPending pending = std::move(it->second);
            tx_pending_.erase(it);
            if (!pending.persistent) {
                Status end =
                    boot_.domain().grantTable().endAccess(pending.gref);
                if (!end.ok())
                    warn("netif tx: endAccess: %s",
                         end.error().message.c_str());
            }
            TxFrame &frame = *pending.frame;
            if (status != xen::NetifWire::statusOk)
                frame.failed = true;
            // The frame settles only when its last fragment is acked —
            // and settles as a failure if *any* fragment failed, even a
            // non-final one.
            if (--frame.remaining > 0)
                continue;
            sim::Engine &engine = boot_.domain().engine();
            if (frame.flow) {
                if (auto *fl = engine.flows())
                    fl->stageEnd(frame.flow, "netif_tx", engine.now(),
                                 flowTrack());
            }
            // Continuations of the resolve belong to the frame's flow,
            // not to whatever flow the backend's notify carried.
            trace::FlowScope scope(frame.flow ? engine.flows() : nullptr,
                                   frame.flow);
            if (!frame.failed) {
                tx_completed_++;
                if (frame.promise)
                    frame.promise->resolve();
            } else {
                tx_errors_++;
                if (frame.promise)
                    frame.promise->cancel();
            }
        }
        if (park) {
            tx_ring_->suppressResponseEvents();
            break;
        }
    } while (tx_ring_->finalCheckForResponses());
    drainTxQueue();
    return any;
}

bool
Netif::drainRxResponses(bool park)
{
    trace::ProfScope pscope(
        boot_.domain().engine().profiler(), "net/netif");
    bool delivered = false;
    do {
        for (u32 n = rx_ring_->unconsumedResponses(); n > 0; n--) {
            Cstruct rsp = rx_ring_->nextResponse();
            u16 id = rsp.getLe16(xen::NetifWire::rxrspId);
            u16 len = rsp.getLe16(xen::NetifWire::rxrspLen);
            u8 status = rsp.getU8(xen::NetifWire::rxrspStatus);
            auto it = rx_posted_.find(id);
            if (it == rx_posted_.end())
                continue;
            RxPosted posted = std::move(it->second);
            rx_posted_.erase(it);
            if (!posted.persistent) {
                Status end =
                    boot_.domain().grantTable().endAccess(posted.gref);
                if (!end.ok())
                    warn("netif rx: endAccess: %s",
                         end.error().message.c_str());
            }
            delivered = true;
            if (status == xen::NetifWire::statusOk && rx_handler_ &&
                len <= posted.page.length()) {
                rx_delivered_++;
                // Restore the flow the backend stamped into the slot:
                // this drain may run off the poll timer, which carries
                // no flow of its own, so the stamp is the only tie
                // between the frame and its request.
                sim::Engine &engine =
                    boot_.domain().engine();
                u64 flow = rsp.getLe32(xen::NetifWire::rxrspFlow);
                trace::FlowScope scope(flow ? engine.flows() : nullptr,
                                       flow);
                // Zero-copy delivery: the stack gets a view of the
                // pool page; the page recycles when all views drop.
                rx_handler_(posted.page.sub(0, len));
            }
        }
        if (park) {
            rx_ring_->suppressResponseEvents();
            break;
        }
    } while (rx_ring_->finalCheckForResponses());
    if (delivered)
        postRxBuffers();
    return delivered;
}

} // namespace mirage::drivers
