/**
 * @file
 * Tests for the persistent-grant, batched-doorbell datapath: grant pool
 * reuse and exhaustion fallback, backend map-cache eviction, doorbell
 * suppression under polling, ring event suppression across counter
 * wraparound, rx-stall accounting, tx chain abort, and a checker-audited
 * teardown with persistent grants live.
 */

#include <gtest/gtest.h>

#include <utility>

#include "base/rand.h"
#include "check/check.h"
#include "drivers/blkif.h"
#include "drivers/netif.h"
#include "hypervisor/ring.h"
#include "sim/tuning.h"
#include "trace/flow.h"

namespace mirage::drivers {
namespace {

/** DriversTest-style rig that also restores the tuning table. */
class DatapathTest : public ::testing::Test
{
  protected:
    DatapathTest()
        : saved_tuning_(sim::tuning()), hv(engine),
          bridge(engine, "br0"),
          dom0(hv.createDomain("dom0", xen::GuestKind::LinuxMinimal, 512)),
          netback(dom0, bridge)
    {
    }

    ~DatapathTest() override { sim::tuning() = saved_tuning_; }

    sim::Tuning saved_tuning_;
    sim::Engine engine;
    xen::Hypervisor hv;
    xen::Bridge bridge;
    xen::Domain &dom0;
    xen::Netback netback;

    static xen::MacBytes
    mac(u8 last)
    {
        return {0x00, 0x16, 0x3e, 0x00, 0x00, last};
    }

    static Cstruct
    frameTo(Netif &dst, Netif &src, const std::string &payload)
    {
        Cstruct page = src.allocTxPage().value();
        Cstruct f = page.sub(0, 14 + payload.size());
        for (int i = 0; i < 6; i++) {
            f.setU8(std::size_t(i), dst.mac()[std::size_t(i)]);
            f.setU8(std::size_t(6 + i), src.mac()[std::size_t(i)]);
        }
        f.setBe16(12, 0x0800);
        for (std::size_t i = 0; i < payload.size(); i++)
            f.setU8(14 + i, u8(payload[i]));
        return f;
    }
};

// ---- Grant pool -------------------------------------------------------------

TEST_F(DatapathTest, PoolReusesPagesAndFailsCleanlyAtCapacity)
{
    sim::tuning().frontendPoolPages = 4;
    xen::Domain &uk = hv.createDomain("uk", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot(uk);
    GrantPool pool(boot, dom0.id());

    // Fill the pool; every page carries a live grant.
    std::vector<Cstruct> held;
    for (int i = 0; i < 4; i++)
        held.push_back(pool.acquirePage().value());
    EXPECT_EQ(pool.issued(), 4u);
    EXPECT_EQ(uk.grantTable().activeGrants(), 4u);
    EXPECT_EQ(pool.freePages(), 0u);

    // At capacity with every page busy: acquire must fail (the caller
    // falls back to a one-shot grant), never grow past the cap.
    EXPECT_FALSE(pool.acquirePage().ok());
    EXPECT_EQ(pool.pooledPages(), 4u);

    // Dropping the views frees the pages; reacquisition reuses the
    // existing grants instead of issuing new ones.
    held.clear();
    EXPECT_EQ(pool.freePages(), 4u);
    Cstruct page = pool.acquirePage().value();
    EXPECT_EQ(pool.issued(), 4u)
        << "reacquire must not issue a fresh grant";
    EXPECT_EQ(uk.grantTable().activeGrants(), 4u);

    // regionFor resolves the pooled page to its persistent grant.
    GrantPool::Region region = pool.regionFor(page.sub(128, 64));
    EXPECT_TRUE(region.persistent);
    EXPECT_EQ(region.offset, 128u);
    EXPECT_GT(pool.reused(), 0u);
}

TEST_F(DatapathTest, PoolAcquireMatchesFullRoundRobinScan)
{
    // Differential check of acquirePage against a full scan: from just
    // after the page last handed out, round robin, the first page that
    // passes bufferIsFree (the pool's own free predicate) wins; with
    // none free the pool grows to its cap, then fails. Random borrows,
    // drops and backend maps reach every page state, including pages
    // whose lease died while a stale view still pins them.
    constexpr std::size_t kCap = 16;
    sim::tuning().frontendPoolPages = kCap;
    xen::Domain &uk = hv.createDomain("uk", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot(uk);
    GrantPool pool(boot, dom0.id());

    struct Page
    {
        const Buffer *buf;
        xen::GrantRef gref;
    };
    std::vector<Page> pages; // in the pool's order
    std::size_t hint = 0;
    std::vector<Cstruct> borrowed;
    std::vector<std::pair<xen::GrantRef, Cstruct>> maps;
    std::vector<Cstruct> stale; // backend views kept past their unmap
    Rng rng(7);
    auto takeAny = [&rng](auto &v) {
        std::size_t i = std::size_t(rng.below(v.size()));
        auto out = std::move(v[i]);
        v[i] = std::move(v.back());
        v.pop_back();
        return out;
    };
    std::size_t reused = 0, exhausted = 0;
    for (int step = 0; step < 4000; step++) {
        switch (rng.below(6)) {
          case 0:
          case 1: {
            std::size_t n = pages.size(), expect = n;
            for (std::size_t i = 0; i < n; i++) {
                if (pool.bufferIsFree(pages[(hint + i) % n].buf)) {
                    expect = (hint + i) % n;
                    break;
                }
            }
            Result<Cstruct> got = pool.acquirePage();
            if (expect == n && n == kCap) {
                ASSERT_FALSE(got.ok()) << "step " << step;
                exhausted++;
                break;
            }
            ASSERT_TRUE(got.ok()) << "step " << step;
            const Buffer *buf = got.value().buffer().get();
            if (expect == n) {
                pages.push_back({buf, pool.regionFor(got.value()).gref});
            } else {
                ASSERT_EQ(buf, pages[expect].buf)
                    << "step " << step << ": expected page " << expect;
                hint = (expect + 1) % n;
                reused++;
            }
            if (rng.below(3) != 0)
                borrowed.push_back(got.value()); // else dropped at once
            break;
          }
          case 2:
            if (!borrowed.empty())
                takeAny(borrowed);
            break;
          case 3:
            if (!pages.empty()) {
                xen::GrantRef gref = pages[rng.below(pages.size())].gref;
                auto m = hv.grantMap(dom0, uk, gref, true);
                ASSERT_TRUE(m.ok());
                maps.emplace_back(gref, m.value());
            }
            break;
          case 4:
            if (!maps.empty()) {
                auto [gref, view] = takeAny(maps);
                ASSERT_TRUE(hv.grantUnmap(dom0, uk, gref).ok());
                if (rng.below(2) == 0)
                    stale.push_back(view);
            }
            break;
          case 5:
            if (!stale.empty())
                takeAny(stale);
            break;
        }
    }
    EXPECT_EQ(pages.size(), kCap);
    EXPECT_GT(reused, 500u);
    EXPECT_GT(exhausted, 0u);
    for (auto &[gref, view] : maps)
        ASSERT_TRUE(hv.grantUnmap(dom0, uk, gref).ok());
}

TEST_F(DatapathTest, RegistryAtCapRefusesWhenBusyAndEvictsColdestIdle)
{
    sim::tuning().frontendRegistryCap = 4;
    xen::Domain &uk = hv.createDomain("uk", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot(uk);
    GrantPool pool(boot, dom0.id());
    xen::GrantTable &gt = uk.grantTable();
    auto active = [&](xen::GrantRef ref) {
        if (!gt.mapFor(dom0.id(), ref, false).ok())
            return false;
        EXPECT_TRUE(gt.unmapFor(dom0.id(), ref).ok());
        return true;
    };

    // Register A, B, C, D (D most recent); the app keeps every buffer.
    std::vector<Cstruct> apps;
    std::vector<xen::GrantRef> refs;
    for (int i = 0; i < 4; i++) {
        apps.push_back(Cstruct::create(8192));
        GrantPool::Region r = pool.regionFor(apps.back().sub(100, 50));
        ASSERT_TRUE(r.persistent);
        refs.push_back(r.gref);
    }
    Cstruct e = Cstruct::create(8192);
    EXPECT_FALSE(pool.regionFor(e).persistent)
        << "every entry busy: refuse rather than revoke";
    EXPECT_EQ(pool.registeredBuffers(), 4u);
    EXPECT_EQ(pool.issued(), 4u);

    // One idle entry (C): the new buffer takes its place.
    apps[2] = Cstruct();
    EXPECT_TRUE(pool.regionFor(e).persistent);
    EXPECT_EQ(pool.registeredBuffers(), 4u);
    EXPECT_FALSE(active(refs[2]));
    EXPECT_TRUE(active(refs[0]));
    EXPECT_TRUE(active(refs[1]));
    EXPECT_TRUE(active(refs[3]));

    // Two idle entries (A coldest, then D): only A goes.
    apps[0] = Cstruct();
    apps[3] = Cstruct();
    EXPECT_TRUE(pool.regionFor(Cstruct::create(8192)).persistent);
    EXPECT_EQ(pool.registeredBuffers(), 4u);
    EXPECT_FALSE(active(refs[0]));
    EXPECT_TRUE(active(refs[1]));
    EXPECT_TRUE(active(refs[3]));
}

TEST_F(DatapathTest, RegistryOfMappedEntriesRefusesWithoutWalking)
{
    sim::tuning().frontendRegistryCap = 4;
    xen::Domain &uk = hv.createDomain("uk", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot(uk);
    GrantPool pool(boot, dom0.id());
    xen::GrantTable &gt = uk.grantTable();

    // Register A, B, C, D (D most recent). The app lets go of every
    // buffer, but the backend keeps each grant mapped, as a persistent
    // map cache does.
    std::vector<xen::GrantRef> refs;
    for (int i = 0; i < 4; i++) {
        Cstruct app = Cstruct::create(8192);
        GrantPool::Region r = pool.regionFor(app.sub(100, 50));
        ASSERT_TRUE(r.persistent);
        refs.push_back(r.gref);
        EXPECT_EQ(gt.idleRegistryGrants(), 1u) << "the new entry";
        ASSERT_TRUE(gt.mapFor(dom0.id(), r.gref, false).ok());
        EXPECT_EQ(gt.idleRegistryGrants(), 0u);
    }
    // A second map of A moves nothing; its unmap leaves A mapped.
    ASSERT_TRUE(gt.mapFor(dom0.id(), refs[0], false).ok());
    ASSERT_TRUE(gt.unmapFor(dom0.id(), refs[0]).ok());
    EXPECT_EQ(gt.idleRegistryGrants(), 0u);
    // Pooled pages are not registry grants.
    ASSERT_TRUE(pool.acquirePage().ok());
    EXPECT_EQ(gt.idleRegistryGrants(), 0u);

    for (int i = 0; i < 3; i++)
        EXPECT_FALSE(pool.regionFor(Cstruct::create(8192)).persistent)
            << "every entry mapped: refuse rather than revoke";
    EXPECT_EQ(pool.registryWalks(), 0u) << "refused without a walk";
    EXPECT_EQ(pool.registeredBuffers(), 4u);

    // D and B unmap: B is the colder idle entry, so B goes.
    ASSERT_TRUE(gt.unmapFor(dom0.id(), refs[3]).ok());
    ASSERT_TRUE(gt.unmapFor(dom0.id(), refs[1]).ok());
    EXPECT_EQ(gt.idleRegistryGrants(), 2u);
    Cstruct fresh = Cstruct::create(8192);
    GrantPool::Region r = pool.regionFor(fresh);
    EXPECT_TRUE(r.persistent);
    EXPECT_EQ(pool.registryWalks(), 1u);
    EXPECT_EQ(pool.registeredBuffers(), 4u);
    EXPECT_EQ(gt.mapCountOf(refs[1]), 0u);
    EXPECT_FALSE(gt.mapFor(dom0.id(), refs[1], false).ok())
        << "B was revoked";
    EXPECT_EQ(gt.idleRegistryGrants(), 2u) << "D and the new entry";

    // drain() revokes the idle entries and skips the mapped ones.
    pool.drain();
    EXPECT_EQ(gt.idleRegistryGrants(), 0u);
    EXPECT_EQ(gt.mapCountOf(refs[0]), 1u);
    // A mapped entry that outlives the pool still counts once unmapped,
    // until teardown drops every entry.
    ASSERT_TRUE(gt.unmapFor(dom0.id(), refs[0]).ok());
    EXPECT_EQ(gt.idleRegistryGrants(), 1u);
    gt.releaseAll();
    EXPECT_EQ(gt.idleRegistryGrants(), 0u);
}

TEST_F(DatapathTest, RecycleListenersMayUnsubscribeWhileFiring)
{
    xen::Domain &uk = hv.createDomain("uk", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot(uk);
    GrantPool pool(boot, dom0.id());
    auto returnPage = [&] { (void)pool.acquirePage().value(); };

    int self_calls = 0, victim_calls = 0, late_calls = 0;
    u64 self = 0, victim = 0;
    self = pool.addRecycleListener([&] {
        self_calls++;
        pool.removeRecycleListener(self);
        pool.removeRecycleListener(victim);
        // Subscribing while firing may grow the list under the loop.
        for (int i = 0; i < 16; i++)
            pool.addRecycleListener([&] { late_calls++; });
    });
    victim = pool.addRecycleListener([&] { victim_calls++; });

    returnPage();
    EXPECT_EQ(self_calls, 1);
    EXPECT_EQ(victim_calls, 0) << "removed before its turn came";
    EXPECT_EQ(late_calls, 0) << "added during this round";
    returnPage();
    EXPECT_EQ(self_calls, 1) << "removed from inside its own callback";
    EXPECT_EQ(victim_calls, 0);
    EXPECT_EQ(late_calls, 16);
}

TEST_F(DatapathTest, TrafficFallsBackToOneShotGrantsWithoutPool)
{
    // An empty pool (capacity 0) forces the one-shot path end to end:
    // traffic must still flow, with no persistent grants issued.
    sim::tuning().frontendPoolPages = 0;
    sim::tuning().frontendRegistryCap = 0;
    xen::Domain &da = hv.createDomain("a", xen::GuestKind::Unikernel, 64);
    xen::Domain &db = hv.createDomain("b", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot_a(da), boot_b(db);
    Netif nif_a(boot_a, netback, mac(1));
    Netif nif_b(boot_b, netback, mac(2));

    nif_b.onFrame([](Cstruct) {});
    for (int i = 0; i < 8; i++)
        nif_a.writeFrame(frameTo(nif_b, nif_a, "oneshot"));
    engine.run();
    EXPECT_EQ(nif_a.txCompleted(), 8u);
    EXPECT_EQ(nif_b.rxDelivered(), 8u);
    EXPECT_EQ(nif_a.grantPool().issued(), 0u);
    EXPECT_EQ(nif_a.grantPool().reused(), 0u);
}

// ---- Backend map cache ------------------------------------------------------

TEST_F(DatapathTest, BackendMapCacheEvictsLruAtCap)
{
    sim::tuning().backendMapCacheCap = 4;
    xen::Domain &uk = hv.createDomain("uk", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot(uk);
    xen::VirtualDisk disk(engine, "d0", 1u << 16);
    xen::Blkback back(dom0, disk);
    Blkif blk(boot, back);

    // Eight distinct pooled pages → eight distinct persistent grefs.
    std::vector<Cstruct> pages;
    for (int i = 0; i < 8; i++)
        pages.push_back(blk.allocPage().value());
    for (int i = 0; i < 8; i++) {
        auto w = blk.write(u64(i) * 8, 8, pages[std::size_t(i)]);
        engine.run();
        ASSERT_TRUE(w->resolvedOk()) << "write " << i;
    }
    EXPECT_LE(back.mapCache().size(), 4u)
        << "cache must stay within backendMapCacheCap";
    EXPECT_GE(back.mapCache().evictions(), 4u);
    EXPECT_EQ(back.mapCache().misses(), 8u);

    // An evicted gref is re-mapped transparently on next use.
    u64 misses_before = back.mapCache().misses();
    auto r = blk.read(0, 8, pages[0]);
    engine.run();
    ASSERT_TRUE(r->resolvedOk());
    EXPECT_EQ(back.mapCache().misses(), misses_before + 1)
        << "touching an evicted mapping pays one re-map";

    // A hot gref keeps hitting the cache.
    u64 hits_before = back.mapCache().hits();
    auto r2 = blk.read(0, 8, pages[0]);
    engine.run();
    ASSERT_TRUE(r2->resolvedOk());
    EXPECT_GT(back.mapCache().hits(), hits_before);
}

// ---- Doorbell batching / polling --------------------------------------------

TEST_F(DatapathTest, PollingSendsFewerDoorbellsThanPerPushNotify)
{
    xen::Domain &da = hv.createDomain("a", xen::GuestKind::Unikernel, 64);
    xen::Domain &db = hv.createDomain("b", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot_a(da), boot_b(db);
    Netif nif_a(boot_a, netback, mac(1));
    Netif nif_b(boot_b, netback, mac(2));
    nif_b.onFrame([](Cstruct) {});

    constexpr int burst = 64;

    // Baseline: every ring push rings its doorbell.
    sim::tuning().doorbellBatching = false;
    u64 before = hv.events().notifications();
    for (int i = 0; i < burst; i++)
        nif_a.writeFrame(frameTo(nif_b, nif_a, "x"));
    engine.run();
    u64 unbatched = hv.events().notifications() - before;
    ASSERT_EQ(nif_b.rxDelivered(), u64(burst));

    // Batched: consumers park the producers' events and poll, so a
    // steady burst costs almost no notifies — and strictly fewer than
    // one per frame (the tentpole's notifies/packet < 1 criterion).
    sim::tuning().doorbellBatching = true;
    before = hv.events().notifications();
    for (int i = 0; i < burst; i++)
        nif_a.writeFrame(frameTo(nif_b, nif_a, "x"));
    engine.run();
    u64 batched = hv.events().notifications() - before;
    ASSERT_EQ(nif_b.rxDelivered(), 2u * burst);

    EXPECT_LT(batched, u64(burst));
    EXPECT_LT(batched, unbatched);
}

TEST_F(DatapathTest, BlkBurstCompletesWithFewDoorbells)
{
    xen::Domain &uk = hv.createDomain("uk", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot(uk);
    xen::VirtualDisk disk(engine, "d0", 1u << 20);
    xen::Blkback back(dom0, disk);
    Blkif blk(boot, back);

    u64 before = hv.events().notifications();
    std::vector<rt::PromisePtr> ps;
    std::vector<Cstruct> pages;
    for (u32 i = 0; i < xen::RingLayout::slotCount; i++) {
        Cstruct p = blk.allocPage().value();
        pages.push_back(p);
        ps.push_back(blk.read(u64(i) * 8, 8, p));
    }
    engine.run();
    for (auto &p : ps)
        ASSERT_TRUE(p->resolvedOk());
    // Unbatched, the burst would cost two notifies per request (one
    // per ring push each way); parked events cut that far down.
    EXPECT_LT(hv.events().notifications() - before,
              u64(xen::RingLayout::slotCount));
}

// ---- Ring event suppression across wraparound -------------------------------

TEST_F(DatapathTest, EventSuppressionSurvivesCounterWraparound)
{
    // Start both ends 16 slots before the u32 counters wrap, so every
    // park/re-arm below crosses 0xffffffff.
    Cstruct page = Cstruct::create(xen::RingLayout::pageBytes());
    xen::SharedRing shared(page);
    shared.init();
    const u32 base = 0xfffffff0u;
    shared.setReqProd(base);
    shared.setRspProd(base);
    shared.setReqEvent(base + 1);
    shared.setRspEvent(base + 1);
    xen::FrontRing front(page);
    xen::BackRing back(page);
    front.resume();
    back.resume();

    // Armed consumer: publishing across the wrap still asks to notify.
    for (u32 i = 0; i < 16; i++)
        ASSERT_TRUE(front.startRequest().ok());
    EXPECT_TRUE(front.pushRequests());

    // Backend drains past the wrap, parks req_event, and responds (the
    // responses free the frontend's flow-control window).
    for (u32 i = 0; i < 16; i++)
        ASSERT_TRUE(back.takeRequest().ok());
    back.suppressRequestEvents();
    for (u32 i = 0; i < 16; i++)
        ASSERT_TRUE(back.startResponse().ok());
    EXPECT_TRUE(back.pushResponses()) << "rsp_event was still armed";
    for (u32 i = 0; i < 16; i++)
        ASSERT_TRUE(front.takeResponse().ok());

    // Requests racing in against the parked event must not ask for a
    // doorbell...
    for (u32 i = 0; i < 8; i++)
        ASSERT_TRUE(front.startRequest().ok());
    EXPECT_FALSE(front.pushRequests())
        << "parked req_event must suppress the notify across the wrap";
    // ... but the re-arm still sees them (the poller's idle exit).
    EXPECT_TRUE(back.finalCheckForRequests());
    for (u32 i = 0; i < 8; i++)
        ASSERT_TRUE(back.takeRequest().ok());
    EXPECT_FALSE(back.finalCheckForRequests());

    // Same dance on the response side: the frontend parks rsp_event,
    // the backend's pushes go silent, the final check re-arms.
    front.suppressResponseEvents();
    for (u32 i = 0; i < 8; i++)
        ASSERT_TRUE(back.startResponse().ok());
    EXPECT_FALSE(back.pushResponses())
        << "parked rsp_event must suppress the notify across the wrap";
    EXPECT_TRUE(front.finalCheckForResponses());
    for (u32 i = 0; i < 8; i++)
        ASSERT_TRUE(front.takeResponse().ok());
    EXPECT_FALSE(front.finalCheckForResponses());

    // Once re-armed, the next publish notifies again.
    ASSERT_TRUE(front.startRequest().ok());
    EXPECT_TRUE(front.pushRequests());
}

// ---- Rx stall accounting ----------------------------------------------------

TEST_F(DatapathTest, RxStallCountedAndRecoversOnRecycle)
{
    xen::Domain &da = hv.createDomain("a", xen::GuestKind::Unikernel, 64);
    xen::Domain &db = hv.createDomain("b", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot_a(da);
    // A small receive-side page pool: holding delivered frames starves
    // the rx repost path.
    pvboot::LayoutSpec small;
    small.ioPages = 48;
    pvboot::PVBoot boot_b(db, small);
    Netif nif_a(boot_a, netback, mac(1));
    Netif nif_b(boot_b, netback, mac(2));

    std::vector<Cstruct> held;
    nif_b.onFrame([&](Cstruct f) { held.push_back(f); });

    constexpr u64 burst = 80; // more frames than receive-side pages
    for (u64 i = 0; i < burst; i++)
        nif_a.writeFrame(frameTo(nif_b, nif_a, "stall"));
    engine.run();
    EXPECT_GE(nif_b.rxStalls(), 1u)
        << "running out of rx pages must be counted as a stall";
    EXPECT_LT(nif_b.rxDelivered(), burst);

    // Dropping the held views recycles pages; the recycle listener
    // restocks the ring and the backlogged frames drain — no frame was
    // lost to the stall.
    for (int round = 0; round < 16 && nif_b.rxDelivered() < burst;
         round++) {
        held.clear();
        engine.run();
    }
    EXPECT_EQ(nif_b.rxDelivered(), burst);
}

// ---- Tx chain abort ---------------------------------------------------------

TEST_F(DatapathTest, TxChainAbortFailsWholePacketAndRecovers)
{
    xen::Domain &da = hv.createDomain("a", xen::GuestKind::Unikernel, 64);
    xen::Domain &db = hv.createDomain("b", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot_a(da), boot_b(db);
    Netif nif_a(boot_a, netback, mac(1));
    Netif nif_b(boot_b, netback, mac(2));
    nif_b.onFrame([](Cstruct) {});
    xen::Netback::Vif *vif = netback.vifFor(da);
    ASSERT_NE(vif, nullptr);

    // A three-fragment packet whose first fragment map fails: the whole
    // chain must error out, not deliver a truncated packet.
    Cstruct header = frameTo(nif_b, nif_a, "hdr");
    Cstruct pay1 = nif_a.allocTxPage().value().sub(0, 100);
    Cstruct pay2 = nif_a.allocTxPage().value().sub(0, 200);
    vif->injectTxMapFailures(1);
    auto p = nif_a.writeFrameV({header, pay1, pay2});
    engine.run();
    EXPECT_TRUE(p->cancelled());
    EXPECT_EQ(nif_a.txErrors(), 1u);
    EXPECT_EQ(nif_b.rxDelivered(), 0u);

    // The rings and pools recover: the next packet flows normally.
    auto q = nif_a.writeFrame(frameTo(nif_b, nif_a, "after"));
    engine.run();
    EXPECT_TRUE(q->resolvedOk());
    EXPECT_EQ(nif_b.rxDelivered(), 1u);
}

TEST_F(DatapathTest, OversizedTxChainAbortsAndReleasesEveryLease)
{
    check::Checker ck{check::Checker::Mode::Count};
    engine.setChecker(&ck);
    ck.enable();
    xen::Domain &da = hv.createDomain("a", xen::GuestKind::Unikernel, 64);
    xen::Domain &db = hv.createDomain("b", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot_a(da), boot_b(db);
    Netif nif_a(boot_a, netback, mac(1));
    Netif nif_b(boot_b, netback, mac(2));
    nif_b.onFrame([](Cstruct) {});

    std::size_t free_before = nif_a.grantPool().freePages();
    {
        // 33 fragment views of one pooled page: one slot longer than
        // the ring can ever hold, so writeFrameV must fail the chain
        // up front — and hand the page lease back.
        Cstruct page = nif_a.allocTxPage().value();
        std::vector<Cstruct> frags;
        for (std::size_t i = 0; i <= xen::RingLayout::slotCount; i++)
            frags.push_back(page.sub(i * 4, 4));
        auto p = nif_a.writeFrameV(frags);
        EXPECT_TRUE(p->cancelled());
        EXPECT_GE(nif_a.txErrors(), 1u);
    }
    // Our views are gone; the checker's deferred
    // tx.abort_leaked_lease audit runs inside engine.run() and must
    // stay silent, with the aborted page back on the pool free list
    // (it was allocated fresh, so the free count grows by one).
    engine.run();
    EXPECT_EQ(ck.violations(check::Subsystem::Net), 0u) << ck.report();
    EXPECT_EQ(nif_a.grantPool().freePages(), free_before + 1);

    // The interface is still healthy afterwards.
    auto q = nif_a.writeFrame(frameTo(nif_b, nif_a, "after"));
    engine.run();
    EXPECT_TRUE(q->resolvedOk());
    EXPECT_EQ(nif_b.rxDelivered(), 1u);
    engine.setChecker(nullptr);
}

// ---- Flow tracing across backend segmentation -------------------------------

TEST_F(DatapathTest, FlowRidesEveryDerivedTsoSegment)
{
    trace::FlowTracker fl;
    fl.enable();
    engine.setFlows(&fl);
    xen::Domain &da = hv.createDomain("a", xen::GuestKind::Unikernel, 64);
    xen::Domain &db = hv.createDomain("b", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot_a(da), boot_b(db);
    Netif nif_a(boot_a, netback, mac(1));
    Netif nif_b(boot_b, netback, mac(2));

    std::vector<u64> seen;
    nif_b.onFrame([&](Cstruct) { seen.push_back(fl.current()); });

    // Hand-build an eth+IPv4+TCP header so netback can segment: a
    // 6-MSS payload with gso = MSS must leave the backend as derived
    // frames of 2 MSS each (((pageSize - 54) / mss) * mss = 2920).
    constexpr std::size_t eth_hdr = 14, ip_hdr = 20, tcp_hdr = 20;
    constexpr std::size_t hdr_len = eth_hdr + ip_hdr + tcp_hdr;
    constexpr u16 mss = 1460;
    constexpr std::size_t payload = 6 * mss;
    Cstruct hdr = nif_a.allocTxPage().value().sub(0, hdr_len);
    for (int i = 0; i < 6; i++) {
        hdr.setU8(std::size_t(i), nif_b.mac()[std::size_t(i)]);
        hdr.setU8(std::size_t(6 + i), nif_a.mac()[std::size_t(i)]);
    }
    hdr.setBe16(12, 0x0800);
    hdr.setU8(eth_hdr, 0x45); // IPv4, ihl = 5
    hdr.setBe16(eth_hdr + 2, u16(ip_hdr + tcp_hdr + payload));
    hdr.setU8(eth_hdr + 9, 6);                // TCP
    hdr.setU8(eth_hdr + ip_hdr + 12, 0x50);   // data offset 5 words
    std::vector<Cstruct> frags{hdr};
    for (std::size_t left = payload; left > 0;) {
        Cstruct pg = nif_a.allocTxPage().value();
        std::size_t take = std::min(left, pg.length());
        frags.push_back(pg.sub(0, take));
        left -= take;
    }

    TxOffload off;
    off.gsoSize = mss;
    off.csumBlank = true;
    trace::FlowId flow = fl.begin("tso", engine.now());
    auto p = nif_a.writeFrameV(frags, off);
    fl.end(flow, engine.now());
    fl.setCurrent(0);
    engine.run();
    EXPECT_TRUE(p->resolvedOk());

    // Every derived segment must arrive under the chain's flow.
    ASSERT_EQ(seen.size(), 3u);
    for (u64 f : seen)
        EXPECT_EQ(f, flow);

    // The completed flow records one netback_tx stage for the chain.
    bool found = false;
    for (const trace::FlowTracker::Flow &f : fl.recent())
        if (f.id == flow)
            for (const trace::FlowTracker::Stage &s : f.stages)
                if (s.name == "netback_tx") {
                    found = true;
                    EXPECT_EQ(s.count, 1u);
                }
    EXPECT_TRUE(found) << "flow never crossed the netback_tx stage";
    engine.setFlows(nullptr);
}

// ---- Checker-audited teardown -----------------------------------------------

TEST(CheckedDatapathTest, TeardownWithLivePersistentGrantsIsClean)
{
    // Drive net and block traffic so persistent grants and backend map
    // caches are live, then tear the guests down: the LIFO shutdown
    // ordering (backend unmaps cached grants before the pool revokes
    // them) must keep the checker's audits silent.
    sim::Engine engine;
    check::Checker ck{check::Checker::Mode::Count};
    engine.setChecker(&ck);
    ck.enable();
    xen::Hypervisor hv{engine};
    xen::Bridge bridge(engine, "br0");
    xen::Domain &dom0 =
        hv.createDomain("dom0", xen::GuestKind::LinuxMinimal, 512);
    xen::Netback netback(dom0, bridge);

    xen::Domain &da = hv.createDomain("a", xen::GuestKind::Unikernel, 64);
    xen::Domain &db = hv.createDomain("b", xen::GuestKind::Unikernel, 64);
    xen::Domain &dc = hv.createDomain("c", xen::GuestKind::Unikernel, 64);
    auto boot_a = std::make_unique<pvboot::PVBoot>(da);
    auto boot_b = std::make_unique<pvboot::PVBoot>(db);
    auto boot_c = std::make_unique<pvboot::PVBoot>(dc);
    auto nif_a = std::make_unique<Netif>(*boot_a, netback,
                                         xen::MacBytes{0, 0x16, 0x3e, 0,
                                                       0, 1});
    auto nif_b = std::make_unique<Netif>(*boot_b, netback,
                                         xen::MacBytes{0, 0x16, 0x3e, 0,
                                                       0, 2});
    xen::VirtualDisk disk(engine, "d0", 4096);
    xen::Blkback blkback(dom0, disk);
    auto blk = std::make_unique<Blkif>(*boot_c, blkback);

    nif_b->onFrame([](Cstruct) {});
    for (int i = 0; i < 16; i++) {
        Cstruct page = nif_a->allocTxPage().value();
        Cstruct f = page.sub(0, 20);
        for (int j = 0; j < 6; j++) {
            f.setU8(std::size_t(j), nif_b->mac()[std::size_t(j)]);
            f.setU8(std::size_t(6 + j), nif_a->mac()[std::size_t(j)]);
        }
        nif_a->writeFrame(f);
    }
    Cstruct bpage = blk->allocPage().value();
    blk->write(64, 8, bpage);
    blk->read(64, 8, bpage);
    engine.run();
    ASSERT_EQ(ck.violations(), 0u) << ck.report();
    ASSERT_GT(nif_a->grantPool().issued(), 0u);
    ASSERT_GT(blk->grantPool().issued(), 0u);

    // Persistent grants are still granted and mapped right now.
    da.shutdown(0);
    db.shutdown(0);
    dc.shutdown(0);
    EXPECT_EQ(ck.violations(), 0u) << ck.report();

    // Driver objects outlive their domains; destruction stays clean.
    nif_a.reset();
    nif_b.reset();
    blk.reset();
    boot_a.reset();
    boot_b.reset();
    boot_c.reset();
    EXPECT_EQ(ck.violations(), 0u) << ck.report();
}

} // namespace
} // namespace mirage::drivers
