/**
 * @file
 * Tests for PVBoot: the Fig 2 address-space layout, slab and extent
 * allocators, I/O page pool recycling (Fig 4) and the heap-growth
 * backend models.
 */

#include <gtest/gtest.h>

#include <set>

#include "pvboot/pvboot.h"
#include "sim/cost_model.h"

namespace mirage::pvboot {
namespace {

class PvbootTest : public ::testing::Test
{
  protected:
    sim::Engine engine;
    xen::Hypervisor hv{engine};
};

// ---- Layout ----------------------------------------------------------------

TEST_F(PvbootTest, LayoutMatchesFig2)
{
    xen::Domain &d =
        hv.createDomain("uk", xen::GuestKind::Unikernel, 128);
    PVBoot boot(d);
    auto &pt = d.pageTables();

    // Null guard traps.
    const auto *null_page = pt.lookup(LayoutMap::nullGuardVpn);
    ASSERT_NE(null_page, nullptr);
    EXPECT_FALSE(null_page->perms.read);

    // Text is executable, not writable; data is the reverse.
    EXPECT_TRUE(pt.canExecute(LayoutMap::textVpn));
    EXPECT_FALSE(pt.canWrite(LayoutMap::textVpn));
    LayoutSpec spec;
    u64 data_vpn = LayoutMap::textVpn + spec.textPages;
    EXPECT_TRUE(pt.canWrite(data_vpn));
    EXPECT_FALSE(pt.canExecute(data_vpn));

    // I/O region and minor heap are writable, never executable.
    EXPECT_TRUE(pt.canWrite(LayoutMap::ioVpn));
    EXPECT_FALSE(pt.canExecute(LayoutMap::ioVpn));
    EXPECT_TRUE(pt.canWrite(LayoutMap::minorHeapVpn));

    // Guard page between data and stack.
    const auto *guard = pt.lookup(data_vpn + spec.dataPages);
    ASSERT_NE(guard, nullptr);
    EXPECT_EQ(guard->role, xen::PageRole::Guard);
}

TEST_F(PvbootTest, LayoutSealsCleanly)
{
    // No page in the standard layout is W+X, so sealing must succeed:
    // the unikernel's start-of-day promise (§2.3.3).
    xen::Domain &d =
        hv.createDomain("uk", xen::GuestKind::Unikernel, 64);
    PVBoot boot(d);
    EXPECT_TRUE(boot.seal().ok());
}

TEST_F(PvbootTest, LayoutCountsPtUpdates)
{
    xen::Domain &d =
        hv.createDomain("uk", xen::GuestKind::Unikernel, 64);
    PVBoot boot(d);
    // The full layout is tracked update-by-update (the CPU cost is
    // modelled by the toolstack's guest-init figure, not re-charged).
    EXPECT_GT(boot.layoutUpdates(), 4096u) << "I/O region + heaps";
    EXPECT_EQ(boot.layoutUpdates(), d.pageTables().updatesApplied());
}

TEST_F(PvbootTest, BootedLayoutIsAFewRuns)
{
    // The page tables store runs of equal pages, so a booted domain
    // costs O(regions), not one node per page of its 4,700-page layout.
    xen::Domain &d =
        hv.createDomain("uk", xen::GuestKind::Unikernel, 64);
    PVBoot boot(d);
    ASSERT_TRUE(boot.seal().ok());
    const auto &pt = d.pageTables();
    EXPECT_LE(pt.runCount(), 16u);
    EXPECT_EQ(pt.mappedPages(), boot.layoutUpdates());
}

// ---- Slab allocator ----------------------------------------------------------

TEST(SlabTest, AllocFreeReuse)
{
    SlabAllocator slab(4);
    void *a = slab.alloc(100); // rounds to 128
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(slab.bytesAllocated(), 128u);
    slab.free(a, 100);
    EXPECT_EQ(slab.bytesAllocated(), 0u);
    void *b = slab.alloc(100);
    EXPECT_EQ(a, b) << "freed object must be reused";
}

TEST(SlabTest, DistinctObjectsDoNotOverlap)
{
    SlabAllocator slab(4);
    std::set<void *> seen;
    for (int i = 0; i < 50; i++) {
        void *p = slab.alloc(64);
        ASSERT_NE(p, nullptr);
        EXPECT_TRUE(seen.insert(p).second) << "duplicate allocation";
    }
}

TEST(SlabTest, CapacityBounded)
{
    SlabAllocator slab(1); // one 4 kB page: 2 objects of 2048
    EXPECT_NE(slab.alloc(2048), nullptr);
    EXPECT_NE(slab.alloc(2048), nullptr);
    EXPECT_EQ(slab.alloc(2048), nullptr) << "capacity must bound slabs";
    EXPECT_EQ(slab.pagesInUse(), 1u);
}

TEST(SlabTest, RejectsOversizeAndZero)
{
    SlabAllocator slab(4);
    EXPECT_EQ(slab.alloc(0), nullptr);
    EXPECT_EQ(slab.alloc(4096), nullptr) << "above maxObject";
}

TEST(SlabTest, SizeClassSweep)
{
    SlabAllocator slab(64);
    for (std::size_t size = 1; size <= 2048; size += 37) {
        void *p = slab.alloc(size);
        ASSERT_NE(p, nullptr) << "size " << size;
        slab.free(p, size);
    }
    EXPECT_EQ(slab.bytesAllocated(), 0u);
}

// ---- Extent allocator ----------------------------------------------------------

TEST(ExtentTest, GrowsContiguously)
{
    ExtentAllocator ext(1000, 4);
    u64 prev = 0;
    for (int i = 0; i < 4; i++) {
        auto vpn = ext.growSuperpage();
        ASSERT_TRUE(vpn.ok());
        if (i > 0) {
            EXPECT_EQ(vpn.value(), prev + superpageSize / pageSize)
                << "extents must be contiguous";
        }
        prev = vpn.value();
    }
    EXPECT_FALSE(ext.growSuperpage().ok()) << "reservation exhausted";
    EXPECT_EQ(ext.bytesUsed(), 4 * superpageSize);
    EXPECT_TRUE(ext.contains(1000));
    EXPECT_TRUE(ext.contains(1000 + 4 * 512 - 1));
    EXPECT_FALSE(ext.contains(1000 + 4 * 512));
}

// ---- Memory backends (Fig 7a configurations) -----------------------------------

TEST(MemoryBackendTest, GrowthCostOrdering)
{
    std::size_t bytes = 64 * superpageSize; // 128 MB growth
    Duration extent = MemoryBackend::xenExtent().growCost(bytes);
    Duration xmalloc = MemoryBackend::xenMalloc().growCost(bytes);
    Duration native = MemoryBackend::linuxNative().growCost(bytes);
    Duration pv = MemoryBackend::linuxPv().growCost(bytes);

    // Superpage mapping is the cheapest way to grow; PV faulting the
    // dearest. This ordering underpins Fig 7a.
    EXPECT_LT(extent.ns(), xmalloc.ns());
    EXPECT_LT(native.ns(), pv.ns());
    EXPECT_LT(extent.ns(), pv.ns());
}

TEST(MemoryBackendTest, ContiguityFlags)
{
    EXPECT_TRUE(MemoryBackend::xenExtent().contiguous());
    EXPECT_TRUE(MemoryBackend::xenMalloc().contiguous());
    EXPECT_FALSE(MemoryBackend::linuxNative().contiguous());
    EXPECT_FALSE(MemoryBackend::linuxPv().contiguous());
}

// ---- I/O page pool ----------------------------------------------------------------

TEST(IoPagePoolTest, PagesRecycleWhenViewsDrop)
{
    IoPagePool pool(4);
    {
        auto page = pool.allocPage();
        ASSERT_TRUE(page.ok());
        EXPECT_EQ(pool.inUse(), 1u);
        // Sub-views keep the page alive (Fig 4).
        Cstruct view = page.value().sub(100, 200);
        Cstruct whole = page.value();
        page = exhaustedError("drop original"); // drop first handle
        EXPECT_EQ(pool.inUse(), 1u) << "views still reference the page";
        (void)view;
        (void)whole;
    }
    EXPECT_EQ(pool.inUse(), 0u) << "last view dropped -> page recycled";
    EXPECT_EQ(pool.recycled(), 1u);
}

TEST(IoPagePoolTest, ExhaustionIsReported)
{
    IoPagePool pool(2);
    auto a = pool.allocPage();
    auto b = pool.allocPage();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    auto c = pool.allocPage();
    ASSERT_FALSE(c.ok());
    EXPECT_EQ(c.error().kind, Error::Kind::Exhausted);
    EXPECT_EQ(pool.exhaustions(), 1u);
}

TEST(IoPagePoolTest, HighWaterTracksPeak)
{
    IoPagePool pool(8);
    {
        std::vector<Cstruct> pages;
        for (int i = 0; i < 5; i++)
            pages.push_back(pool.allocPage().value());
        EXPECT_EQ(pool.highWater(), 5u);
    }
    EXPECT_EQ(pool.inUse(), 0u);
    EXPECT_EQ(pool.highWater(), 5u);
    auto p = pool.allocPage();
    EXPECT_TRUE(p.ok());
    EXPECT_EQ(pool.highWater(), 5u);
}

TEST(IoPagePoolTest, ReusePropertySweep)
{
    // Allocate/release churn never exceeds capacity and always recycles.
    IoPagePool pool(16);
    for (int round = 0; round < 100; round++) {
        std::vector<Cstruct> held;
        for (int i = 0; i < 16; i++)
            held.push_back(pool.allocPage().value());
        EXPECT_FALSE(pool.allocPage().ok());
        held.clear();
        EXPECT_EQ(pool.inUse(), 0u);
    }
    EXPECT_EQ(pool.allocations(), 1600u);
}

} // namespace
} // namespace mirage::pvboot
