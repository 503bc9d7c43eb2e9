/**
 * @file
 * Unit tests for the discrete-event engine and the Cpu server model.
 */

#include <gtest/gtest.h>

#include <compare>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "base/rand.h"
#include "sim/cost_model.h"
#include "sim/cpu.h"
#include "sim/engine.h"

namespace mirage::sim {
namespace {

TEST(EngineTest, RunsInTimeOrder)
{
    Engine e;
    std::vector<int> order;
    e.after(Duration::millis(30), [&] { order.push_back(3); });
    e.after(Duration::millis(10), [&] { order.push_back(1); });
    e.after(Duration::millis(20), [&] { order.push_back(2); });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(e.now().ns(), Duration::millis(30).ns());
}

TEST(EngineTest, TiesBreakByInsertion)
{
    Engine e;
    std::vector<int> order;
    for (int i = 0; i < 5; i++)
        e.after(Duration::millis(1), [&, i] { order.push_back(i); });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EngineTest, CancelPreventsExecution)
{
    Engine e;
    bool ran = false;
    EventId id = e.after(Duration::millis(1), [&] { ran = true; });
    e.cancel(id);
    e.run();
    EXPECT_FALSE(ran);
}

TEST(EngineTest, NestedScheduling)
{
    Engine e;
    int fired = 0;
    e.after(Duration::millis(1), [&] {
        fired++;
        e.after(Duration::millis(1), [&] { fired++; });
    });
    e.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(e.now().ns(), Duration::millis(2).ns());
}

TEST(EngineTest, RunUntilLeavesLaterEvents)
{
    Engine e;
    int fired = 0;
    e.after(Duration::millis(5), [&] { fired++; });
    e.after(Duration::millis(15), [&] { fired++; });
    e.runUntil(TimePoint(Duration::millis(10).ns()));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(e.now().ns(), Duration::millis(10).ns());
    e.run();
    EXPECT_EQ(fired, 2);
}

TEST(EngineTest, LateScheduleClampsToNow)
{
    Engine e;
    e.after(Duration::millis(10), [] {});
    e.run();
    bool ran = false;
    e.at(TimePoint(0), [&] { ran = true; }); // in the past
    e.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(e.now().ns(), Duration::millis(10).ns());
}

TEST(EngineTest, CancelBookkeepingIsBounded)
{
    Engine e;
    EventId id = e.after(Duration::millis(1), [] {});
    e.run();
    // Cancelling an already-executed id must not accumulate state.
    for (int i = 0; i < 1000; i++)
        e.cancel(id);
    EXPECT_EQ(e.cancelledBacklog(), 0u);
    // Nor may ids that never existed.
    for (EventId bogus = 1000; bogus < 2000; bogus++)
        e.cancel(bogus);
    EXPECT_EQ(e.cancelledBacklog(), 0u);
    EXPECT_EQ(e.pendingEvents(), 0u);
    EXPECT_TRUE(e.empty());
}

TEST(EngineTest, CancelledSlotsAreReclaimedOnDispatch)
{
    Engine e;
    bool ran = false;
    EventId id = e.after(Duration::millis(5), [&] { ran = true; });
    e.after(Duration::millis(10), [] {});
    e.cancel(id);
    e.cancel(id); // idempotent while pending
    EXPECT_EQ(e.cancelledBacklog(), 1u);
    e.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(e.cancelledBacklog(), 0u);
    EXPECT_EQ(e.pendingEvents(), 0u);
}

/**
 * Reference model of the engine's ordering. Each scheduled event gets
 * the causal key the engine documents: root schedules take strand 0 and
 * a running root index; the children of a dispatching event take its
 * identity hash mixKey(strand, idx) and an index within that dispatch.
 * Whenever an event runs, it must hold the least pending key.
 */
class OrderModel
{
  public:
    struct Key
    {
        i64 when;
        u64 strand;
        u64 idx;
        auto operator<=>(const Key &) const = default;
    };

    OrderModel(Engine &e, u64 seed, std::size_t budget)
        : e_(e), rng_(seed), budget_(budget)
    {
    }

    void
    schedule(i64 delay)
    {
        Key k{e_.now().ns() + delay, 0, 0};
        if (running_) {
            k.strand = cur_hash_;
            k.idx = next_child_++;
        } else {
            k.idx = next_root_++;
        }
        std::size_t n = keys_.size();
        keys_.push_back(k);
        pending_.emplace(k, n);
        ids_.push_back(e_.at(TimePoint(k.when), [this, n] { run(n); }));
    }

    /** Cancel a random pending event, or a random fired one (no-op). */
    void
    cancelSome()
    {
        std::size_t n = std::size_t(rng_.below(keys_.size()));
        e_.cancel(ids_[n]);
        pending_.erase({keys_[n], n});
    }

    /** Many ties: most delays are 0 or one of two short steps. */
    i64
    delay()
    {
        static constexpr i64 kDelays[] = {0, 0, 0, 1000, 1000, 5000};
        return kDelays[rng_.below(6)];
    }

    std::size_t out_of_order = 0;
    std::size_t dispatched = 0;
    u64 checksum = 0;

  private:
    void
    run(std::size_t n)
    {
        if (pending_.empty() || pending_.begin()->second != n)
            out_of_order++;
        pending_.erase({keys_[n], n});
        dispatched++;
        const Key &k = keys_[n];
        cur_hash_ = mixKey(k.strand, k.idx);
        checksum += mixKey(u64(k.when), cur_hash_);
        next_child_ = 0;
        running_ = true;
        std::size_t children = keys_.size() < budget_ ? rng_.below(4) : 0;
        for (std::size_t c = 0; c < children; c++) {
            schedule(delay());
            if (rng_.below(5) == 0)
                cancelSome();
        }
        running_ = false;
    }

    Engine &e_;
    Rng rng_;
    std::size_t budget_;
    std::vector<Key> keys_;
    std::vector<EventId> ids_;
    std::set<std::pair<Key, std::size_t>> pending_;
    bool running_ = false;
    u64 cur_hash_ = 0;
    u64 next_child_ = 0;
    u64 next_root_ = 0;
};

TEST(EngineTest, RandomScheduleMatchesReferenceOrder)
{
    Engine e;
    OrderModel model(e, 42, 20'000);
    for (int i = 0; i < 64; i++)
        model.schedule(1000 * (1 + i % 3));
    for (int i = 0; i < 8; i++)
        model.cancelSome();
    e.run();
    EXPECT_GT(model.dispatched, 10'000u);
    EXPECT_EQ(model.out_of_order, 0u);
    EXPECT_EQ(e.eventsRun(), model.dispatched);
    EXPECT_EQ(e.dispatchChecksum(), model.checksum);
    // Pinned: any engine change must dispatch the same events at the
    // same times for this seed.
    EXPECT_EQ(e.dispatchChecksum(), 0x026fcf5c7a8c5031ull);
    EXPECT_EQ(e.pendingEvents(), 0u);
    EXPECT_EQ(e.cancelledBacklog(), 0u);
}

TEST(EngineTest, ClosureReleasedRightAfterDispatch)
{
    Engine e;
    auto held = std::make_shared<int>(0);
    std::weak_ptr<int> watch = held;
    e.after(Duration::millis(1), [held] { (*held)++; });
    bool released_before_next = false;
    e.after(Duration::millis(2),
            [&] { released_before_next = watch.expired(); });
    held.reset();
    EXPECT_FALSE(watch.expired()) << "the pending closure owns it";
    ASSERT_TRUE(e.step());
    EXPECT_TRUE(watch.expired()) << "dispatch must not keep a copy";
    e.run();
    EXPECT_TRUE(released_before_next);
}

TEST(EngineTest, CancelledClosureReleasedWhenDropped)
{
    Engine e;
    auto held = std::make_shared<int>(0);
    std::weak_ptr<int> watch = held;
    EventId id = e.after(Duration::millis(1), [held] { (*held)++; });
    e.after(Duration::millis(2), [] {});
    held.reset();
    e.cancel(id);
    EXPECT_FALSE(watch.expired()) << "dropped lazily, at the heap head";
    EXPECT_EQ(e.nextEventTime().ns(), Duration::millis(2).ns());
    EXPECT_TRUE(watch.expired()) << "dropping the head frees the closure";
    EXPECT_EQ(e.cancelledBacklog(), 0u);
}

TEST(CpuTest, SerialisesWork)
{
    Engine e;
    Cpu cpu(e, "test");
    std::vector<i64> done_at;
    cpu.submit(Duration::millis(10),
               [&] { done_at.push_back(e.now().ns()); });
    cpu.submit(Duration::millis(5),
               [&] { done_at.push_back(e.now().ns()); });
    e.run();
    ASSERT_EQ(done_at.size(), 2u);
    EXPECT_EQ(done_at[0], Duration::millis(10).ns());
    EXPECT_EQ(done_at[1], Duration::millis(15).ns()) <<
        "second job must queue behind the first";
}

TEST(CpuTest, IdleGapsDoNotAccumulate)
{
    Engine e;
    Cpu cpu(e, "test");
    i64 done = 0;
    cpu.submit(Duration::millis(1), [&] { done = e.now().ns(); });
    e.run();
    // 100 ms of idle virtual time.
    e.after(Duration::millis(100), [] {});
    e.run();
    cpu.submit(Duration::millis(1), [&] { done = e.now().ns(); });
    e.run();
    EXPECT_EQ(done, Duration::millis(102).ns()) <<
        "work after idle starts at now, not at freeAt from the past";
    EXPECT_EQ(cpu.busyTime().ns(), Duration::millis(2).ns());
}

TEST(CpuTest, UtilisationSaturatesAtOne)
{
    Engine e;
    Cpu cpu(e, "test");
    for (int i = 0; i < 100; i++)
        cpu.submit(Duration::millis(10), nullptr);
    e.run();
    EXPECT_DOUBLE_EQ(
        cpu.utilisation(TimePoint(0), TimePoint(0) + Duration::millis(500)),
        1.0);
}

TEST(CostModelTest, PaperStructuralInvariants)
{
    const CostModel &c = costs();
    // PV page-table updates go through the hypervisor: dearer than
    // native ones. This asymmetry drives Fig 7a's ordering.
    EXPECT_GT(c.ptUpdatePv.ns(), c.ptUpdateNative.ns());
    // A hypercall is a deeper crossing than a syscall.
    EXPECT_GT(c.hypercall.ns(), c.syscall.ns());
    // Switching VMs costs more than switching processes.
    EXPECT_GT(c.vmSwitch.ns(), c.processSwitch.ns());
    // One superpage map must beat mapping 512 individual pages.
    EXPECT_LT(c.superpageMap.ns(), c.ptUpdateNative.ns() * 512);
    // The type-safety tax is a modest constant factor, not an order
    // of magnitude (the paper's central performance claim).
    EXPECT_GT(c.safetyTaxFactor, 1.0);
    EXPECT_LT(c.safetyTaxFactor, 2.0);
}

} // namespace
} // namespace mirage::sim
