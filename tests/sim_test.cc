/**
 * @file
 * Unit tests for the discrete-event engine and the Cpu server model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <memory>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/rand.h"
#include "sim/cost_model.h"
#include "sim/cpu.h"
#include "sim/engine.h"
#include "sim/poller.h"

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

    /** Child delays drawn uniformly from @p delays (negative delays
     *  schedule into the past, which the engine clamps to now). */
    OrderModel(Engine &e, u64 seed, std::size_t budget,
               std::vector<i64> delays = {0, 0, 0, 1000, 1000, 5000})
        : e_(e), rng_(seed), budget_(budget), delays_(std::move(delays))
    {
    }

    void
    schedule(i64 delay)
    {
        i64 now = e_.now().ns();
        Key k{std::max(now, now + delay), 0, 0};
        if (running_) {
            k.strand = cur_hash_;
            k.idx = next_child_++;
        } else {
            k.idx = next_root_++;
        }
        std::size_t n = keys_.size();
        keys_.push_back(k);
        far_.push_back(k.when - now > Engine::kNearHorizon.ns());
        pending_.emplace(k, n);
        ids_.push_back(e_.at(TimePoint(now + delay), [this, n] { run(n); }));
    }

    /** Cancel a random pending event, or a random fired one (no-op). */
    void
    cancelSome()
    {
        std::size_t n = std::size_t(rng_.below(keys_.size()));
        e_.cancel(ids_[n]);
        pending_.erase({keys_[n], n});
    }

    /** Cancel the least pending event: the head of the engine's queue,
     *  whichever of its heaps holds it. */
    void
    cancelHead()
    {
        if (pending_.empty())
            return;
        std::size_t n = pending_.begin()->second;
        (far_[n] ? cancelled_far_heads : cancelled_near_heads)++;
        e_.cancel(ids_[n]);
        pending_.erase(pending_.begin());
    }

    /** Earliest pending time the model expects, or Engine::kNever. */
    TimePoint
    nextTime() const
    {
        return pending_.empty() ? Engine::kNever
                                : TimePoint(pending_.begin()->first.when);
    }

    i64 delay() { return delays_[rng_.below(delays_.size())]; }

    /** Chance (1 in N, 0 = never) that a dispatch cancels the head. */
    u64 head_cancel_one_in = 0;

    std::size_t out_of_order = 0;
    std::size_t dispatched = 0;
    std::size_t cancelled_near_heads = 0;
    std::size_t cancelled_far_heads = 0;
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
        if (head_cancel_one_in && rng_.below(head_cancel_one_in) == 0)
            cancelHead();
        running_ = false;
    }

    Engine &e_;
    Rng rng_;
    std::size_t budget_;
    std::vector<i64> delays_;
    std::vector<Key> keys_;
    std::vector<bool> far_; //!< scheduled beyond the near horizon
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

TEST(EngineTest, NearAndFarEventsMatchReferenceOrder)
{
    // Delays straddle the near horizon: poll-like 0/1 us hops, delays
    // exactly at the horizon and one ns either side, protocol-timer
    // distances, and late schedules the engine clamps to now. On a
    // 1 us grid, near and far keys keep landing on the same instant,
    // where only the causal key may decide.
    const i64 h = Engine::kNearHorizon.ns();
    Engine e;
    OrderModel model(e, 7, 40'000,
                     {-3000, 0, 0, 1000, 1000, h - 1000, h - 1, h, h + 1,
                      h + 1000, 130'000, 200'000, 1'000'000});
    model.head_cancel_one_in = 7;
    for (int i = 0; i < 64; i++)
        model.schedule(i % 2 ? 1000 : 2 * h);
    // Step one event at a time: between dispatches nextEventTime()
    // must name the model's least live key, dropping cancelled heads
    // from either heap on the way.
    std::size_t mismatches = 0;
    while (!e.empty()) {
        if (e.nextEventTime() != model.nextTime())
            mismatches++;
        ASSERT_TRUE(e.step());
    }
    EXPECT_EQ(e.nextEventTime(), Engine::kNever);
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(model.dispatched, 20'000u);
    EXPECT_EQ(model.out_of_order, 0u);
    EXPECT_GT(model.cancelled_near_heads, 100u);
    EXPECT_GT(model.cancelled_far_heads, 100u);
    EXPECT_EQ(e.eventsRun(), model.dispatched);
    EXPECT_EQ(e.dispatchChecksum(), model.checksum);
    EXPECT_EQ(e.pendingEvents(), 0u);
    EXPECT_EQ(e.cancelledBacklog(), 0u);
}

TEST(EngineTest, HorizonBoundaryTiesFollowCausalKey)
{
    // Three events due at one instant: two scheduled at t=0 one ns
    // beyond the horizon (far heap), one scheduled at t=1 exactly at
    // the horizon (near heap). The causal key decides, not the heap.
    const i64 h = Engine::kNearHorizon.ns();
    Engine e;
    std::vector<int> order;
    e.at(TimePoint(h + 1), [&] { order.push_back(0); });
    e.after(Duration::nanos(1), [&] {
        e.after(Engine::kNearHorizon, [&] { order.push_back(1); });
    });
    e.at(TimePoint(h + 1), [&] { order.push_back(2); });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{0, 2, 1}))
        << "root strand 0 sorts before the child's strand";

    // A late schedule runs at now; a cancelled far head is dropped by
    // nextEventTime() just as a near one is.
    Engine c;
    order.clear();
    EventId far = c.at(TimePoint(5 * h), [&] { order.push_back(0); });
    c.at(TimePoint(5 * h), [&] { order.push_back(1); });
    c.after(Duration::nanos(10), [&] {
        c.after(Duration::nanos(0), [&] { order.push_back(2); });
    });
    c.at(TimePoint(-5), [&] { order.push_back(3); });
    ASSERT_TRUE(c.step());
    EXPECT_EQ(c.now().ns(), 0);
    ASSERT_TRUE(c.step());
    ASSERT_TRUE(c.step());
    EXPECT_EQ(c.now().ns(), 10);
    c.cancel(far);
    EXPECT_EQ(c.cancelledBacklog(), 1u);
    EXPECT_EQ(c.nextEventTime().ns(), 5 * h);
    EXPECT_EQ(c.cancelledBacklog(), 0u) << "the cancelled head is gone";
    c.run();
    EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
}

/**
 * Reference model of sim::Poller: the ticking loop it replaced, kept
 * as it was. Every round is an event one pollInterval after the last,
 * until pollIdle passes without activity; the owner's drain returned at
 * once on an idle round. The differential test below drives it and the
 * parking Poller with one schedule.
 *
 * It also counts the rounds a parking poller must run: a round is
 * needed when work was published (wake()) or found left over (kick()
 * or the previous round's end) since the last round, or when it
 * re-arms. Counting takes no part in the loop itself.
 */
class TickingPoller
{
  public:
    TickingPoller(Engine &engine, std::function<bool()> idle,
                  std::function<bool()> drain, std::function<bool()> rearm)
        : engine_(engine), idle_(std::move(idle)),
          drain_([this, drain = std::move(drain)] {
              return !idle_() && drain();
          }),
          rearm_(std::move(rearm))
    {
    }
    ~TickingPoller() { cancel(); }

    void
    kick()
    {
        last_activity_ = engine_.now();
        if (!scheduled_)
            schedule();
        if (!idle_())
            work_since_round_ = true;
    }

    /** The ticking loop finds published work on its own. */
    void
    wake()
    {
        if (scheduled_)
            work_since_round_ = true;
    }

    void
    cancel()
    {
        work_since_round_ = false;
        if (!scheduled_)
            return;
        engine_.cancel(event_);
        scheduled_ = false;
    }

    bool active() const { return scheduled_; }
    /** Due time of the pending round (while active). */
    TimePoint pendingAt() const { return pending_at_; }
    TimePoint lastFiredAt() const { return fired_at_; }
    u64 rounds() const { return rounds_; }
    u64 neededRounds() const { return needed_rounds_; }

  private:
    void
    schedule()
    {
        scheduled_ = true;
        pending_at_ = engine_.now() + tuning().pollInterval;
        event_ = engine_.after(tuning().pollInterval, [this] { fire(); });
    }

    void
    fire()
    {
        fired_at_ = engine_.now();
        rounds_++;
        needed_rounds_ += work_since_round_ ||
                          engine_.now() - last_activity_ > tuning().pollIdle;
        scheduled_ = false;
        if (drain_())
            last_activity_ = engine_.now();
        work_since_round_ = !idle_();
        if (engine_.now() - last_activity_ <= tuning().pollIdle) {
            schedule();
            return;
        }
        if (rearm_()) {
            last_activity_ = engine_.now();
            drain_();
            work_since_round_ = !idle_();
            schedule();
        }
    }

    Engine &engine_;
    std::function<bool()> idle_;
    std::function<bool()> drain_;
    std::function<bool()> rearm_;
    TimePoint last_activity_;
    TimePoint pending_at_;
    TimePoint fired_at_{-1};
    EventId event_ = 0;
    bool scheduled_ = false;
    u64 rounds_ = 0;
    u64 needed_rounds_ = 0;
    bool work_since_round_ = false;
};

/** One scripted producer action (PollRig). */
struct PollAction
{
    enum Kind
    {
        Publish0,
        Publish1,
        QueuePush,
        Credit,
        Kick,
        Cancel,
        Finish,
    };
    i64 at = 0;
    Kind kind = Publish0;
    u32 n = 1;
    //! Run from a child of the scheduled event, this many ns later
    //! (-1: run directly). A zero delay lands on the same instant
    //! under another key.
    i64 child_delay = -1;
};

/** What a drain or re-arm saw, or a producer event's dispatch. */
struct PollLog
{
    i64 when;
    u64 strand;
    u64 idx;
    int what; //!< 0 producer event, 1 drain, 2 re-arm
    int result;
    bool operator==(const PollLog &) const = default;
};

/**
 * A consumer with two rings and a credit-gated wait queue, polled by
 * P (TickingPoller or Poller) and driven by a script of producer
 * actions. The rings notify like Xen's: a publish onto an armed ring
 * sends one upcall, whose handler drains and kick()s. Ring 0 drains
 * fully; ring 1 at most two slots a round, so a round can leave work;
 * the wait queue drains only against credits, so rounds can find work
 * they cannot take and re-arms can find work that raced in.
 */
template <class P> class PollRig
{
  public:
    explicit PollRig(const std::vector<PollAction> &script)
    {
        poller = std::make_unique<P>(
            e, [this] { return idle(); }, [this] { return drain(); },
            [this] { return rearm(); });
        for (const PollAction &a : script)
            e.at(TimePoint(a.at), [this, a] { act(a); });
    }

    Engine e;
    std::unique_ptr<P> poller;
    std::vector<PollLog> log;
    // Scenario coverage, counted in the reference run.
    int ties_before = 0; //!< publish at a pending round's instant
    int ties_after = 0;  //!< publish after the round at its instant
    int kicks_active = 0;
    int cancels_active = 0;
    int rearms = 0;
    int races = 0;

    bool
    drained() const
    {
        return prod_[0] == cons_[0] && prod_[1] == cons_[1] && queued_ == 0;
    }

  private:
    static constexpr bool kRef = std::is_same_v<P, TickingPoller>;

    bool idle() const { return drained(); }

    void
    note(int what, int result)
    {
        CrossKey k = e.dispatchingKey();
        log.push_back(PollLog{e.now().ns(), k.strand, k.idx, what, result});
    }

    bool
    drain()
    {
        u32 took = prod_[0] - cons_[0];
        cons_[0] = prod_[0];
        u32 b = std::min<u32>(prod_[1] - cons_[1], 2);
        cons_[1] += b;
        u32 q = std::min(queued_, credits_);
        queued_ -= q;
        credits_ -= q;
        took += b + q;
        armed_[0] = armed_[1] = false; // park both events
        note(1, int(took));
        return took > 0;
    }

    bool
    rearm()
    {
        armed_[0] = armed_[1] = true;
        bool raced = !drained();
        rearms += kRef;
        races += kRef && raced;
        note(2, raced);
        return raced;
    }

    void
    upcall()
    {
        e.after(Duration::nanos(700), [this] {
            note(0, -1);
            drain();
            poller->kick();
        });
    }

    void
    publish(int r, u32 n)
    {
        if constexpr (kRef) {
            if (poller->active() && poller->pendingAt() == e.now())
                ties_before++;
            if (poller->lastFiredAt() == e.now())
                ties_after++;
        }
        prod_[r] += n;
        poller->wake();
        if (armed_[r]) {
            armed_[r] = false;
            upcall();
        }
    }

    void
    act(const PollAction &a)
    {
        note(0, int(a.kind));
        if (a.child_delay >= 0) {
            PollAction direct = a;
            direct.child_delay = -1;
            e.after(Duration::nanos(a.child_delay),
                    [this, direct] { act(direct); });
            return;
        }
        switch (a.kind) {
        case PollAction::Publish0:
            publish(0, a.n);
            break;
        case PollAction::Publish1:
            publish(1, a.n);
            break;
        case PollAction::QueuePush:
            queued_ += a.n;
            poller->wake();
            break;
        case PollAction::Credit:
            credits_ += a.n;
            break;
        case PollAction::Kick:
            if constexpr (kRef)
                kicks_active += poller->active();
            poller->kick();
            break;
        case PollAction::Cancel:
            if constexpr (kRef)
                cancels_active += poller->active();
            // The owner re-arms its parked events itself.
            poller->cancel();
            armed_[0] = armed_[1] = true;
            if (!drained())
                upcall();
            break;
        case PollAction::Finish:
            credits_ += 1u << 20;
            poller->kick();
            break;
        }
    }

    u32 prod_[2]{};
    u32 cons_[2]{};
    bool armed_[2]{true, true};
    u32 queued_ = 0;
    u32 credits_ = 0;
};

/** Bursts of actions on a 100 ns grid, quiet gaps between bursts
 *  both shorter and longer than pollIdle. */
std::vector<PollAction>
pollScript(u64 seed)
{
    Rng rng(seed);
    std::vector<PollAction> script;
    i64 t = 0;
    for (int burst = 0; burst < 40; burst++) {
        t += i64(rng.range(2, 300)) * 1000;
        u64 actions = rng.range(1, 12);
        for (u64 i = 0; i < actions; i++) {
            PollAction a;
            a.at = t + i64(rng.below(200)) * 100;
            u64 k = rng.below(20);
            a.kind = k < 6    ? PollAction::Publish0
                     : k < 11 ? PollAction::Publish1
                     : k < 14 ? PollAction::QueuePush
                     : k < 17 ? PollAction::Credit
                     : k < 19 ? PollAction::Kick
                              : PollAction::Cancel;
            a.n = u32(rng.range(1, 4));
            u64 c = rng.below(4);
            a.child_delay = c == 0 ? 0 : c == 1 ? i64(rng.below(30)) * 100 : -1;
            script.push_back(a);
        }
    }
    script.push_back(PollAction{t + 400'000, PollAction::Finish, 0, -1});
    return script;
}

TEST(PollerTest, ParkedPollerMatchesTickingReference)
{
    int ties_before = 0, ties_after = 0, kicks = 0, cancels = 0;
    int rearms = 0, races = 0;
    for (u64 seed = 1; seed <= 24; seed++) {
        std::vector<PollAction> script = pollScript(seed);
        PollRig<TickingPoller> ref(script);
        PollRig<Poller> got(script);
        ref.e.run();
        got.e.run();
        ASSERT_TRUE(ref.drained() && got.drained()) << "seed " << seed;
        // Every drain and re-arm — whether it did work or not — and
        // every producer event: same instant, same key, same result.
        ASSERT_EQ(got.log.size(), ref.log.size()) << "seed " << seed;
        for (std::size_t i = 0; i < ref.log.size(); i++) {
            const PollLog &r = ref.log[i];
            const PollLog &g = got.log[i];
            ASSERT_TRUE(r == g)
                << "seed " << seed << " entry " << i << ": ref (" << r.when
                << ", " << r.strand << ", " << r.idx << ", " << r.what
                << ", " << r.result << ") got (" << g.when << ", "
                << g.strand << ", " << g.idx << ", " << g.what << ", "
                << g.result << ")";
        }
        // The parking poller runs exactly the rounds that find work or
        // re-arm, and no others.
        EXPECT_EQ(got.e.eventsRun(), ref.e.eventsRun() - ref.poller->rounds() +
                                         ref.poller->neededRounds())
            << "seed " << seed;
        EXPECT_LT(got.e.eventsRun(), ref.e.eventsRun()) << "seed " << seed;
        EXPECT_TRUE(got.e.empty());
        ties_before += ref.ties_before;
        ties_after += ref.ties_after;
        kicks += ref.kicks_active;
        cancels += ref.cancels_active;
        rearms += ref.rearms;
        races += ref.races;
    }
    // The schedules reach every case the parking poller must get
    // right: publishes on a round's instant ordered before and after
    // it, kicks and cancels while polling, re-arm ticks reached, and
    // re-arms that find work raced in.
    EXPECT_GT(ties_before, 10);
    EXPECT_GT(ties_after, 10);
    EXPECT_GT(kicks, 10);
    EXPECT_GT(cancels, 10);
    EXPECT_GT(rearms, 40);
    EXPECT_GT(races, 5);
}

TEST(PollerTest, LinkClearsWhicheverSideDiesFirst)
{
    Engine e;
    int drains = 0;
    auto poller = std::make_unique<Poller>(
        e, [&] { return drains > 0; }, [&] { return ++drains > 0; },
        [] { return false; });
    {
        PollerLink link;
        link.bind(poller.get());
        poller->kick();
        link.wake();
        e.run();
        EXPECT_EQ(drains, 1);
    } // the link dies first: the poller forgets it
    PollerLink link;
    link.bind(poller.get());
    poller.reset(); // the poller dies first: the link is cleared
    link.wake();
    EXPECT_TRUE(e.empty());
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
