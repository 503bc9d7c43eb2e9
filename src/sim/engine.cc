#include "sim/engine.h"

#include <algorithm>

#include "sim/shard.h"

#include "base/logging.h"
#include "trace/flow.h"
#include "trace/metrics.h"
#include "trace/profile.h"
#include "trace/trace.h"

namespace mirage::sim {

Engine::Slot *
Engine::slotFor(EventId id)
{
    u32 idx = u32(id & 0xffffffffu);
    if (idx == 0 || idx > slots_.size())
        return nullptr;
    Slot &s = slots_[idx - 1];
    if (s.gen != u32(id >> 32))
        return nullptr; // slot recycled since this id was minted
    return &s;
}

void
Engine::releaseSlot(u32 idx)
{
    Slot &s = slots_[idx];
    s.gen++; // invalidate outstanding ids naming this slot
    s.state = SlotState::Free;
    free_slots_.push_back(idx);
}

std::vector<Engine::HeapKey> *
Engine::headHeap()
{
    if (near_.empty())
        return far_.empty() ? nullptr : &far_;
    if (far_.empty() || later(far_.front(), near_.front()))
        return &near_;
    return &far_;
}

void
Engine::popHeap(std::vector<HeapKey> &heap)
{
    std::pop_heap(heap.begin(), heap.end(), later);
    heap.pop_back();
}

void
Engine::dropCancelledTop(std::vector<HeapKey> &heap)
{
    u32 idx = heap.front().slot;
    popHeap(heap);
    // The closure dies on return, after its slot is free again: a
    // destructor it runs may schedule, and reuses this slot first.
    std::function<void()> fn = std::move(slots_[idx].fn);
    releaseSlot(idx);
    cancelled_count_--;
    live_--;
    trace::bump(c_cancelled_);
}

CrossKey
Engine::nextKey()
{
    CrossKey k;
    k.strand = cur_hash_;
    k.idx = next_child_++;
    k.hash = mixKey(k.strand, k.idx);
    return k;
}

CrossKey
Engine::scheduleKey()
{
    // Root-context scheduling (setup code, no event dispatching) on a
    // sharded engine draws its key from the *primary* shard's root
    // counter: setup runs in program order on one thread, so the key
    // sequence — and with it every derived causal hash — is identical
    // no matter which shard each domain was placed on.
    return (!current_ && shards_) ? rootKeyFromSet() : nextKey();
}

void
Engine::file(const HeapKey &key)
{
    // Which heap only decides where the key sifts; dispatch merges the
    // two heads under the same order.
    std::vector<HeapKey> &heap =
        key.when - now_ <= kNearHorizon ? near_ : far_;
    heap.push_back(key);
    std::push_heap(heap.begin(), heap.end(), later);
}

EventId
Engine::atKeyed(TimePoint t, const CrossKey &key, u64 flow, u32 pscope,
                std::function<void()> fn)
{
    return schedule(t, key, flow, pscope, nullptr, std::move(fn));
}

EventId
Engine::atChain(TimePoint t, KeyChain &chain, std::function<void()> fn)
{
    return schedule(t, CrossKey{}, 0, 0, &chain, std::move(fn));
}

EventId
Engine::schedule(TimePoint t, const CrossKey &key, u64 flow, u32 pscope,
                 KeyChain *chain, std::function<void()> fn)
{
    if (t < now_)
        t = now_; // late scheduling runs as soon as possible
    u32 idx;
    if (!free_slots_.empty()) {
        idx = free_slots_.back();
        free_slots_.pop_back();
    } else {
        idx = u32(slots_.size());
        slots_.push_back(Slot{});
    }
    Slot &s = slots_[idx];
    s.state = SlotState::Pending;
    s.pscope = pscope;
    s.hash = key.hash;
    s.flow = flow;
    s.chain = chain;
    s.due = t;
    s.fn = std::move(fn);
    live_++;
    file(HeapKey{t, key.strand, key.idx, idx, chain ? 1u : 0u});
    return (u64(s.gen) << 32) | (idx + 1);
}

EventId
Engine::at(TimePoint t, std::function<void()> fn)
{
    u64 flow = flows_ ? flows_->current() : 0;
    u32 pscope = profiler_ ? profiler_->current() : 0;
    return atKeyed(t, scheduleKey(), flow, pscope, std::move(fn));
}

void
Engine::postpone(EventId id, TimePoint t)
{
    Slot *s = slotFor(id);
    if (!s || s->state != SlotState::Pending)
        return;
    CHECK(s->chain && t >= s->due);
    s->due = t;
}

bool
Engine::settleChained(std::vector<HeapKey> &heap, HeapKey &key)
{
    key = heap.front();
    popHeap(heap);
    Slot &s = slots_[key.slot];
    if (s.due != key.when) {
        // Postponed since it was filed: queue it at its due time, with
        // its key to be taken from the chain there.
        file(HeapKey{s.due, 0, 0, key.slot, 1});
        return false;
    }
    if (key.provisional) {
        CrossKey k = s.chain->keyAt(key.when);
        s.hash = k.hash;
        key = HeapKey{key.when, k.strand, k.idx, key.slot, 0};
        // The provisional key sorted first among its instant's events;
        // the real one must wait for any that order before it.
        std::vector<HeapKey> *next = headHeap();
        if (next && next->front().when == key.when &&
            later(key, next->front())) {
            file(key);
            return false;
        }
    }
    return true;
}

CrossKey
Engine::rootKeyFromSet()
{
    return shards_->rootKey();
}

EventId
Engine::after(Duration d, std::function<void()> fn)
{
    return at(now_ + d, std::move(fn));
}

void
Engine::cancel(EventId id)
{
    // The generation check makes cancel safe against fired, recycled
    // or invented ids: only an id still naming its live slot can flip
    // it to Cancelled.
    Slot *s = slotFor(id);
    if (!s || s->state != SlotState::Pending)
        return;
    s->state = SlotState::Cancelled;
    cancelled_count_++;
}

void
Engine::setMetrics(trace::MetricsRegistry *metrics)
{
    metrics_ = metrics;
    c_dispatched_ = metrics ? &metrics->counter("sim.events_run") : nullptr;
    c_cancelled_ =
        metrics ? &metrics->counter("sim.events_cancelled") : nullptr;
}

bool
Engine::dispatchOne(bool bounded, TimePoint limit)
{
    while (std::vector<HeapKey> *heap = headHeap()) {
        HeapKey top = heap->front();
        u32 idx = top.slot;
        if (slots_[idx].state == SlotState::Cancelled) {
            // Reached the cancelled slot: drop all bookkeeping for it.
            dropCancelledTop(*heap);
            continue;
        }
        if (bounded && top.when > limit)
            return false;
        if (slots_[idx].chain) {
            if (!settleChained(*heap, top))
                continue;
        } else {
            popHeap(*heap);
        }
        now_ = top.when;
        Slot &s = slots_[idx];
        // Moved out, not copied: the closure dies when this returns,
        // after the callback and its restored context.
        std::function<void()> fn = std::move(s.fn);
        u64 hash = s.hash;
        u64 flow = s.flow;
        u32 pscope = s.pscope;
        EventId id = (u64(s.gen) << 32) | (idx + 1);
        releaseSlot(idx);
        live_--;
        events_run_++;
        checksum_ += mixKey(u64(now_.ns()), hash);
        trace::bump(c_dispatched_);
        if (tracer_ && tracer_->enabled())
            tracer_->instant(trace::Cat::Engine, "dispatch", now_, 0,
                             strprintf("\"id\":%llu",
                                       (unsigned long long)id));
        {
            // Restore the scheduling context's flow and profiler scope
            // for the duration of the callback; anything it schedules
            // inherits them — including the causal key context, so
            // children order deterministically under (when, strand,
            // idx) whatever thread runs this. Both scopes are
            // null-safe.
            trace::FlowScope scope(flows_, flow);
            trace::ProfRestore prof(profiler_, pscope);
            Engine *prev_engine = current_;
            u64 prev_hash = cur_hash_;
            u64 prev_strand = cur_strand_;
            u64 prev_idx = cur_idx_;
            u64 prev_child = next_child_;
            current_ = this;
            cur_hash_ = hash;
            cur_strand_ = top.strand;
            cur_idx_ = top.idx;
            next_child_ = 0;
            fn();
            cur_hash_ = prev_hash;
            cur_strand_ = prev_strand;
            cur_idx_ = prev_idx;
            next_child_ = prev_child;
            current_ = prev_engine;
        }
        return true;
    }
    return false;
}

bool
Engine::step()
{
    return dispatchOne(false, TimePoint());
}

void
Engine::run()
{
    while (step()) {
    }
}

void
Engine::runUntil(TimePoint t)
{
    while (dispatchOne(true, t)) {
    }
    if (now_ < t)
        now_ = t;
}

void
Engine::runFor(Duration d)
{
    runUntil(now_ + d);
}

u64
Engine::runWindow(TimePoint end)
{
    // Events at exactly `end` belong to the next window; the clock is
    // left on the last dispatched event so barrier-time bookkeeping
    // (nextEventTime, cross-post lookahead checks) sees event time.
    u64 n = 0;
    while (dispatchOne(true, TimePoint(end.ns() - 1)))
        n++;
    return n;
}

TimePoint
Engine::nextEventTime()
{
    while (std::vector<HeapKey> *heap = headHeap()) {
        const Slot &s = slots_[heap->front().slot];
        if (s.state == SlotState::Cancelled) {
            dropCancelledTop(*heap);
            continue;
        }
        // A postponed entry re-files, so a shard window never opens at
        // a due time that has moved on.
        if (s.chain && s.due != heap->front().when) {
            HeapKey stale;
            settleChained(*heap, stale);
            continue;
        }
        return heap->front().when;
    }
    return kNever;
}

} // namespace mirage::sim
