#include "drivers/grant_pool.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "base/logging.h"
#include "hypervisor/domain.h"
#include "sim/cost_model.h"
#include "sim/tuning.h"

namespace mirage::drivers {

GrantPool::GrantPool(pvboot::PVBoot &boot, xen::DomId backend)
    : boot_(boot), backend_(backend)
{
    // The hook may outlive a stack-allocated pool (hooks are not
    // removable); the drained_ flag lives in the pool, so guard with a
    // shared liveness token instead of `this` alone.
    auto alive = std::make_shared<GrantPool *>(this);
    alive_ = alive;
    boot_.domain().addShutdownHook([alive] {
        if (*alive)
            (*alive)->drain();
    });
}

GrantPool::~GrantPool()
{
    if (auto alive = alive_.lock())
        *alive = nullptr;
}

void
GrantPool::wireMetrics()
{
    auto *m = boot_.domain().engine().metrics();
    if (c_issued_ || !m)
        return;
    c_issued_ = &m->counter("grant.issued");
    c_reused_ = &m->counter("grant.reused");
}

void
GrantPool::chargeReuse()
{
    reused_++;
    trace::bump(c_reused_);
    boot_.domain().vcpu().charge(sim::costs().grantReuse, "grant.reuse",
                                 trace::Cat::Hypervisor);
}

/**
 * Borrow bookkeeping for a pooled page: every view acquirePage hands
 * out aliases this lease's control block, so the buffer itself carries
 * exactly one extra reference (keep) while any borrower view lives.
 * When the last borrower view drops, the lease dies, the page becomes a
 * candidate for acquirePage again and the pool's recycle listeners
 * fire — the signal a stalled rx ring waits for.
 */
struct GrantPool::Lease
{
    Cstruct keep;                      //!< holds the page buffer alive
    std::shared_ptr<GrantPool *> pool; //!< liveness token (may be null)
    std::size_t page;                  //!< index in pages_

    ~Lease()
    {
        if (GrantPool *p = pool ? *pool : nullptr)
            p->pageReturned(page);
        // else the page outlived the pool
    }
};

Cstruct
GrantPool::leased(std::size_t at)
{
    const Cstruct &page = pages_[at].page;
    returned_[at / 64] &= ~(u64(1) << (at % 64));
    auto lease = std::make_shared<Lease>();
    lease->keep = page;
    lease->pool = alive_.lock();
    lease->page = at;
    // Aliasing view: shares the lease's lifetime, points at the page's
    // buffer — page_index_ lookups by buffer identity still match.
    std::shared_ptr<Buffer> alias(std::move(lease),
                                  page.buffer().get());
    return Cstruct(std::move(alias));
}

void
GrantPool::pageReturned(std::size_t at)
{
    if (at < pages_.size()) // drain() may have emptied the pool
        returned_[at / 64] |= u64(1) << (at % 64);
    listeners_.fire();
}

u64
GrantPool::addRecycleListener(std::function<void()> fn)
{
    return listeners_.add(std::move(fn));
}

void
GrantPool::removeRecycleListener(u64 token)
{
    listeners_.remove(token);
}

bool
GrantPool::pageFree(const PooledPage &p) const
{
    // Free means: only the pool's own view, the grant-table entry and
    // the backend's cached mapping(s) reference the buffer. Any
    // borrower — a tx fragment awaiting its ack, a posted rx buffer, a
    // stack-held rx view, an in-flight block request — adds a
    // reference and keeps the page busy.
    return p.page.buffer().use_count() == 2 + long(*p.map_count);
}

std::size_t
GrantPool::nextReturned(std::size_t from, std::size_t to) const
{
    while (from < to) {
        u64 word = returned_[from / 64] >> (from % 64);
        if (word)
            return std::min(to, from + std::size_t(std::countr_zero(word)));
        from = (from / 64 + 1) * 64;
    }
    return to;
}

Result<Cstruct>
GrantPool::acquirePage()
{
    wireMetrics();
    if (!pages_.empty()) {
        // Round robin from scan_hint_, testing only pages whose lease
        // has died: a leased page holds an extra buffer reference, so
        // it can never pass pageFree.
        std::size_t n = pages_.size();
        std::size_t start = scan_hint_ % n;
        std::pair<std::size_t, std::size_t> spans[] = {{start, n},
                                                       {0, start}};
        for (auto [lo, hi] : spans) {
            for (std::size_t at = nextReturned(lo, hi); at < hi;
                 at = nextReturned(at + 1, hi)) {
                if (!pageFree(pages_[at]))
                    continue;
                scan_hint_ = (at + 1) % n;
                // The grant-op saving is counted at regionFor(), once
                // per wire operation; here we only pay the pool scan.
                boot_.domain().vcpu().charge(sim::costs().grantReuse,
                                             "grant.reuse",
                                             trace::Cat::Hypervisor);
                return leased(at);
            }
        }
    }
    if (pages_.size() >= sim::tuning().frontendPoolPages)
        return exhaustedError("grant pool at capacity, no free page");
    auto page = boot_.ioPages().allocPage();
    if (!page.ok())
        return page;
    // Writable grant: the same pooled page may carry a tx frame now
    // and an rx fill or block read later.
    xen::GrantTable &gt = boot_.domain().grantTable();
    xen::GrantRef gref = gt.grantAccess(backend_, page.value(), false);
    boot_.domain().vcpu().charge(sim::costs().grantIssue, "grant.issue",
                                 trace::Cat::Hypervisor);
    issued_++;
    trace::bump(c_issued_);
    page_index_.emplace(page.value().buffer().get(), pages_.size());
    pages_.push_back(PooledPage{page.value(), gref, gt.mapCountAt(gref)});
    if (returned_.size() * 64 < pages_.size())
        returned_.push_back(0);
    return leased(pages_.size() - 1);
}

GrantPool::Region
GrantPool::regionFor(const Cstruct &view)
{
    wireMetrics();
    const Buffer *buf = view.buffer().get();
    if (!buf)
        return Region{};
    if (auto it = page_index_.find(buf); it != page_index_.end()) {
        chargeReuse();
        return Region{pages_[it->second].gref, view.bufferOffset(),
                      true};
    }
    if (auto it = regions_.find(buf); it != regions_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        chargeReuse();
        return Region{it->second.gref, view.bufferOffset(), true};
    }
    // First sight of this buffer. Make room if the registry is at its
    // cap; when every resident entry is still live (in-flight request,
    // backend mapping, or app reference), refuse — the caller falls
    // back to a one-shot grant rather than us revoking a grant some
    // ring slot still names.
    std::size_t cap = sim::tuning().frontendRegistryCap;
    if (regions_.size() >= cap) {
        evictRegistryIfNeeded();
        if (regions_.size() >= cap)
            return Region{};
    }
    Cstruct whole(view.buffer());
    xen::GrantTable &gt = boot_.domain().grantTable();
    xen::GrantRef gref = gt.grantAccess(backend_, whole, false);
    gt.markRegistry(gref);
    boot_.domain().vcpu().charge(sim::costs().grantIssue, "grant.issue",
                                 trace::Cat::Hypervisor);
    issued_++;
    trace::bump(c_issued_);
    Registered &reg =
        regions_.emplace(buf, Registered{whole, gref, {}}).first->second;
    lru_.push_front(&reg);
    reg.lru_it = lru_.begin();
    return Region{gref, view.bufferOffset(), true};
}

void
GrantPool::evictRegistryIfNeeded()
{
    std::size_t cap = sim::tuning().frontendRegistryCap;
    if (regions_.size() < cap)
        return;
    xen::GrantTable &gt = boot_.domain().grantTable();
    // A mapped grant is never evicted; with no unmapped registry grant
    // in this domain's table the walk below could not free a thing.
    if (gt.idleRegistryGrants() == 0)
        return;
    registry_walks_++;
    // Walk from the cold end, revoking fully idle entries: no reference
    // besides ours and the grant table's — an enqueued request the
    // backend has not mapped yet still holds the fragment view, so
    // in-flight buffers never qualify — and no backend mapping
    // (revoke-while-mapped is a checker violation). The reference count
    // is one load and rejects most entries, so it goes first.
    for (auto it = lru_.end();
         it != lru_.begin() && regions_.size() >= cap;) {
        --it;
        Registered &reg = **it;
        if (reg.whole.buffer().use_count() > 2)
            continue;
        if (gt.mapCountOf(reg.gref) > 0)
            continue;
        Status st = gt.endAccess(reg.gref);
        if (!st.ok()) {
            warn("grant pool: evict endAccess: %s",
                 st.error().message.c_str());
            continue;
        }
        it = lru_.erase(it);
        regions_.erase(reg.whole.buffer().get());
    }
}

bool
GrantPool::bufferIsFree(const Buffer *buf) const
{
    auto it = page_index_.find(buf);
    if (it == page_index_.end())
        return true;
    return pageFree(pages_[it->second]);
}

std::size_t
GrantPool::freePages() const
{
    std::size_t n = 0;
    for (const PooledPage &p : pages_)
        if (pageFree(p))
            n++;
    return n;
}

void
GrantPool::drain()
{
    if (drained_)
        return;
    drained_ = true;
    xen::GrantTable &gt = boot_.domain().grantTable();
    for (const PooledPage &p : pages_) {
        if (*p.map_count > 0)
            continue; // backend never disconnected; releaseAll handles it
        if (Status st = gt.endAccess(p.gref); !st.ok())
            warn("grant pool: drain endAccess: %s",
                 st.error().message.c_str());
    }
    for (const auto &[buf, reg] : regions_) {
        if (gt.mapCountOf(reg.gref) > 0)
            continue;
        if (Status st = gt.endAccess(reg.gref); !st.ok())
            warn("grant pool: drain endAccess: %s",
                 st.error().message.c_str());
    }
    pages_.clear();
    returned_.clear();
    page_index_.clear();
    regions_.clear();
    lru_.clear();
}

} // namespace mirage::drivers
