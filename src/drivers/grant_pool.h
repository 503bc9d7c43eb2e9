/**
 * @file
 * GrantPool — the frontend half of the persistent-grant protocol.
 *
 * Per-operation grant churn (grantAccess before every tx fragment, rx
 * post and block request; endAccess on every completion) is the tax the
 * paper's shared-ring story still pays in this reproduction. The pool
 * amortizes it two ways:
 *
 *  - Tier A, pooled pages: the pool owns whole I/O pages with
 *    long-lived writable grants and recycles (page, gref) pairs across
 *    tx frames, rx posts and blkif requests. A page is free again when
 *    nothing outside the pool, the grant-table entry and the backend's
 *    cached map references its buffer — the same refcount the I/O page
 *    pool uses, observed lazily.
 *
 *  - Tier B, registered buffers: long-lived application buffers (an
 *    iperf send chunk, fio's recycled read buffers) are granted whole,
 *    once; requests then carry (gref, offset) into the region. An LRU
 *    bound caps the registry; idle entries are revoked on eviction.
 *
 * Wire slots carry a `persistent` flag so the backend caches the
 * mapping (GrantMapCache) instead of unmapping per operation. The pool
 * drains at domain shutdown *after* the backend disconnects (LIFO
 * hooks), so the PR 2 teardown audits still pass.
 */

#ifndef MIRAGE_DRIVERS_GRANT_POOL_H
#define MIRAGE_DRIVERS_GRANT_POOL_H

#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/cstruct.h"
#include "base/listeners.h"
#include "base/result.h"
#include "hypervisor/grant_table.h"
#include "pvboot/pvboot.h"
#include "trace/metrics.h"

namespace mirage::drivers {

class GrantPool
{
  public:
    /** What a wire slot needs to name a region of a persistent grant. */
    struct Region
    {
        xen::GrantRef gref = 0;
        std::size_t offset = 0;  //!< view's offset inside the grant
        bool persistent = false; //!< backend must not unmap
    };

    /**
     * Binds to @p boot's domain and I/O pages; grants are issued to
     * @p backend. Registers a drain() shutdown hook — construct the
     * pool *before* backend.connect() so LIFO ordering unmaps the
     * backend's cached maps first.
     */
    GrantPool(pvboot::PVBoot &boot, xen::DomId backend);
    ~GrantPool();

    GrantPool(const GrantPool &) = delete;
    GrantPool &operator=(const GrantPool &) = delete;

    /**
     * A free pooled page with a live persistent grant (tier A). Grows
     * the pool up to tuning().frontendPoolPages, then fails Exhausted —
     * callers fall back to one-shot grants of fresh I/O pages.
     *
     * The returned view (and every sub-view sliced from it) rides a
     * lease: when the last borrower view drops, the recycle listeners
     * fire — the pool's analogue of IoPagePool's recycle event, needed
     * because pooled pages never return to the I/O page pool itself.
     */
    Result<Cstruct> acquirePage();

    /**
     * Subscribe to pooled-page returns (a leased page's last borrower
     * view dropped, so acquirePage can hand it out again). Fired from a
     * view destructor — listeners must defer real work to the engine.
     * @return a token for removeRecycleListener.
     */
    u64 addRecycleListener(std::function<void()> fn);

    /**
     * Drop a listener. Safe for tokens already removed, and from inside
     * a listener (the removed one is not called again).
     */
    void removeRecycleListener(u64 token);

    /**
     * The persistent grant region covering @p view (tier B, also
     * resolves tier-A pages handed out earlier). Registers the view's
     * whole buffer on first sight. Returns persistent=false when the
     * buffer cannot be registered (registry full of busy entries).
     */
    Region regionFor(const Cstruct &view);

    /**
     * Revoke every idle grant. Runs from the domain shutdown hook;
     * mapped entries are skipped (their backend disconnects first in
     * LIFO order, so by the time the pool's hook runs nothing should
     * still be mapped).
     */
    void drain();

    u64 issued() const { return issued_; }
    u64 reused() const { return reused_; }
    std::size_t pooledPages() const { return pages_.size(); }
    std::size_t registeredBuffers() const { return regions_.size(); }
    /** Eviction walks of a full registry (none while every registry
     *  grant of the domain is mapped: nothing could be evicted). */
    u64 registryWalks() const { return registry_walks_; }
    /** Free tier-A pages right now (lazy refcount scan). */
    std::size_t freePages() const;

    /**
     * Whether the pooled page backed by @p buf is currently free (no
     * borrower views). True for buffers the pool does not own — they
     * carry no lease to leak. Used by the tx chain-abort invariant.
     */
    bool bufferIsFree(const Buffer *buf) const;

  private:
    struct PooledPage
    {
        Cstruct page;
        xen::GrantRef gref;
        //! The grant's live map count (GrantTable::mapCountAt): the
        //! pool's grant outlives its entry in pages_ (drain ends both).
        const u32 *map_count;
    };

    struct Registered
    {
        Cstruct whole; //!< keeps the buffer alive while registered
        xen::GrantRef gref;
        std::list<Registered *>::iterator lru_it;
    };

    struct Lease;

    bool pageFree(const PooledPage &p) const;
    /** A borrower view of pages_[@p at], riding a fresh lease. */
    Cstruct leased(std::size_t at);
    /** Lease death: mark the page a candidate, fire the listeners. */
    void pageReturned(std::size_t at);
    /** First page in [@p from, @p to) marked returned, else @p to. */
    std::size_t nextReturned(std::size_t from, std::size_t to) const;
    void evictRegistryIfNeeded();
    void wireMetrics();
    void chargeReuse();

    pvboot::PVBoot &boot_;
    xen::DomId backend_;
    std::vector<PooledPage> pages_;
    std::size_t scan_hint_ = 0; //!< round-robin start of the free scan
    //! Bit i: page i's lease died since it was last handed out. Only
    //! these pages can be free, so acquirePage tests no others.
    std::vector<u64> returned_;
    //! buffer identity → index in pages_ (regionFor on tier-A pages)
    std::unordered_map<const Buffer *, std::size_t> page_index_;
    std::unordered_map<const Buffer *, Registered> regions_;
    std::list<Registered *> lru_; //!< front = most recently used
    bool drained_ = false;
    u64 issued_ = 0;
    u64 reused_ = 0;
    u64 registry_walks_ = 0;
    ListenerList listeners_;
    trace::Counter *c_issued_ = nullptr;
    trace::Counter *c_reused_ = nullptr;
    //! Liveness token shared with the (unremovable) shutdown hook.
    std::weak_ptr<GrantPool *> alive_;
};

} // namespace mirage::drivers

#endif // MIRAGE_DRIVERS_GRANT_POOL_H
