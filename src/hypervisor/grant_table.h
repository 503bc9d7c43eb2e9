/**
 * @file
 * Grant tables (paper §3.4.1): a domain shares a page with a specific
 * peer by entering it in its grant table; the peer maps the grant —
 * checked and charged by the hypervisor — and both then touch the same
 * underlying Buffer, giving genuine zero-copy inter-domain I/O.
 */

#ifndef MIRAGE_HYPERVISOR_GRANT_TABLE_H
#define MIRAGE_HYPERVISOR_GRANT_TABLE_H

#include <unordered_map>

#include "base/cstruct.h"
#include "base/result.h"
#include "base/types.h"

namespace mirage::check {
class Checker;
} // namespace mirage::check

namespace mirage::trace {
class Counter;
} // namespace mirage::trace

namespace mirage::sim {
class Engine;
} // namespace mirage::sim

namespace mirage::xen {

using DomId = u32;
using GrantRef = u32;

class GrantTable
{
  public:
    explicit GrantTable(DomId owner) : owner_(owner) {}

    /**
     * Grant @p peer access to @p page.
     * @param readonly when true the peer may only read.
     * @return the grant reference to pass over a ring.
     */
    GrantRef grantAccess(DomId peer, Cstruct page, bool readonly);

    /**
     * Revoke a grant. Fails while the peer still has it mapped —
     * exactly the resource-leak hazard the paper's combinators guard
     * (the `with_grant` wrapper in src/drivers frees on all paths).
     */
    Status endAccess(GrantRef ref);

    /** Hypervisor-side validation when @p peer maps @p ref. */
    Result<Cstruct> mapFor(DomId peer, GrantRef ref, bool write);

    /** Peer finished with the mapping. */
    Status unmapFor(DomId peer, GrantRef ref);

    /** Number of currently active (not ended) grants. */
    std::size_t activeGrants() const { return entries_.size(); }

    /**
     * Times @p ref is currently mapped by its peer (0 when unknown).
     * The grant pool uses this to tell a free pooled page (only the
     * pool, the table entry and the peer's cached map reference it)
     * from one still borrowed by in-flight I/O.
     */
    u32 mapCountOf(GrantRef ref) const;

    /**
     * Where live grant @p ref keeps its map count, for a reader that
     * tests it on a hot path without a lookup (the grant pool's free
     * test), or null for an unknown ref. Entries are hash-map nodes,
     * so the address holds until the grant ends (endAccess,
     * releaseAll).
     */
    const u32 *mapCountAt(GrantRef ref) const;

    /**
     * Mark @p ref as a registry grant (drivers::GrantPool's registered
     * buffers). The table counts marked grants its peer has no mapping
     * of; only those can be evicted from the registry, so the pool's
     * eviction walk returns at once while the count is 0.
     */
    void markRegistry(GrantRef ref);

    /** Registry-marked grants whose map count is 0. */
    std::size_t idleRegistryGrants() const { return idle_registry_; }

    /**
     * Drop every entry, releasing the page views they hold. Called at
     * domain teardown (after the checker's leak audit): entries keep
     * guest pages alive, and their deleters live in the guest, so they
     * must not outlive it.
     */
    void
    releaseAll()
    {
        entries_.clear();
        idle_registry_ = 0;
    }

    /**
     * Bind the engine whose checker (if any, and enabled) audits this
     * table. Resolved lazily on every operation, so a checker attached
     * to the engine after domain construction is still honoured.
     */
    void bindEngine(const sim::Engine *engine) { engine_ = engine; }

    /** grantAccess + endAccess + map + unmap calls, all tables. */
    u64 ops() const { return ops_; }

  private:
    check::Checker *checker() const;
    void countOp();

    struct Entry
    {
        DomId peer;
        Cstruct page;
        bool readonly;
        u32 mapCount = 0;
        bool registry = false; //!< markRegistry()
    };

    DomId owner_;
    GrantRef next_ref_ = 1;
    const sim::Engine *engine_ = nullptr;
    std::unordered_map<GrantRef, Entry> entries_;
    //! Registry-marked entries with mapCount 0, kept at every 0<->1
    //! map-count move, endAccess and releaseAll.
    std::size_t idle_registry_ = 0;
    u64 ops_ = 0;
    trace::Counter *c_ops_ = nullptr; //!< global `gnttab.ops`
};

} // namespace mirage::xen

#endif // MIRAGE_HYPERVISOR_GRANT_TABLE_H
