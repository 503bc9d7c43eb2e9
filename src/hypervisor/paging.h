/**
 * @file
 * Guest page tables with W^X enforcement and the `seal` hypercall
 * (paper §2.3.3).
 *
 * A unikernel lays out its single address space, then seals it: the
 * hypervisor verifies that no page is both writable and executable and
 * refuses all further page-table modification — except fresh,
 * non-executable I/O mappings, which must not replace existing data,
 * code or guard pages. Code injected after sealing can therefore never
 * become executable.
 */

#ifndef MIRAGE_HYPERVISOR_PAGING_H
#define MIRAGE_HYPERVISOR_PAGING_H

#include <cstddef>
#include <map>

#include "base/result.h"
#include "base/types.h"

namespace mirage::xen {

/** Access rights of one mapped page. */
struct PagePerms
{
    bool read = false;
    bool write = false;
    bool exec = false;

    static PagePerms rw() { return {true, true, false}; }
    static PagePerms rx() { return {true, false, true}; }
    static PagePerms ro() { return {true, false, false}; }
    static PagePerms rwx() { return {true, true, true}; }
    static PagePerms none() { return {}; }

    bool operator==(const PagePerms &) const = default;
};

/** Role of a region, used for layout accounting and guard checks. */
enum class PageRole {
    Text,    //!< executable code
    Data,    //!< static data
    Heap,    //!< GC heaps
    IoPage,  //!< granted/shared I/O pages
    Guard,   //!< unmapped trap page
    Stack,
};

/**
 * One guest's page tables, keyed by virtual page number.
 *
 * The appliance lays its address space out as a handful of regions
 * (Fig 2), so the tables are stored as runs: maximal ranges of
 * consecutive pages with equal entries, ordered by first page. A booted
 * domain holds a few runs instead of thousands of per-page nodes; map()
 * extends or merges neighbouring runs, protect()/unmap() split them.
 *
 * The counters stay per page: one map, protect or unmap of one page is
 * one update, and mapRange() counts each page it maps. Page-table
 * updates are costed per backend flavour by the caller (the cost
 * difference between native and PV updates drives Fig 7a); this class
 * tracks the logical state and the seal policy.
 */
class PageTables
{
  public:
    struct Entry
    {
        PagePerms perms;
        PageRole role;

        bool operator==(const Entry &) const = default;
    };

    /** Map a page. Fails when already mapped or (post-seal) always
     *  unless it is a legal I/O mapping. */
    Status map(u64 vpn, PagePerms perms, PageRole role);

    /**
     * Map @p count pages from @p first: the same result and counters as
     * calling map() page by page and stopping at the first failure —
     * the pages before the first conflict are mapped, the conflicting
     * page is refused once and named in the error.
     */
    Status mapRange(u64 first, u64 count, PagePerms perms, PageRole role);

    /** Change permissions of an existing mapping. Fails post-seal. */
    Status protect(u64 vpn, PagePerms perms);

    /** Remove a mapping. Fails post-seal. */
    Status unmap(u64 vpn);

    /**
     * The seal hypercall: verifies W^X over all current mappings and
     * then freezes the tables. Idempotent failure: sealing twice is an
     * error.
     */
    Status seal();

    bool sealed() const { return sealed_; }

    /** Look up a mapping; nullptr when not present. The entry is
     *  shared by its run and valid until the next modification. */
    const Entry *lookup(u64 vpn) const;

    /** Whether a fetch from @p vpn may execute. */
    bool canExecute(u64 vpn) const;
    /** Whether a store to @p vpn may proceed. */
    bool canWrite(u64 vpn) const;

    std::size_t mappedPages() const { return mapped_; }
    u64 updatesApplied() const { return updates_; }
    u64 updatesRefused() const { return refused_; }
    /** Number of runs the mapped pages are stored as. */
    std::size_t runCount() const { return runs_.size(); }

  private:
    struct Run
    {
        u64 count;
        Entry entry;
    };
    using Runs = std::map<u64, Run>; //!< first vpn → run

    bool violatesWx(PagePerms p) const { return p.write && p.exec; }
    /** Lowest mapped vpn in [@p first, @p first + @p count), or
     *  @p first + @p count when the range is free. */
    u64 firstMapped(u64 first, u64 count) const;
    /** Store the free range [@p first, @p first + @p count) as @p e,
     *  merging with equal neighbours. */
    void insert(u64 first, u64 count, Entry e);
    /** Remove @p vpn from its run @p it, splitting the run. */
    void erase(Runs::iterator it, u64 vpn);

    Runs runs_;
    std::size_t mapped_ = 0;
    bool sealed_ = false;
    u64 updates_ = 0;
    u64 refused_ = 0;
};

} // namespace mirage::xen

#endif // MIRAGE_HYPERVISOR_PAGING_H
