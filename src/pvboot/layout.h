/**
 * @file
 * The specialised single-address-space layout of a 64-bit unikernel
 * (paper Fig 2): text and data at the bottom, guard pages between
 * regions, a reserved I/O page area, a small minor heap and a large
 * extent-grown major heap — one address space, no userspace.
 */

#ifndef MIRAGE_PVBOOT_LAYOUT_H
#define MIRAGE_PVBOOT_LAYOUT_H

#include <string>
#include <vector>

#include "base/result.h"
#include "base/types.h"
#include "hypervisor/paging.h"

namespace mirage::pvboot {

/** Virtual-address constants of the Fig 2 layout (page numbers). */
struct LayoutMap
{
    // Guard page at virtual zero catches null dereferences.
    static constexpr u64 nullGuardVpn = 0;
    /** Text base: 1 MiB, like a conventional kernel load address. */
    static constexpr u64 textVpn = 0x100000 / pageSize;
    /** I/O page region base: 1 GiB. */
    static constexpr u64 ioVpn = 0x40000000ULL / pageSize;
    /** Minor heap base: 2 GiB (one 2 MB extent). */
    static constexpr u64 minorHeapVpn = 0x80000000ULL / pageSize;
    /** Major heap base: 4 GiB, growing upward in superpages. */
    static constexpr u64 majorHeapVpn = 0x100000000ULL / pageSize;
    /** Top of usable VA: Xen reserves the high end. */
    static constexpr u64 xenReservedVpn = 0x8000000000ULL / pageSize;
};

/** Sizes of the statically-mapped regions. */
struct LayoutSpec
{
    std::size_t textPages = 64;     //!< 256 kB of code
    std::size_t dataPages = 64;     //!< static data
    std::size_t stackPages = 8;     //!< single stack (one thread model)
    std::size_t ioPages = 4096;     //!< 16 MB I/O page pool
    std::size_t minorHeapPages = superpageSize / pageSize; //!< 2 MB
};

/**
 * Build the Fig 2 layout into a domain's page tables. Returns the
 * number of page-table updates applied, so callers can charge them.
 */
Result<u64> buildLayout(xen::PageTables &pt, const LayoutSpec &spec);

} // namespace mirage::pvboot

#endif // MIRAGE_PVBOOT_LAYOUT_H
