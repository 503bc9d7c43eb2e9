#include "pvboot/layout.h"

namespace mirage::pvboot {

namespace {

Status
mapRange(xen::PageTables &pt, u64 first_vpn, std::size_t count,
         xen::PagePerms perms, xen::PageRole role, u64 &updates)
{
    Status st = pt.mapRange(first_vpn, count, perms, role);
    if (st.ok())
        updates += count;
    return st;
}

} // namespace

Result<u64>
buildLayout(xen::PageTables &pt, const LayoutSpec &spec)
{
    using xen::PagePerms;
    using xen::PageRole;
    u64 updates = 0;

    // Null guard: mapped with no permissions so the layout records it.
    Status st = pt.map(LayoutMap::nullGuardVpn, PagePerms::none(),
                       PageRole::Guard);
    if (!st.ok())
        return st.error();
    updates++;

    st = mapRange(pt, LayoutMap::textVpn, spec.textPages, PagePerms::rx(),
                  PageRole::Text, updates);
    if (!st.ok())
        return st.error();

    u64 data_vpn = LayoutMap::textVpn + spec.textPages;
    st = mapRange(pt, data_vpn, spec.dataPages, PagePerms::rw(),
                  PageRole::Data, updates);
    if (!st.ok())
        return st.error();

    // Guard page between data and stack.
    st = pt.map(data_vpn + spec.dataPages, PagePerms::none(),
                PageRole::Guard);
    if (!st.ok())
        return st.error();
    updates++;

    st = mapRange(pt, data_vpn + spec.dataPages + 1, spec.stackPages,
                  PagePerms::rw(), PageRole::Stack, updates);
    if (!st.ok())
        return st.error();

    st = mapRange(pt, LayoutMap::ioVpn, spec.ioPages, PagePerms::rw(),
                  PageRole::IoPage, updates);
    if (!st.ok())
        return st.error();

    st = mapRange(pt, LayoutMap::minorHeapVpn, spec.minorHeapPages,
                  PagePerms::rw(), PageRole::Heap, updates);
    if (!st.ok())
        return st.error();

    // The major heap is not pre-mapped: the extent allocator grows it
    // in superpages on demand (or all at once when sealing).
    return updates;
}

} // namespace mirage::pvboot
