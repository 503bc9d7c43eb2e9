#include "hypervisor/grant_table.h"

#include "base/logging.h"
#include "check/check.h"
#include "sim/engine.h"
#include "trace/metrics.h"

namespace mirage::xen {

void
GrantTable::countOp()
{
    // One tick per grant-table operation, whichever kind: the datapath
    // benches compare this per-packet across tuning configurations.
    ops_++;
    if (!c_ops_ && engine_ && engine_->metrics())
        c_ops_ = &engine_->metrics()->counter("gnttab.ops");
    trace::bump(c_ops_);
}

check::Checker *
GrantTable::checker() const
{
    if (!engine_)
        return nullptr;
    check::Checker *ck = engine_->checker();
    return (ck && ck->enabled()) ? ck : nullptr;
}

GrantRef
GrantTable::grantAccess(DomId peer, Cstruct page, bool readonly)
{
    countOp();
    GrantRef ref = next_ref_++;
    entries_.emplace(ref, Entry{peer, std::move(page), readonly, 0});
    if (check::Checker *ck = checker())
        ck->grantCreated(owner_, ref, peer);
    return ref;
}

Status
GrantTable::endAccess(GrantRef ref)
{
    countOp();
    check::Checker *ck = checker();
    auto it = entries_.find(ref);
    if (it == entries_.end()) {
        if (ck)
            ck->grantEndAccess(owner_, ref, false);
        return notFoundError("endAccess on unknown grant");
    }
    if (it->second.mapCount > 0) {
        if (ck)
            ck->grantEndAccess(owner_, ref, false);
        return stateError("grant still mapped by peer");
    }
    if (ck)
        ck->grantEndAccess(owner_, ref, true);
    if (it->second.registry)
        idle_registry_--;
    entries_.erase(it);
    return Status::success();
}

Result<Cstruct>
GrantTable::mapFor(DomId peer, GrantRef ref, bool write)
{
    countOp();
    check::Checker *ck = checker();
    auto it = entries_.find(ref);
    if (it == entries_.end()) {
        if (ck)
            ck->grantMap(owner_, ref, peer, false);
        return notFoundError("map of unknown grant ref");
    }
    Entry &e = it->second;
    if (e.peer != peer || (write && e.readonly)) {
        if (ck)
            ck->grantMap(owner_, ref, peer, false);
        return stateError(e.peer != peer
                              ? "grant not issued to this domain"
                              : "write map of read-only grant");
    }
    if (e.mapCount++ == 0 && e.registry)
        idle_registry_--;
    if (ck)
        ck->grantMap(owner_, ref, peer, true);
    return e.page;
}

Status
GrantTable::unmapFor(DomId peer, GrantRef ref)
{
    countOp();
    check::Checker *ck = checker();
    auto it = entries_.find(ref);
    if (it == entries_.end()) {
        if (ck)
            ck->grantUnmap(owner_, ref, peer, false);
        return notFoundError("unmap of unknown grant ref");
    }
    Entry &e = it->second;
    if (e.peer != peer) {
        if (ck)
            ck->grantUnmap(owner_, ref, peer, false);
        return stateError("unmap by wrong domain");
    }
    if (e.mapCount == 0) {
        if (ck)
            ck->grantUnmap(owner_, ref, peer, false);
        return stateError("unmap of unmapped grant");
    }
    if (--e.mapCount == 0 && e.registry)
        idle_registry_++;
    if (ck)
        ck->grantUnmap(owner_, ref, peer, true);
    return Status::success();
}

void
GrantTable::markRegistry(GrantRef ref)
{
    auto it = entries_.find(ref);
    if (it == entries_.end() || it->second.registry)
        return;
    it->second.registry = true;
    if (it->second.mapCount == 0)
        idle_registry_++;
}

u32
GrantTable::mapCountOf(GrantRef ref) const
{
    const u32 *count = mapCountAt(ref);
    return count ? *count : 0;
}

const u32 *
GrantTable::mapCountAt(GrantRef ref) const
{
    auto it = entries_.find(ref);
    return it == entries_.end() ? nullptr : &it->second.mapCount;
}

} // namespace mirage::xen
