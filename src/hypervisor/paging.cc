#include "hypervisor/paging.h"

#include <iterator>

#include "base/logging.h"

namespace mirage::xen {

namespace {

/** The run of @p runs holding @p vpn, or end(). */
template <typename Runs>
auto
runOf(Runs &runs, u64 vpn) -> decltype(runs.begin())
{
    auto it = runs.upper_bound(vpn);
    if (it == runs.begin())
        return runs.end();
    --it;
    return vpn < it->first + it->second.count ? it : runs.end();
}

} // namespace

u64
PageTables::firstMapped(u64 first, u64 count) const
{
    if (runOf(runs_, first) != runs_.end())
        return first;
    auto next = runs_.upper_bound(first);
    if (next != runs_.end() && next->first < first + count)
        return next->first;
    return first + count;
}

void
PageTables::insert(u64 first, u64 count, Entry e)
{
    auto next = runs_.lower_bound(first);
    bool joins_next = next != runs_.end() && next->first == first + count &&
                      next->second.entry == e;
    if (next != runs_.begin()) {
        auto prev = std::prev(next);
        if (prev->first + prev->second.count == first &&
            prev->second.entry == e) {
            prev->second.count += count;
            if (joins_next) {
                prev->second.count += next->second.count;
                runs_.erase(next);
            }
            return;
        }
    }
    if (joins_next) {
        // Grow the next run downwards: rekey its node in place.
        auto node = runs_.extract(next);
        node.key() = first;
        node.mapped().count += count;
        runs_.insert(std::move(node));
        return;
    }
    runs_.emplace_hint(next, first, Run{count, e});
}

void
PageTables::erase(Runs::iterator it, u64 vpn)
{
    u64 first = it->first;
    u64 end = first + it->second.count;
    if (vpn + 1 < end)
        runs_.emplace_hint(std::next(it), vpn + 1,
                           Run{end - vpn - 1, it->second.entry});
    if (vpn == first)
        runs_.erase(it);
    else
        it->second.count = vpn - first;
}

Status
PageTables::map(u64 vpn, PagePerms perms, PageRole role)
{
    return mapRange(vpn, 1, perms, role);
}

Status
PageTables::mapRange(u64 first, u64 count, PagePerms perms, PageRole role)
{
    if (count == 0)
        return Status::success();
    // Post-seal, only fresh non-executable I/O mappings are legal
    // (§2.3.3): they must not replace any existing page.
    if (sealed_ && (role != PageRole::IoPage || perms.exec)) {
        refused_++;
        return stateError("page-table modification after seal");
    }
    u64 conflict = firstMapped(first, count);
    if (conflict > first) {
        insert(first, conflict - first, Entry{perms, role});
        updates_ += conflict - first;
        mapped_ += conflict - first;
    }
    if (conflict == first + count)
        return Status::success();
    refused_++;
    if (sealed_)
        return stateError("page-table modification after seal");
    return stateError(strprintf("vpn %llu already mapped",
                                (unsigned long long)conflict));
}

Status
PageTables::protect(u64 vpn, PagePerms perms)
{
    if (sealed_) {
        refused_++;
        return stateError("protect after seal");
    }
    auto it = runOf(runs_, vpn);
    if (it == runs_.end()) {
        refused_++;
        return notFoundError("protect of unmapped page");
    }
    Entry e = it->second.entry;
    if (e.perms != perms) {
        e.perms = perms;
        erase(it, vpn);
        insert(vpn, 1, e);
    }
    updates_++;
    return Status::success();
}

Status
PageTables::unmap(u64 vpn)
{
    if (sealed_) {
        refused_++;
        return stateError("unmap after seal");
    }
    auto it = runOf(runs_, vpn);
    if (it == runs_.end()) {
        refused_++;
        return notFoundError("unmap of unmapped page");
    }
    erase(it, vpn);
    mapped_--;
    updates_++;
    return Status::success();
}

Status
PageTables::seal()
{
    if (sealed_)
        return stateError("domain already sealed");
    // Runs are ordered, so the first offending run starts at the
    // lowest offending vpn.
    for (const auto &[first, run] : runs_) {
        if (violatesWx(run.entry.perms))
            return stateError(strprintf(
                "seal refused: vpn %llu is writable and executable",
                (unsigned long long)first));
    }
    sealed_ = true;
    return Status::success();
}

const PageTables::Entry *
PageTables::lookup(u64 vpn) const
{
    auto it = runOf(runs_, vpn);
    return it == runs_.end() ? nullptr : &it->second.entry;
}

bool
PageTables::canExecute(u64 vpn) const
{
    const Entry *e = lookup(vpn);
    return e && e->perms.exec;
}

bool
PageTables::canWrite(u64 vpn) const
{
    const Entry *e = lookup(vpn);
    return e && e->perms.write;
}

} // namespace mirage::xen
