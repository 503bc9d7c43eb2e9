#include "core/linker.h"

#include <algorithm>

namespace mirage::core {

std::size_t
Linker::retainedBytes(const Module &m, const ApplianceSpec &spec,
                      Mode mode) const
{
    std::size_t full = m.codeBytes();
    if (mode == Mode::Standard)
        return full;
    // Function-level DCE: keep the reachable core plus the features
    // the appliance actually uses; everything else is dropped.
    double feature_total = 0;
    double feature_used = 0;
    for (const auto &f : m.features) {
        feature_total += f.share;
        for (const auto &[mod, feat] : spec.usedFeatures) {
            if (mod == m.name && feat == f.name) {
                feature_used += f.share;
                break;
            }
        }
    }
    double non_feature = std::max(0.0, 1.0 - feature_total);
    double retained =
        non_feature * Module::dceReachableShare + feature_used;
    return std::size_t(double(full) * retained);
}

Result<LinkedImage>
Linker::link(const ApplianceSpec &spec, Mode mode, u64 seed) const
{
    auto closure = registry_.closure(spec.modules);
    if (!closure.ok())
        return closure.error();

    // Feature references must name modules in the closure.
    for (const auto &[mod, feat] : spec.usedFeatures) {
        const Module *m = registry_.find(mod);
        if (!m)
            return notFoundError("feature names unknown module: " + mod);
        bool found = false;
        for (const auto &f : m->features)
            found |= f.name == feat;
        if (!found)
            return notFoundError("module " + mod +
                                 " has no feature " + feat);
    }

    LinkedImage image;
    image.name = spec.name;
    image.seed = seed;
    image.dce = mode == Mode::Dce;

    struct Pending
    {
        std::string name;
        std::size_t bytes;
        bool text;
    };
    std::vector<Pending> pending;

    // Application code + each retained library module = one text
    // section; configuration is compiled in as a read-only data
    // section (§2.3.1: "configuration and data are compiled directly
    // into the unikernel").
    pending.push_back(
        {"app/" + spec.name,
         std::size_t(double(spec.appLoc) * Module::bytesPerLoc), true});
    image.totalLoc += spec.appLoc;
    for (const Module *m : closure.value()) {
        std::size_t bytes = retainedBytes(*m, spec, mode);
        pending.push_back({"lib/" + m->name, bytes, true});
        image.totalLoc += std::size_t(
            double(m->loc) * double(bytes) / double(m->codeBytes()));
    }
    std::size_t config_bytes = 64;
    for (const auto &[k, v] : spec.config)
        config_bytes += k.size() + v.size() + 16;
    pending.push_back({"config", config_bytes, false});
    pending.push_back({"data", 16 * 1024, false});

    // Compile-time ASR: shuffle section order and insert random guard
    // gaps using a linker-script PRNG seeded per build.
    Rng rng(seed);
    std::sort(pending.begin(), pending.end(),
              [](const Pending &a, const Pending &b) {
                  return a.name < b.name;
              });
    for (std::size_t i = pending.size(); i > 1; i--)
        std::swap(pending[i - 1], pending[rng.below(i)]);

    u64 vpn = 0x100000 / pageSize; // 1 MiB base, as in the layout
    for (const auto &p : pending) {
        vpn += 1 + rng.below(15); // randomised guard gap
        std::size_t pages = (p.bytes + pageSize - 1) / pageSize;
        if (pages == 0)
            pages = 1;
        Section s;
        s.module = p.name;
        s.baseVpn = vpn;
        s.bytes = p.bytes;
        s.perms = p.text ? xen::PagePerms::rx() : xen::PagePerms::ro();
        if (p.name == "data")
            s.perms = xen::PagePerms::rw();
        image.sections.push_back(s);
        if (p.text)
            image.textBytes += p.bytes;
        else
            image.dataBytes += p.bytes;
        vpn += pages;
    }
    return image;
}

Status
Linker::loadAndSeal(const LinkedImage &image, xen::PageTables &pt) const
{
    for (const auto &s : image.sections) {
        std::size_t pages = (s.bytes + pageSize - 1) / pageSize;
        if (pages == 0)
            pages = 1;
        xen::PageRole role = s.perms.exec ? xen::PageRole::Text
                                          : xen::PageRole::Data;
        Status st = pt.mapRange(s.baseVpn, pages, s.perms, role);
        if (!st.ok())
            return st;
    }
    return pt.seal();
}

Result<std::vector<std::string>>
Linker::auditModules(const ApplianceSpec &spec) const
{
    auto closure = registry_.closure(spec.modules);
    if (!closure.ok())
        return closure.error();
    std::vector<std::string> names;
    for (const Module *m : closure.value())
        names.push_back(m->name);
    std::sort(names.begin(), names.end());
    return names;
}

} // namespace mirage::core
