#include "trace/metrics.h"

#include "base/logging.h"

namespace mirage::trace {

namespace {

// Shared by the counter and histogram maps; callers hold the
// registry's mutex.
template <template <class> class Family, class T>
T &
member(std::map<std::string, Family<T>> &families, const std::string &name,
       const std::string &key, const std::string &value)
{
    Family<T> &family = families[name];
    if (family.members.empty())
        family.key = key;
    std::unique_ptr<T> &slot = family.members[value];
    if (!slot)
        slot = std::make_unique<T>();
    return *slot;
}

template <template <class> class Family, class T>
const T *
findMember(const std::map<std::string, Family<T>> &families,
           const std::string &name, const std::string &value)
{
    auto family = families.find(name);
    if (family == families.end())
        return nullptr;
    auto it = family->second.members.find(value);
    return it == family->second.members.end() ? nullptr : it->second.get();
}

/** Prometheus metric names allow [a-zA-Z0-9_:]; fold the rest to '_'. */
std::string
promName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    if (!out.empty() && out[0] >= '0' && out[0] <= '9')
        out.insert(out.begin(), '_');
    return out;
}

std::string
series(const std::string &name, const std::string &labels)
{
    return labels.empty() ? name : name + "{" + labels + "}";
}

} // namespace

// ---- MetricsRegistry -------------------------------------------------------

Counter &
MetricsRegistry::counter(const std::string &name, const std::string &key,
                         const std::string &value)
{
    std::lock_guard<std::mutex> lk(mu_);
    return member(counters_, name, key, value);
}

Histogram &
MetricsRegistry::histogram(const std::string &name, const std::string &key,
                           const std::string &value)
{
    std::lock_guard<std::mutex> lk(mu_);
    return member(histograms_, name, key, value);
}

const Counter *
MetricsRegistry::findCounter(const std::string &name,
                             const std::string &value) const
{
    std::lock_guard<std::mutex> lk(mu_);
    return findMember(counters_, name, value);
}

const Histogram *
MetricsRegistry::findHistogram(const std::string &name,
                               const std::string &value) const
{
    std::lock_guard<std::mutex> lk(mu_);
    return findMember(histograms_, name, value);
}

std::map<std::string, const Histogram *>
MetricsRegistry::histogramFamily(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::map<std::string, const Histogram *> out;
    if (auto it = histograms_.find(name); it != histograms_.end())
        for (const auto &[value, h] : it->second.members)
            out.emplace(value, h.get());
    return out;
}

std::string
MetricsRegistry::dump() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::string out;
    for (const auto &[name, family] : counters_)
        for (const auto &[value, c] : family.members)
            out += strprintf(
                "%-40s %llu\n",
                series(name, promLabel(family.key, value)).c_str(),
                (unsigned long long)c->value());
    for (const auto &[name, family] : histograms_)
        for (const auto &[value, h] : family.members)
            out += strprintf(
                "%-40s %s\n",
                series(name, promLabel(family.key, value)).c_str(),
                h->summary().c_str());
    return out;
}

std::string
MetricsRegistry::toPrometheus() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::string out;
    for (const auto &[name, family] : counters_) {
        std::string p = promName(name);
        promType(out, p, "counter");
        for (const auto &[value, c] : family.members)
            promSample(out, p, promLabel(family.key, value),
                       std::to_string(c->value()));
    }
    for (const auto &[name, family] : histograms_) {
        std::string p = promName(name);
        promType(out, p, "histogram");
        for (const auto &[value, h] : family.members)
            promHistogram(out, p, promLabel(family.key, value), *h);
    }
    return out;
}

// ---- Prometheus text writer ------------------------------------------------

std::string
promLabel(const std::string &key, const std::string &value)
{
    if (key.empty())
        return {};
    // Label values allow anything except backslash, quote, newline.
    std::string out = key + "=\"";
    for (char c : value) {
        if (c == '\\' || c == '"')
            out += '\\';
        out += c == '\n' ? std::string("\\n") : std::string(1, c);
    }
    return out + "\"";
}

void
promType(std::string &out, const std::string &name, const char *type)
{
    out += "# TYPE " + name + " " + type + "\n";
}

void
promSample(std::string &out, const std::string &name,
           const std::string &labels, const std::string &value)
{
    out += series(name, labels) + " " + value + "\n";
}

void
promHistogram(std::string &out, const std::string &name,
              const std::string &labels, const Histogram &h)
{
    std::string le = labels.empty() ? "le=\"" : labels + ",le=\"";
    u64 cumulative = 0;
    for (std::size_t i = 0; i < Histogram::bucketCount; i++) {
        u64 in_bucket = h.bucketCountAt(i);
        if (in_bucket == 0)
            continue;
        cumulative += in_bucket;
        promSample(out, name + "_bucket",
                   le + std::to_string(Histogram::bucketUpperBound(i)) +
                       "\"",
                   std::to_string(cumulative));
    }
    promSample(out, name + "_bucket", le + "+Inf\"",
               std::to_string(h.count()));
    promSample(out, name + "_sum", labels, std::to_string(h.sum()));
    promSample(out, name + "_count", labels, std::to_string(h.count()));
}

} // namespace mirage::trace
