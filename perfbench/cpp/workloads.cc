#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include "baseline/web_servers.h"
#include "core/cloud.h"
#include "loadgen/iperf.h"
#include "protocols/http/client.h"
#include "protocols/http/server.h"

namespace perfbench {

using namespace mirage;
using Clock = std::chrono::steady_clock;

namespace {

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** CPU seconds consumed by the calling thread so far. */
double
threadCpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) / 1e9;
}

/** CPU seconds consumed by every thread of the process so far. */
double
processCpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) / 1e9;
}

/** Current resident set, KiB (/proc/self/statm). */
double
currentRssKib()
{
    long pages = 0, resident = 0;
    if (std::FILE *f = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2)
            resident = 0;
        std::fclose(f);
    }
    return double(resident) * double(sysconf(_SC_PAGESIZE)) / 1024.0;
}

sim::Engine &
currentEngine(core::Guest &g)
{
    sim::Engine *e = sim::Engine::current();
    return e ? *e : g.dom.engine();
}

/** Provisioning plus result collection for one workload. */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual void setup(core::Cloud &cloud, SpanLog *spans) = 0;
    /** After run(): virtual results, operation counts, errors. */
    virtual void collect(core::Cloud &cloud, Iteration &it) = 0;
};

// ---- fleet_storm --------------------------------------------------------

class Storm final : public Workload
{
  public:
    explicit Storm(const StormInputs &in)
        : in_(in), servers_(in.order.size()),
          done_ns_(in.order.size(), -1)
    {
    }

    void
    setup(core::Cloud &cloud, SpanLog *spans) override
    {
        {
            SpanLog::Scope s(spans, "core", "Cloud::startUnikernel");
            client_ = &cloud.startUnikernel("client",
                                            net::Ipv4Addr(10, 0, 0, 9));
        }
        // All submissions land at t=0: the toolstack absorbs the whole
        // storm at once, so first-response latency includes queueing.
        for (u32 i : in_.order) {
            SpanLog::Scope s(spans, "core", "Cloud::bootUnikernel");
            cloud.bootUnikernel(
                strprintf("storm%u", i), ipOf(i), in_.memoryMib[i],
                [this, i](core::Guest &g, xen::BootBreakdown) {
                    ready(g, i);
                });
        }
    }

    void
    collect(core::Cloud &, Iteration &it) override
    {
        for (u32 i = 0; i < done_ns_.size(); i++) {
            if (done_ns_[i] < 0)
                continue;
            it.virt.latencyNs.push_back(done_ns_[i]);
            it.virt.payloadBytes += stormBody(in_.path[i]).size();
            it.virt.elapsedNs = std::max(it.virt.elapsedNs, done_ns_[i]);
        }
        it.virt.connsCompleted = it.virt.latencyNs.size();
        it.attempted = done_ns_.size();
        it.failed = it.attempted - it.virt.connsCompleted;
        if (bad_.load() > 0)
            it.errors.push_back(strprintf("%llu probe responses were not "
                                          "200 with the expected body",
                                          (unsigned long long)bad_.load()));
        u64 http = 0;
        for (const auto &s : servers_)
            http += s ? s->requestsServed() : 0;
        it.layer["http.requests"] = double(http);
    }

  private:
    static net::Ipv4Addr
    ipOf(u32 i)
    {
        return net::Ipv4Addr(10, 0, u8(1 + i / 250), u8(1 + i % 250));
    }

    // Runs on the appliance's home shard: each index has its own slot.
    void
    ready(core::Guest &g, u32 i)
    {
        servers_[i] = std::make_unique<http::HttpServer>(
            g.stack, 80,
            [](const http::HttpRequest &req,
               http::HttpServer::Responder respond) {
                respond(http::HttpResponse::text(200, stormBody(req.path)));
            });
        sim::crossPost(client_->dom.engine(), Duration::micros(2),
                       [this, i] { probe(i); });
    }

    // Runs on the client's shard.
    void
    probe(u32 i)
    {
        auto holder = std::make_shared<std::shared_ptr<http::HttpSession>>();
        *holder = http::HttpSession::open(
            client_->stack, ipOf(i), 80, [this, i, holder](Status st) {
                if (!st.ok())
                    return; // counted as failed: no completion stamp
                auto session = *holder;
                http::HttpRequest get;
                get.method = "GET";
                get.path = in_.path[i];
                std::weak_ptr<http::HttpSession> weak = session;
                session->request(
                    get, [this, i, weak](Result<http::HttpResponse> r) {
                        if (r.ok() && r.value().status == 200 &&
                            r.value().body == stormBody(in_.path[i]))
                            done_ns_[i] = currentEngine(*client_).now().ns();
                        else
                            bad_++;
                        if (auto s = weak.lock())
                            s->close();
                    });
            });
    }

    const StormInputs &in_;
    core::Guest *client_ = nullptr;
    std::vector<std::unique_ptr<http::HttpServer>> servers_;
    std::vector<i64> done_ns_;
    std::atomic<u64> bad_{0};
};

// ---- bulk_tcp -----------------------------------------------------------

class Bulk final : public Workload
{
  public:
    explicit Bulk(const BulkInputs &in)
        : in_(in), chunk_(Cstruct::create(in.chunkBytes)),
          conns_(in.flows)
    {
        for (std::size_t i = 0; i < chunk_.length(); i++)
            chunk_.setU8(i, u8('A' + i % 23));
    }

    void
    setup(core::Cloud &cloud, SpanLog *spans) override
    {
        {
            SpanLog::Scope s(spans, "core", "Cloud::startGuest");
            rx_ = &cloud.startGuest("rx", xen::GuestKind::LinuxMinimal,
                                    net::Ipv4Addr(10, 0, 0, 2), 512, 1, 1.0);
        }
        {
            SpanLog::Scope s(spans, "core", "Cloud::startUnikernel");
            tx_ = &cloud.startUnikernel("tx", net::Ipv4Addr(10, 0, 0, 3), 64);
        }
        {
            SpanLog::Scope s(spans, "loadgen", "IperfServer");
            server_ = std::make_unique<loadgen::IperfServer>(*rx_, 5001);
        }
        sim::Engine &e = tx_->sched.engine();
        for (u32 f = 0; f < in_.flows; f++)
            e.at(TimePoint(i64(in_.startUs[f]) * 1000),
                 [this, f] { connect(f); });
        e.at(TimePoint(i64(in_.windowMs) * 1'000'000), [this] { stop(); });
    }

    void
    collect(core::Cloud &, Iteration &it) override
    {
        it.virt.latencyNs = latency_;
        it.virt.payloadBytes = server_->bytesReceived();
        it.virt.elapsedNs = last_done_ns_;
        it.attempted = in_.flows;
        u64 ok = 0;
        for (const auto &c : conns_)
            ok += c ? 1 : 0;
        it.virt.connsCompleted = ok;
        it.failed = (in_.flows - ok) + write_failures_;
        if (server_->bytesReceived() != written_)
            it.errors.push_back(strprintf(
                "iperf received %llu bytes but %llu were sent",
                (unsigned long long)server_->bytesReceived(),
                (unsigned long long)written_));
        if (server_->flowsAccepted() != in_.flows)
            it.errors.push_back(strprintf(
                "iperf accepted %llu of %u flows",
                (unsigned long long)server_->flowsAccepted(), in_.flows));
        it.layer["http.requests"] = 0;
    }

  private:
    void
    connect(u32 f)
    {
        tx_->stack.tcp().connect(
            net::Ipv4Addr(10, 0, 0, 2), 5001,
            [this, f](Result<net::TcpConnPtr> r) {
                if (!r.ok())
                    return; // counted as failed: no connection
                conns_[f] = r.value();
                if (running_)
                    pump(f);
                else
                    conns_[f]->close();
            });
    }

    void
    pump(u32 f)
    {
        if (!running_)
            return;
        i64 t0 = tx_->sched.engine().now().ns();
        auto p = conns_[f]->write(chunk_);
        written_ += chunk_.length();
        p->onComplete([this, f, t0](rt::Promise &pr) {
            if (!pr.resolvedOk()) {
                write_failures_++;
                return;
            }
            last_done_ns_ = tx_->sched.engine().now().ns();
            latency_.push_back(last_done_ns_ - t0);
            pump(f);
        });
    }

    void
    stop()
    {
        running_ = false;
        for (auto &c : conns_)
            if (c)
                c->close();
    }

    const BulkInputs &in_;
    Cstruct chunk_;
    core::Guest *rx_ = nullptr;
    core::Guest *tx_ = nullptr;
    std::unique_ptr<loadgen::IperfServer> server_;
    std::vector<net::TcpConnPtr> conns_;
    std::vector<i64> latency_; //!< per chunk: write() to completion
    i64 last_done_ns_ = 0;
    bool running_ = true;
    u64 written_ = 0;
    u64 write_failures_ = 0;
};

// ---- web_conns ----------------------------------------------------------

class Web final : public Workload
{
  public:
    explicit Web(const WebInputs &in) : in_(in)
    {
        for (u32 i = 0; i < in.paths.size(); i++) {
            bodies_.push_back(pageBody(i, in.pageBytes));
            pages_.push_back(Cstruct::ofString(bodies_.back()));
            index_[in.paths[i]] = i;
        }
    }

    void
    setup(core::Cloud &cloud, SpanLog *spans) override
    {
        for (u32 h = 0; h < in_.servers; h++) {
            net::Ipv4Addr ip(10, 0, 0, u8(10 + h));
            ips_.push_back(ip);
            core::Guest *g;
            {
                SpanLog::Scope s(spans, "core", "Cloud::startUnikernel");
                g = &cloud.startUnikernel(strprintf("www%u", h), ip, 32);
            }
            SpanLog::Scope s(spans, "protocols", "HttpServer");
            // Mirage serves views of the resident page (sendfile-style:
            // the page is granted to the backend in place).
            servers_.push_back(std::make_unique<http::HttpServer>(
                g->stack, 80,
                [this, g](const http::HttpRequest &req, auto respond) {
                    baseline::chargeMirageStaticConnection(*g);
                    auto it = index_.find(req.path);
                    if (it == index_.end())
                        respond(http::HttpResponse::notFound());
                    else
                        respond(http::HttpResponse::view({pages_[it->second]}));
                }));
        }
        {
            SpanLog::Scope s(spans, "core", "Cloud::startGuest");
            client_ = &cloud.startGuest("httperf",
                                        xen::GuestKind::LinuxMinimal,
                                        net::Ipv4Addr(10, 0, 0, 3), 512, 4,
                                        1.0);
        }
        // Closed loop: every completion immediately opens the next
        // one-shot connection until the window closes.
        SpanLog::Scope s(spans, "protocols", "httpGet (initial window)");
        for (u32 c = 0; c < in_.servers * in_.connsPerServer; c++)
            fire();
        client_->sched.engine().at(TimePoint(i64(in_.windowMs) * 1'000'000),
                                   [this] { running_ = false; });
    }

    void
    collect(core::Cloud &, Iteration &it) override
    {
        std::sort(latency_.begin(), latency_.end());
        it.virt.latencyNs = latency_;
        it.virt.payloadBytes = bytes_;
        it.virt.elapsedNs = last_done_ns_;
        it.virt.connsCompleted = latency_.size();
        it.attempted = next_;
        it.failed = next_ - latency_.size();
        if (bad_ > 0)
            it.errors.push_back(strprintf("%llu responses were not 200 "
                                          "with the expected page",
                                          (unsigned long long)bad_));
        u64 http = 0;
        for (const auto &s : servers_)
            http += s->requestsServed();
        it.layer["http.requests"] = double(http);
    }

  private:
    void
    fire()
    {
        if (!running_)
            return;
        std::size_t k = next_++ % in_.target.size();
        u32 page = in_.pathOf[k];
        i64 t0 = currentEngine(*client_).now().ns();
        http::httpGet(client_->stack, ips_[in_.target[k]], 80,
                      in_.paths[page],
                      [this, page, t0](Result<http::HttpResponse> r) {
                          if (r.ok() && r.value().status == 200 &&
                              r.value().body == bodies_[page]) {
                              last_done_ns_ =
                                  currentEngine(*client_).now().ns();
                              latency_.push_back(last_done_ns_ - t0);
                              bytes_ += bodies_[page].size();
                          } else {
                              bad_++;
                          }
                          fire();
                      });
    }

    const WebInputs &in_;
    std::vector<std::string> bodies_;
    std::vector<Cstruct> pages_;
    std::unordered_map<std::string, u32> index_;
    std::vector<net::Ipv4Addr> ips_;
    std::vector<std::unique_ptr<http::HttpServer>> servers_;
    core::Guest *client_ = nullptr;
    bool running_ = true;
    u64 next_ = 0;
    u64 bad_ = 0;
    u64 bytes_ = 0;
    i64 last_done_ns_ = 0;
    std::vector<i64> latency_; //!< connect to response, per connection
};

std::unique_ptr<Workload>
makeWorkload(const Inputs &in)
{
    if (in.workload == "fleet_storm")
        return std::make_unique<Storm>(in.storm);
    if (in.workload == "bulk_tcp")
        return std::make_unique<Bulk>(in.bulk);
    return std::make_unique<Web>(in.web);
}

/**
 * Detach request-flow tracking, boot tracking, the profiler, and the
 * SLO tracker and hub (both fed by the flow finalize hook), through
 * their public set/enable calls.
 */
void
detachTelemetry(core::Cloud &cloud)
{
    cloud.flows().enable(false);
    cloud.flows().setFinalizeHook({});
    cloud.boots().enable(false);
    cloud.engine().setFlows(nullptr);
    cloud.engine().setBoots(nullptr);
    cloud.engine().setProfiler(nullptr);
    cloud.shards().syncAttachments();
}

/** Sum of self time on folded-stack paths containing @p label. */
double
foldedSelfNs(const std::string &folded, const std::string &label)
{
    double total = 0;
    std::size_t at = 0;
    while (at < folded.size()) {
        std::size_t eol = folded.find('\n', at);
        if (eol == std::string::npos)
            eol = folded.size();
        std::string line = folded.substr(at, eol - at);
        at = eol + 1;
        std::size_t sp = line.rfind(' ');
        if (sp == std::string::npos)
            continue;
        if (line.substr(0, sp).find(label) != std::string::npos)
            total += std::strtod(line.c_str() + sp + 1, nullptr);
    }
    return total;
}

/** Counters and profiles every layer already exports, read after run(). */
void
readLayers(core::Cloud &cloud, std::map<std::string, double> &out)
{
    for (const char *name :
         {"gnttab.ops", "notify.sent", "notify.suppressed", "grant.issued",
          "grant.reused", "netif.rx.stalls", "net.tx.copy_bytes",
          "net.tx.bytes", "tcp.retransmits", "tcp.segments_sent",
          "tcp.bytes_sent", "gc.minor_collections", "rt.wakeups"}) {
        const trace::Counter *c = cloud.metrics().findCounter(name);
        out[name] = c ? double(c->value()) : 0;
    }
    const trace::Histogram *major =
        cloud.metrics().findHistogram("gc.major_pause_ns");
    out["gc.major_pause_p99_ns"] =
        major && major->count() ? double(major->quantile(0.99)) : 0;

    const sim::ShardSet &shards = cloud.shards();
    const trace::WallProfiler &wp = shards.wallprof();
    out["shard.windows"] = double(shards.windows());
    out["shard.cross_posts"] = double(shards.crossPosts());
    bool sharded = wp.windows() > 0;
    out["shard.efficiency"] = sharded ? wp.parallelEfficiency() : 0;
    out["shard.barrier_wait_frac"] = sharded ? wp.barrierWaitFraction() : 0;
    out["shard.imbalance"] = sharded ? wp.imbalanceRatio() : 0;
    out["shard.mailbox_lag_p99_ns"] =
        sharded ? double(wp.mailboxLagWall().quantile(0.99)) : 0;
    double busy = 0;
    for (unsigned w = 0; w < wp.workers(); w++)
        busy += double(wp.shardStats(w).busy_ns);
    out["shard.busy_ns"] = busy;

    for (const auto &[phase, h] : cloud.boots().phaseHistogramsSnapshot())
        out["boot." + phase + "_p99_ms"] = double(h.quantile(0.99)) / 1e6;
    out["flows.completed"] = double(cloud.flows().completed());

    const trace::Profiler &prof = cloud.profiler();
    double total = double(prof.totalNs());
    if (prof.enabled() && total > 0) {
        std::string folded = prof.folded();
        out["virt_busy.netback"] = foldedSelfNs(folded, "hyp/netback") / total;
        out["virt_busy.http"] = foldedSelfNs(folded, "app/http") / total;
    }

    double active = 0, max_active = 0, max_pool = 0;
    for (const auto &d : cloud.hypervisor().domains()) {
        double a = double(d->grantTable().activeGrants());
        active += a;
        max_active = std::max(max_active, a);
    }
    for (const auto &g : cloud.guests())
        max_pool = std::max(max_pool,
                            double(g->nif.grantPool().pooledPages()));
    out["grants.active"] = active;
    out["grants.max_active_per_domain"] = max_active;
    out["pool.max_pages"] = max_pool;
}

void
writeProfiles(core::Cloud &cloud, const std::string &prefix)
{
    for (auto st : {cloud.profiler().writeFolded(prefix + ".folded"),
                    cloud.shards().wallprof().writeChromeJson(
                        prefix + ".wall.json")})
        if (!st.ok())
            std::fprintf(stderr, "perfbench: %s\n",
                         st.error().message.c_str());
}

} // namespace

double
Virtual::quantileMs(double q) const
{
    if (latencyNs.empty())
        return 0;
    std::size_t idx = std::size_t(q * double(latencyNs.size() - 1) + 0.5);
    return double(latencyNs[std::min(idx, latencyNs.size() - 1)]) / 1e6;
}

double
Virtual::goodputMbps() const
{
    return elapsedNs > 0 ? double(payloadBytes) * 8.0 * 1e3 / double(elapsedNs)
                         : 0;
}

double
Virtual::connsPerSecond() const
{
    return elapsedNs > 0 ? double(connsCompleted) * 1e9 / double(elapsedNs)
                         : 0;
}

std::string
Virtual::diff(const Virtual &o) const
{
    if (latencyNs != o.latencyNs)
        return strprintf("latency samples differ (%zu vs %zu, p99 %.4f vs "
                         "%.4f ms)",
                         latencyNs.size(), o.latencyNs.size(),
                         quantileMs(0.99), o.quantileMs(0.99));
    if (elapsedNs != o.elapsedNs)
        return strprintf("virtual elapsed %lld vs %lld ns",
                         (long long)elapsedNs, (long long)o.elapsedNs);
    if (payloadBytes != o.payloadBytes || connsCompleted != o.connsCompleted)
        return "payload or completed connections differ";
    if (events != o.events)
        return strprintf("sim.events %llu vs %llu",
                         (unsigned long long)events,
                         (unsigned long long)o.events);
    if (checksum != o.checksum)
        return strprintf("dispatchChecksum %016llx vs %016llx",
                         (unsigned long long)checksum,
                         (unsigned long long)o.checksum);
    return "";
}

double
peakRssMib()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

namespace {

std::unique_ptr<core::Cloud>
makeCloud(const Inputs &in, u32 shards)
{
    core::Cloud::Config cfg;
    cfg.shards = shards;
    // A /16 holds the whole storm fleet.
    if (in.workload == "fleet_storm")
        cfg.netmask = net::Ipv4Addr(255, 255, 0, 0);
    return std::make_unique<core::Cloud>(cfg);
}

} // namespace

double
setupOnly(const Inputs &in, u32 shards)
{
    double t0 = threadCpuS();
    std::unique_ptr<core::Cloud> cloud = makeCloud(in, shards);
    cloud->checker().enable();
    std::unique_ptr<Workload> w = makeWorkload(in);
    w->setup(*cloud, nullptr);
    double t1 = threadCpuS();
    for (const auto &g : cloud->guests())
        g->dom.shutdown(0);
    w.reset();
    cloud.reset();
    return t1 - t0;
}

Iteration
runIteration(const Inputs &in, const Variant &v)
{
    Iteration it;
    SpanLog *spans = v.spans;
    if (spans)
        spans->setVariant(v.name);
    double rss0 = currentRssKib();

    // 1-shard iterations are cut into slices (see Iteration::slicesS);
    // slice() closes the current one.
    bool sliced = v.shards == 1;
    double slice0 = threadCpuS();
    auto slice = [&] {
        if (!sliced)
            return;
        double now = threadCpuS();
        it.slicesS.push_back(now - slice0);
        slice0 = now;
    };

    double cpu0 = processCpuS();
    auto t0 = Clock::now();
    std::unique_ptr<core::Cloud> cloud;
    {
        SpanLog::Scope s(spans, "core", "Cloud::Cloud");
        cloud = makeCloud(in, v.shards);
    }
    if (v.checker) {
        SpanLog::Scope s(spans, "check", "Checker::enable");
        cloud->checker().enable();
    }
    if (!v.telemetry) {
        SpanLog::Scope s(spans, "trace", "detach telemetry");
        detachTelemetry(*cloud);
    }
    if (v.profile) {
        SpanLog::Scope s(spans, "trace", "Profiler::enable");
        cloud->profiler().enable();
        cloud->shards().wallprof().enableTimeline(true);
    }
    std::unique_ptr<Workload> w = makeWorkload(in);
    w->setup(*cloud, spans);

    auto t1 = Clock::now();
    it.layer["sim.pending_at_run"] = double(cloud->pendingEvents());
    slice();
    {
        SpanLog::Scope s(spans, "sim", "Cloud::run");
        if (sliced) {
            // On 1 shard Cloud::run() is Engine::run(), a loop of
            // step(); this is the same loop, timed in slices.
            sim::Engine &engine = cloud->engine();
            bool more = true;
            while (more) {
                for (u32 n = 0; more && n < kSliceEvents; n++)
                    more = engine.step();
                slice();
            }
        } else {
            cloud->run();
        }
    }
    auto t2 = Clock::now();

    w->collect(*cloud, it);
    std::sort(it.virt.latencyNs.begin(), it.virt.latencyNs.end());
    it.virt.events = cloud->eventsRun();
    it.virt.checksum = cloud->shards().dispatchChecksum();
    if (!cloud->quiescent())
        it.errors.push_back("cloud not quiescent after run()");
    readLayers(*cloud, it.layer);
    it.layer["rss_growth_kib"] = currentRssKib() - rss0;
    if (v.profile && !v.outPrefix.empty())
        writeProfiles(*cloud, v.outPrefix);

    auto t3 = Clock::now();
    slice0 = threadCpuS();
    {
        SpanLog::Scope s(spans, "core", "Domain::shutdown (every guest)");
        const auto &guests = cloud->guests();
        for (std::size_t i = 0; i < guests.size(); i++) {
            guests[i]->dom.shutdown(0);
            if ((i + 1) % kSliceGuests == 0 || i + 1 == guests.size())
                slice();
        }
    }
    auto t4 = Clock::now();
    u64 violations = cloud->checker().violations();
    std::size_t mapped = cloud->checker().shadowMappedGrants();
    it.layer["check.violations"] = double(violations);
    if (violations > 0)
        it.errors.push_back(strprintf("checker: %llu violation(s): %s",
                                      (unsigned long long)violations,
                                      cloud->checker().lastViolation().c_str()));
    if (mapped > 0)
        it.errors.push_back(
            strprintf("%zu grant(s) still mapped after teardown", mapped));
    auto t5 = Clock::now();
    slice0 = threadCpuS();
    {
        SpanLog::Scope s(spans, "core", "Cloud::~Cloud");
        w.reset();
        cloud.reset();
    }
    slice();
    auto t6 = Clock::now();

    it.cpuS = processCpuS() - cpu0;
    it.setupS = seconds(t0, t1);
    it.runS = seconds(t1, t2);
    it.teardownS = seconds(t3, t4) + seconds(t5, t6);
    return it;
}

} // namespace perfbench
