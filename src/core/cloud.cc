#include "core/cloud.h"

#include <cstdlib>
#include <cstring>

#include "base/logging.h"

namespace mirage::core {

Guest::Guest(xen::Domain &d, xen::Netback &netback, xen::MacBytes mac,
             net::NetworkStack::Config net_config)
    : dom(d), boot(d), sched(d.engine(), &d.vcpu()),
      nif(boot, netback, mac), stack(nif, sched, net_config),
      console(d)
{
}

Cloud::Cloud(const Config &cfg)
    : cfg_(cfg),
      shards_(engine_, cfg.shards ? cfg.shards : 1, cfg.lookahead),
      hv_(engine_), bridge_(engine_, "xenbr0"),
      dom0_(hv_.createDomain("dom0", xen::GuestKind::LinuxMinimal, 512,
                             2)),
      netback_(dom0_, bridge_),
      toolstack_(hv_, xen::Toolstack::Mode::Parallel)
{
    // Observability first: guests built later resolve their counters
    // at construction time, so the registry must be attached before
    // any startGuest()/addDisk() call.
    engine_.setTracer(&tracer_);
    engine_.setMetrics(&metrics_);
    engine_.setChecker(&checker_);
    engine_.setFlows(&flows_);
    flows_.attach(&tracer_, &metrics_);
    flows_.enable();
    profiler_.attach(&tracer_, &metrics_);
    engine_.setProfiler(&profiler_);
    boots_.attach(&tracer_, metrics_);
    boots_.enable();
    engine_.setBoots(&boots_);
    // Completed flows fan out from one finalize hook: the SLO tracker
    // scores each against its kind's objective, the hub records it
    // under the serving domain's fleet series.
    flows_.setFinalizeHook([this](const trace::FlowTracker::Flow &f) {
        slo_.record(f.kind, u64(f.end_ns - f.start_ns), f.failed,
                    TimePoint(f.end_ns));
        hub_.onFlowDone(f);
    });
    // A burn-rate breach is a watchdog event like a stall: route it
    // through the same alert path so MIRAGE_FLIGHT leaves a post-mortem.
    slo_.setAlertHook(
        [this](const std::string &kind, const std::string &detail) {
            (void)kind;
            profiler_.alert("slo_burn", detail);
        });
    hub_.attach(&profiler_, &boots_, &slo_, metrics_);
    // The wall profiler rides on the ShardSet (it observes the worker
    // threads); the hub only renders it, so a const borrow suffices.
    hub_.attachWall(&shards_.wallprof());
    // dom0 was constructed in the member-init list, before the
    // profiler attached to the engine — bind it (and any other early
    // domain) now so its accounting record exists from the start.
    for (auto &d : hv_.domains())
        d->bindProfiler(profiler_);
    // Watchdog alerts (stall, gc_pause, ring_full) are worth a
    // post-mortem: route them to the flight recorder when it is armed.
    profiler_.setAlertHook([this](const char *kind,
                                  const std::string &detail) {
        warn("profiler alert [%s]: %s", kind, detail.c_str());
        if (flight_hooked_)
            dumpFlight();
    });
    // Flow ids come from the engine's causal dispatch context when one
    // is active: the id a flow gets is then a pure function of the
    // seed, identical at any shard count (0 falls back to the
    // tracker's sequential counter for flows begun outside dispatch).
    flows_.setIdSource([] {
        sim::Engine *e = sim::Engine::current();
        if (!e)
            return u64(0);
        // Ring slots carry flow ids as le32 (NetifWire::txreqFlow), so
        // the token must survive a 32-bit round-trip for backend stage
        // attribution; fold the 64-bit token down and keep it nonzero.
        u64 tok = e->deriveToken();
        tok = (tok ^ (tok >> 32)) & 0xffffffffu;
        return tok ? tok : u64(1);
    });
    // Every shard engine shares shard 0's observability attachments;
    // each non-primary shard then gets its own backend domain +
    // netback so guest datapaths stay intra-shard (only bridge frames,
    // cross-domain event channels and toolstack boots cross shards).
    shards_.syncAttachments();
    netback_by_shard_.push_back(&netback_);
    for (unsigned i = 1; i < shards_.count(); i++) {
        xen::Domain &bd = hv_.createDomain(
            strprintf("dom0/net%u", i), xen::GuestKind::LinuxMinimal, 64,
            1, &shards_.shard(i));
        bd.setState(xen::DomainState::Running);
        shard_netbacks_.push_back(
            std::make_unique<xen::Netback>(bd, bridge_));
        netback_by_shard_.push_back(shard_netbacks_.back().get());
    }
    checker_.attachMetrics(metrics_);
    if (const char *env = std::getenv("MIRAGE_CHECK");
        env && env[0] && std::strcmp(env, "0") != 0) {
        if (std::strcmp(env, "fatal") == 0)
            checker_.setMode(check::Checker::Mode::Fatal);
        checker_.enable();
    }
    // MIRAGE_FLIGHT=<n>: always-on flight recorder keeping the last n
    // trace events, auto-dumped on the first panic, CHECK failure or
    // checker violation (MIRAGE_FLIGHT_PATH overrides the output file).
    if (const char *env = std::getenv("MIRAGE_FLIGHT");
        env && env[0] && std::strcmp(env, "0") != 0) {
        std::size_t n = std::size_t(std::strtoull(env, nullptr, 10));
        tracer_.setFlightCapacity(n ? n : 4096);
        tracer_.enable();
        const char *path = std::getenv("MIRAGE_FLIGHT_PATH");
        flight_path_ = path && path[0] ? path : "flight.json";
        setPanicHook([this] { dumpFlight(); });
        checker_.setViolationHook([this] { dumpFlight(); });
        flight_hooked_ = true;
    }
    dom0_.setState(xen::DomainState::Running);
}

Cloud::~Cloud()
{
    // The hooks capture `this`; clear them before members go away so a
    // late panic cannot call into a destructed Cloud.
    if (flight_hooked_) {
        setPanicHook({});
        checker_.setViolationHook({});
    }
    // Guests destruct before the hypervisor (member order), but each
    // domain's grant table holds views of guest-allocated pages whose
    // deleters live in the guest. Shutting the domains down here runs
    // the backend disconnect hooks and releases those entries while
    // everything is still alive.
    for (auto &g : guests_)
        g->dom.shutdown(0);
}

void
Cloud::dumpFlight()
{
    if (flight_dumped_)
        return;
    flight_dumped_ = true;
    if (auto st = tracer_.writeChromeJson(flight_path_); !st.ok()) {
        warn("flight: %s", st.error().message.c_str());
        return;
    }
    warn("flight: dumped %zu events (%llu dropped) to %s",
         tracer_.eventCount(),
         (unsigned long long)tracer_.droppedEvents(),
         flight_path_.c_str());
}

void
Cloud::enableStallWatchdog(Duration threshold)
{
    stall_enabled_ = true;
    stall_threshold_ = threshold;
    // Re-arm whenever new work arrives; the check self-cancels once no
    // flow is live, so an idle cloud schedules nothing. The hook fires
    // from whichever shard begins the flow — the exchange keeps the
    // arm one-shot, and the check itself is posted to shard 0.
    flows_.setActivityHook([this] {
        if (stall_enabled_ && !stall_armed_.exchange(true))
            armStallCheck();
    });
    if (flows_.liveCount() > 0 && !stall_armed_.exchange(true))
        armStallCheck();
}

void
Cloud::armStallCheck()
{
    stall_last_completed_.store(flows_.completed(),
                                std::memory_order_relaxed);
    sim::Engine *e = sim::Engine::current();
    stall_progress_at_ns_.store((e ? *e : engine_).now().ns(),
                                std::memory_order_relaxed);
    sim::crossPost(engine_, Duration::nanos(stall_threshold_.ns() / 4),
                   [this] { stallCheck(); });
}

void
Cloud::stallCheck()
{
    // Runs on shard 0.
    if (!stall_enabled_ || flows_.liveCount() == 0) {
        // Nothing in flight: stand down until the next flow begins.
        stall_armed_.store(false);
        return;
    }
    u64 completed = flows_.completed();
    i64 progress_ns = stall_progress_at_ns_.load(std::memory_order_relaxed);
    if (completed != stall_last_completed_.load(std::memory_order_relaxed)) {
        stall_last_completed_.store(completed, std::memory_order_relaxed);
        stall_progress_at_ns_.store(engine_.now().ns(),
                                    std::memory_order_relaxed);
    } else if (engine_.now().ns() - progress_ns >=
               stall_threshold_.ns()) {
        profiler_.alert(
            "stall",
            strprintf("no flow completed for %lld ms (%zu live)",
                      (long long)(engine_.now().ns() - progress_ns) /
                          1'000'000,
                      flows_.liveCount()));
        // One-shot: stay quiet until new work re-arms us, so a wedged
        // run produces one dump instead of one per check interval.
        stall_armed_.store(false);
        return;
    }
    engine_.after(Duration::nanos(stall_threshold_.ns() / 4),
                  [this] { stallCheck(); });
}

Guest &
Cloud::startUnikernel(const std::string &name, net::Ipv4Addr ip,
                      std::size_t memory_mib, double cpu_factor)
{
    if (cpu_factor < 0)
        cpu_factor = unikernelCpuFactor();
    return startGuest(name, xen::GuestKind::Unikernel, ip, memory_mib,
                      1, cpu_factor);
}

net::NetworkStack::Config
Cloud::netConfigFor(xen::GuestKind kind, net::Ipv4Addr ip,
                    double cpu_factor) const
{
    net::NetworkStack::Config cfg;
    cfg.ip = ip;
    cfg.netmask = cfg_.netmask;
    cfg.gateway = net::Ipv4Addr((ip.raw() & cfg_.netmask.raw()) | 254u);
    cfg.cpuFactor = cpu_factor;
    // Architecture-specific per-packet extras (see the cost model).
    if (kind == xen::GuestKind::Unikernel) {
        cfg.txOverheadPerPacket = sim::costs().mirageTxPerPacket;
        // The clean-slate stack drives the netif offloads: multi-MSS
        // TSO chains and backend checksum fill (gated by tuning).
        cfg.tcpSegOffload = true;
        cfg.csumOffload = true;
    } else {
        cfg.txOverheadPerPacket = sim::costs().linuxTxPerPacket;
        cfg.rxOverheadPerPacket = sim::costs().socketRxPerPacket;
    }
    return cfg;
}

xen::MacBytes
Cloud::nextMac()
{
    u32 n = next_mac_.fetch_add(1, std::memory_order_relaxed);
    return {0x02, 0x16, 0x3e, u8(n >> 16), u8(n >> 8), u8(n)};
}

xen::Netback &
Cloud::netbackFor(sim::Engine &engine)
{
    for (unsigned i = 0; i < shards_.count(); i++)
        if (&shards_.shard(i) == &engine)
            return *netback_by_shard_[i];
    return netback_;
}

Guest &
Cloud::startGuest(const std::string &name, xen::GuestKind kind,
                  net::Ipv4Addr ip, std::size_t memory_mib,
                  unsigned vcpus, double cpu_factor)
{
    sim::Engine &home = shards_.engineFor(
        next_place_.fetch_add(1, std::memory_order_relaxed));
    xen::Domain &dom =
        hv_.createDomain(name, kind, memory_mib, vcpus, &home);
    dom.setState(xen::DomainState::Running);
    auto guest = std::make_unique<Guest>(
        dom, netbackFor(home), nextMac(),
        netConfigFor(kind, ip, cpu_factor));
    std::lock_guard<std::mutex> lk(guests_mu_);
    guests_.push_back(std::move(guest));
    return *guests_.back();
}

void
Cloud::bootUnikernel(
    const std::string &name, net::Ipv4Addr ip, std::size_t memory_mib,
    std::function<void(Guest &, xen::BootBreakdown)> on_ready,
    double cpu_factor)
{
    if (cpu_factor < 0)
        cpu_factor = unikernelCpuFactor();
    xen::BootSpec spec;
    spec.name = name;
    spec.kind = xen::GuestKind::Unikernel;
    spec.memoryMib = memory_mib;
    spec.vcpus = 1;
    spec.home = &shards_.engineFor(
        next_place_.fetch_add(1, std::memory_order_relaxed));
    // The entry runs at the service-ready instant, under the boot's
    // ambient id, so PVBoot and the driver connects annotate the
    // layout/device_connect phases with their op counts. The Guest* is
    // handed to the ready callback through `slot` — other shards may
    // provision concurrently, so guests_.back() is not this boot's.
    auto slot = std::make_shared<Guest *>(nullptr);
    spec.entry = [this, slot, mac = nextMac(),
                  cfg = netConfigFor(xen::GuestKind::Unikernel, ip,
                                     cpu_factor)](xen::Domain &dom) {
        auto guest = std::make_unique<Guest>(
            dom, netbackFor(dom.engine()), mac, cfg);
        *slot = guest.get();
        std::lock_guard<std::mutex> lk(guests_mu_);
        guests_.push_back(std::move(guest));
    };
    toolstack_.boot(
        std::move(spec),
        [slot, cb = std::move(on_ready)](xen::Domain &,
                                         xen::BootBreakdown bd) {
            // entry ran just before this callback in the same event and
            // filled the slot.
            if (cb)
                cb(**slot, std::move(bd));
        });
}

xen::VirtualDisk &
Cloud::addDisk(const std::string &name, u64 sectors)
{
    disks_.push_back(
        std::make_unique<xen::VirtualDisk>(engine_, name, sectors));
    return *disks_.back();
}

xen::Blkback &
Cloud::blkbackFor(xen::VirtualDisk &disk)
{
    blkbacks_.push_back(std::make_unique<xen::Blkback>(dom0_, disk));
    return *blkbacks_.back();
}

} // namespace mirage::core
