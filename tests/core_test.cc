/**
 * @file
 * Tests for the unikernel core: module registry/closure audit
 * (§2.3.1), appliance linking with dead-code elimination (Table 2),
 * compile-time ASR (§2.3.4), seal-on-load (§2.3.3), and the Cloud
 * provisioning harness end to end.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/cloud.h"
#include "core/linker.h"
#include "protocols/dns/server.h"

namespace mirage::core {
namespace {

ApplianceSpec
dnsSpec()
{
    ApplianceSpec spec;
    spec.name = "dns";
    spec.modules = {"pvboot", "lwt", "gc", "console", "dns", "dhcp"};
    spec.usedFeatures = {{"dns", "zone-parser"},
                         {"dns", "memoization"}};
    spec.config["zone"] = "bench.example";
    spec.appLoc = 150;
    return spec;
}

ApplianceSpec
webSpec()
{
    ApplianceSpec spec;
    spec.name = "web";
    spec.modules = {"pvboot", "lwt", "gc", "console", "http", "btree"};
    spec.usedFeatures = {{"http", "server"}, {"btree", "range-queries"}};
    spec.appLoc = 400;
    return spec;
}

// ---- Registry -------------------------------------------------------------------

TEST(RegistryTest, LocMeasuredFromRepoSources)
{
    const Registry &reg = Registry::instance();
    const Module *tcp = reg.find("tcp");
    ASSERT_NE(tcp, nullptr);
    // When the repo sources are on disk (they are, in this build),
    // LoC is measured, and TCP is by far the largest network module.
    EXPECT_GT(tcp->loc, 500u);
    const Module *arp = reg.find("arp");
    ASSERT_NE(arp, nullptr);
    EXPECT_GT(tcp->loc, arp->loc);
}

TEST(RegistryTest, ClosurePullsDependencies)
{
    auto closure = Registry::instance().closure({"dns"});
    ASSERT_TRUE(closure.ok());
    std::set<std::string> names;
    for (const Module *m : closure.value())
        names.insert(m->name);
    // dns -> udp -> ipv4 -> arp/ethernet -> netif -> ring/pvboot/lwt.
    EXPECT_TRUE(names.count("udp"));
    EXPECT_TRUE(names.count("ipv4"));
    EXPECT_TRUE(names.count("netif"));
    EXPECT_TRUE(names.count("memoize"));
    // And crucially NOT tcp or any storage stack.
    EXPECT_FALSE(names.count("tcp"));
    EXPECT_FALSE(names.count("fat32"));
    EXPECT_FALSE(names.count("blkif"));
}

TEST(RegistryTest, UnknownModuleRefused)
{
    EXPECT_FALSE(Registry::instance().closure({"telnetd"}).ok());
}

// ---- Linker ---------------------------------------------------------------------

TEST(LinkerTest, NoFilesystemMeansNoBlockDrivers)
{
    // §4.5: "if no filesystem is used, the entire set of block
    // drivers are automatically elided."
    Linker linker;
    auto dns_audit = linker.auditModules(dnsSpec());
    ASSERT_TRUE(dns_audit.ok());
    for (const auto &m : dns_audit.value())
        EXPECT_NE(m, "blkif");
    auto web_audit = linker.auditModules(webSpec());
    ASSERT_TRUE(web_audit.ok());
    EXPECT_TRUE(std::count(web_audit.value().begin(),
                           web_audit.value().end(), "blkif"));
}

TEST(LinkerTest, DceShrinksImages)
{
    Linker linker;
    auto standard = linker.link(dnsSpec(), Linker::Mode::Standard, 1);
    auto dce = linker.link(dnsSpec(), Linker::Mode::Dce, 1);
    ASSERT_TRUE(standard.ok());
    ASSERT_TRUE(dce.ok());
    // Table 2 shape: DCE strictly shrinks the image.
    EXPECT_LT(dce.value().imageBytes(), standard.value().imageBytes());
    // And both are "on the order of kilobytes", not megabytes.
    EXPECT_LT(standard.value().imageBytes(), 2u * 1024 * 1024);
    EXPECT_GT(dce.value().imageBytes(), 10u * 1024);
}

TEST(LinkerTest, UnusedFeatureIsDropped)
{
    Linker linker;
    ApplianceSpec with = dnsSpec();
    ApplianceSpec without = dnsSpec();
    without.usedFeatures = {{"dns", "memoization"}}; // no zone-parser
    auto img_with = linker.link(with, Linker::Mode::Dce, 1);
    auto img_without = linker.link(without, Linker::Mode::Dce, 1);
    ASSERT_TRUE(img_with.ok());
    ASSERT_TRUE(img_without.ok());
    EXPECT_LT(img_without.value().imageBytes(),
              img_with.value().imageBytes());
}

TEST(LinkerTest, BogusFeatureRefused)
{
    Linker linker;
    ApplianceSpec spec = dnsSpec();
    spec.usedFeatures.push_back({"dns", "zeroconf"});
    EXPECT_FALSE(linker.link(spec, Linker::Mode::Dce, 1).ok());
}

TEST(LinkerTest, AsrSeedChangesLayoutOnly)
{
    Linker linker;
    auto a1 = linker.link(dnsSpec(), Linker::Mode::Dce, 111);
    auto a2 = linker.link(dnsSpec(), Linker::Mode::Dce, 111);
    auto b = linker.link(dnsSpec(), Linker::Mode::Dce, 222);
    ASSERT_TRUE(a1.ok());
    ASSERT_TRUE(a2.ok());
    ASSERT_TRUE(b.ok());

    // Reproducible: same seed, same layout.
    ASSERT_EQ(a1.value().sections.size(), a2.value().sections.size());
    for (std::size_t i = 0; i < a1.value().sections.size(); i++)
        EXPECT_EQ(a1.value().sections[i].baseVpn,
                  a2.value().sections[i].baseVpn);

    // Randomised: a different seed moves sections...
    bool moved = false;
    for (const auto &sa : a1.value().sections)
        for (const auto &sb : b.value().sections)
            if (sa.module == sb.module && sa.baseVpn != sb.baseVpn)
                moved = true;
    EXPECT_TRUE(moved);
    // ...but costs nothing: image size is identical.
    EXPECT_EQ(a1.value().imageBytes(), b.value().imageBytes());
}

TEST(LinkerTest, LoadAndSealEnforcesWx)
{
    Linker linker;
    auto image = linker.link(dnsSpec(), Linker::Mode::Dce, 7);
    ASSERT_TRUE(image.ok());
    xen::PageTables pt;
    ASSERT_TRUE(linker.loadAndSeal(image.value(), pt).ok());
    EXPECT_TRUE(pt.sealed());
    // Every mapped page obeys W^X.
    for (const auto &s : image.value().sections) {
        const auto *entry = pt.lookup(s.baseVpn);
        ASSERT_NE(entry, nullptr) << s.module;
        EXPECT_FALSE(entry->perms.write && entry->perms.exec);
    }
    // Post-seal injection fails.
    EXPECT_FALSE(
        pt.map(0x9999, xen::PagePerms::rx(), xen::PageRole::Text).ok());
}

TEST(LinkerTest, ConfigCompiledIntoImage)
{
    Linker linker;
    ApplianceSpec small = dnsSpec();
    ApplianceSpec big = dnsSpec();
    for (int i = 0; i < 64; i++)
        big.config[strprintf("record%d", i)] =
            "10.0.0.1 some-long-config-value";
    auto img_small = linker.link(small, Linker::Mode::Dce, 1);
    auto img_big = linker.link(big, Linker::Mode::Dce, 1);
    ASSERT_TRUE(img_small.ok());
    ASSERT_TRUE(img_big.ok());
    EXPECT_GT(img_big.value().dataBytes, img_small.value().dataBytes);
}

// ---- Cloud harness end-to-end -----------------------------------------------------

TEST(CloudTest, TwoGuestsExchangeDnsTraffic)
{
    Cloud cloud;
    Guest &server = cloud.startUnikernel("dns", net::Ipv4Addr(10, 0, 0, 2));
    Guest &client = cloud.startUnikernel("cli", net::Ipv4Addr(10, 0, 0, 3));

    dns::DnsServer dns_server(dns::syntheticZone("bench.example.", 10),
                              dns::DnsServer::Config{});
    ASSERT_TRUE(dns_server.attachUdp(server.stack).ok());

    dns::DnsMessage q;
    q.header = dns::DnsHeader{};
    q.header.id = 9;
    q.header.qdcount = 1;
    q.questions.push_back(dns::Question{
        dns::nameFromString("host000001.bench.example").value(), 1, 1});
    dns::MessageWriter w(dns::CompressionImpl::None);

    Cstruct got;
    ASSERT_TRUE(client.stack.udp()
                    .listen(5353,
                            [&](const net::UdpDatagram &d) {
                                got = d.payload;
                            })
                    .ok());
    client.stack.udp().sendTo(net::Ipv4Addr(10, 0, 0, 2), 53, 5353,
                              {w.write(q)});
    cloud.run();
    ASSERT_GT(got.length(), 0u);
    EXPECT_EQ(dns::parseMessage(got).value().answers.size(), 1u);
    EXPECT_EQ(dns_server.stats().queries, 1u);
}

TEST(CloudTest, GuestSealsAfterSetup)
{
    Cloud cloud;
    Guest &g = cloud.startUnikernel("uk", net::Ipv4Addr(10, 0, 0, 9));
    ASSERT_TRUE(g.seal().ok());
    EXPECT_TRUE(g.dom.pageTables().sealed());
    // Networking still works after sealing (I/O mappings exempt).
    Guest &peer = cloud.startUnikernel("peer", net::Ipv4Addr(10, 0, 0, 8));
    Result<Duration> rtt = Error(Error::Kind::Io, "pending");
    peer.stack.icmp().ping(net::Ipv4Addr(10, 0, 0, 9), 1, 32,
                           [&](Result<Duration> r) { rtt = r; });
    cloud.run();
    EXPECT_TRUE(rtt.ok()) << "sealed appliance must still serve I/O";
}

TEST(CloudTest, BootTimingViaToolstack)
{
    Cloud cloud;
    Duration total;
    cloud.toolstack().boot(
        {"timed", xen::GuestKind::Unikernel, 128, 1, nullptr, {}},
        [&](xen::Domain &, xen::BootBreakdown b) { total = b.total(); });
    cloud.run();
    EXPECT_GT(total.ns(), 0);
    EXPECT_LT(total.toSecondsF(), 1.0);
}

} // namespace
} // namespace mirage::core
