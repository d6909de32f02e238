/**
 * @file
 * Tests for the simulation-campaign engine: parallel results are
 * identical to serial, content digests track every CoreParams field,
 * the result cache (memory and disk) short-circuits simulation, and
 * the JSON/CSV reporters produce their golden output.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>

#include "common/digest.hpp"
#include "common/report.hpp"
#include "common/serialize.hpp"
#include "harness/experiment.hpp"
#include "sweep/campaign.hpp"
#include "sweep/reporter.hpp"
#include "sweep/result_cache.hpp"
#include "sweep/thread_pool.hpp"

using namespace reno;
using namespace reno::sweep;

namespace
{

/** Two small workloads and three configs: a 2x3 cross-product. */
Campaign
smallCampaign()
{
    const CoreParams base = CoreParams::fourWide();
    const std::vector<NamedConfig> configs = {
        {"BASE", withReno(base, RenoConfig::baseline())},
        {"ME+CF", withReno(base, RenoConfig::meCf())},
        {"RENO", withReno(base, RenoConfig::full())},
    };
    Campaign c;
    c.addCross({&workloadByName("gzip"), &workloadByName("adpcm.dec")},
               configs);
    return c;
}

bool
sameSim(const SimResult &a, const SimResult &b)
{
    return a.cycles == b.cycles && a.retired == b.retired &&
           a.elim[1] == b.elim[1] && a.elim[2] == b.elim[2] &&
           a.elim[3] == b.elim[3] && a.elim[4] == b.elim[4] &&
           a.itAccesses == b.itAccesses &&
           a.bpMispredicts == b.bpMispredicts &&
           a.dcacheMisses == b.dcacheMisses &&
           a.stallRob == b.stallRob;
}

std::uint64_t
digestOfParams(const CoreParams &p)
{
    Job job;
    job.workload = &workloadByName("gzip");
    job.config = {"x", p};
    return jobDigest(job);
}

} // namespace

TEST(Sweep, ParallelMatchesSerial)
{
    Campaign campaign = smallCampaign();

    CampaignOptions serial;
    serial.jobs = 1;
    const CampaignResults s = campaign.run(serial);

    CampaignOptions parallel;
    parallel.jobs = 4;
    const CampaignResults p = campaign.run(parallel);

    ASSERT_EQ(s.size(), 6u);
    ASSERT_EQ(p.size(), s.size());
    for (std::size_t i = 0; i < s.size(); ++i)
        EXPECT_TRUE(sameSim(s.at(i).sim, p.at(i).sim)) << "job " << i;

    // Identical rendered reports, byte for byte.
    EXPECT_EQ(renderResults(s, ReportFormat::Json),
              renderResults(p, ReportFormat::Json));
    EXPECT_EQ(s.stats().simulated, 6u);
    EXPECT_EQ(p.stats().simulated, 6u);
}

TEST(Sweep, PipetraceRendersInSubmissionOrderAtAnyJobCount)
{
    NamedConfig reno;
    ASSERT_TRUE(configByName("RENO", CoreParams::fourWide(), &reno));
    const std::vector<std::string> names = {"gzip", "mcf", "gcc",
                                            "bzip2"};
    Campaign campaign;
    for (const std::string &name : names)
        campaign.add(workloadByName(name), reno);
    // A repeat shares gzip's simulation and adds no diagram.
    campaign.add(workloadByName("gzip"), reno);

    CampaignOptions opts;
    opts.observe.pipetrace = true;
    opts.jobs = 1;
    const std::string serial = renderPipeTraces(campaign.run(opts));
    opts.jobs = 4;
    const std::string parallel = renderPipeTraces(campaign.run(opts));
    EXPECT_EQ(serial, parallel);

    // One diagram per simulated job, in submission order.
    std::size_t at = 0;
    for (const std::string &name : names) {
        at = serial.find("== " + name + " ==\n", at);
        ASSERT_NE(at, std::string::npos) << name;
    }
    std::size_t headers = 0;
    for (std::size_t i = serial.find(" ==\n"); i != std::string::npos;
         i = serial.find(" ==\n", i + 1))
        ++headers;
    EXPECT_EQ(headers, names.size());

    // A cache hit replays no trace.
    ResultCache cache;
    opts.cache = &cache;
    campaign.run(opts);
    EXPECT_EQ(renderPipeTraces(campaign.run(opts)), "");
}

TEST(Sweep, KeyedLookupFindsSubmissionResults)
{
    Campaign campaign = smallCampaign();
    CampaignOptions opts;
    opts.jobs = 2;
    const CampaignResults r = campaign.run(opts);

    const JobResult &direct = r.at(0);
    const JobResult &keyed = r.get("gzip", "BASE");
    EXPECT_TRUE(sameSim(direct.sim, keyed.sim));
    // A RENO run eliminates instructions; BASE does not.
    EXPECT_EQ(r.get("gzip", "BASE").sim.eliminatedTotal(), 0u);
    EXPECT_GT(r.get("gzip", "RENO").sim.eliminatedTotal(), 0u);
}

TEST(Sweep, SharedCacheSkipsSimulation)
{
    Campaign campaign = smallCampaign();
    ResultCache cache;

    CampaignOptions opts;
    opts.jobs = 1;
    opts.cache = &cache;

    const CampaignResults cold = campaign.run(opts);
    EXPECT_EQ(cold.stats().simulated, 6u);
    EXPECT_EQ(cold.stats().cacheHits, 0u);

    const CampaignResults warm = campaign.run(opts);
    EXPECT_EQ(warm.stats().simulated, 0u);
    EXPECT_EQ(warm.stats().cacheHits, 6u);
    for (std::size_t i = 0; i < cold.size(); ++i)
        EXPECT_TRUE(sameSim(cold.at(i).sim, warm.at(i).sim));
}

TEST(Sweep, DuplicateJobsSimulateOnce)
{
    const Workload &w = workloadByName("gzip");
    const NamedConfig cfg{"BASE", CoreParams::fourWide()};
    Campaign campaign;
    // The same content under three different display tags.
    campaign.add(w, cfg, "a");
    campaign.add(w, cfg, "b");
    campaign.add(w, cfg, "c");

    CampaignOptions opts;
    opts.jobs = 1;
    const CampaignResults r = campaign.run(opts);
    EXPECT_EQ(r.stats().jobs, 3u);
    EXPECT_EQ(r.stats().unique, 1u);
    EXPECT_EQ(r.stats().simulated, 1u);
    EXPECT_TRUE(sameSim(r.get("gzip", "BASE", "a").sim,
                        r.get("gzip", "BASE", "c").sim));
}

TEST(Sweep, DiskCachePersistsAcrossInstances)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         "reno_sweep_cache_test").string();
    std::filesystem::remove_all(dir);

    const Workload &w = workloadByName("adpcm.dec");
    const NamedConfig cfg{"RENO",
                          withReno(CoreParams::fourWide(),
                                   RenoConfig::full())};
    Campaign campaign;
    campaign.add(w, cfg);

    CampaignOptions opts;
    opts.jobs = 1;
    opts.cacheDir = dir;
    const CampaignResults cold = campaign.run(opts);
    EXPECT_EQ(cold.stats().simulated, 1u);

    // A fresh cache instance (fresh process, conceptually) hits disk.
    const CampaignResults warm = campaign.run(opts);
    EXPECT_EQ(warm.stats().simulated, 0u);
    EXPECT_EQ(warm.stats().cacheHits, 1u);
    EXPECT_TRUE(sameSim(cold.at(0).sim, warm.at(0).sim));

    std::filesystem::remove_all(dir);
}

TEST(Sweep, ResultEncodingRoundTrips)
{
    JobResult r;
    r.sim.cycles = 123456;
    r.sim.retired = 7890;
    r.sim.elim[1] = 11;
    r.sim.elim[2] = 22;
    r.sim.elim[4] = 44;
    r.sim.itAccesses = 5;
    r.sim.stallLsq = 99;
    r.hasCpa = true;
    r.cpaWeights = {10, 20, 30, 40, 50};

    JobResult back;
    ASSERT_TRUE(ResultCache::decode(ResultCache::encode(r), &back));
    EXPECT_TRUE(sameSim(r.sim, back.sim));
    EXPECT_EQ(back.sim.stallLsq, 99u);
    ASSERT_TRUE(back.hasCpa);
    EXPECT_EQ(back.cpaWeights, r.cpaWeights);
    EXPECT_DOUBLE_EQ(back.cpaBreakdown()[4], 50.0 / 150.0);

    // Corruption is rejected, not half-parsed.
    EXPECT_FALSE(ResultCache::decode("garbage", &back));
    std::string truncated = ResultCache::encode(r);
    truncated.resize(truncated.size() / 2);
    EXPECT_FALSE(ResultCache::decode(truncated, &back));
}

TEST(Sweep, DigestTracksEveryParamsField)
{
    const std::uint64_t base = digestOfParams(CoreParams{});

    // Each mutation must move the digest; display names must not.
    std::vector<CoreParams> variants;
    auto mutate = [&variants](auto fn) {
        CoreParams p;
        fn(p);
        variants.push_back(p);
    };
    mutate([](CoreParams &p) { p.fetchWidth = 6; });
    mutate([](CoreParams &p) { p.issue.intOps = 2; });
    mutate([](CoreParams &p) { p.issue.total = 4; });
    mutate([](CoreParams &p) { p.robEntries = 64; });
    mutate([](CoreParams &p) { p.iqEntries = 32; });
    mutate([](CoreParams &p) { p.numPregs = 96; });
    mutate([](CoreParams &p) { p.schedLoop = 2; });
    mutate([](CoreParams &p) { p.branchResolveExtra = 5; });
    mutate([](CoreParams &p) { p.numStoreSets = 128; });
    mutate([](CoreParams &p) { p.bpred.dir.historyBits = 12; });
    mutate([](CoreParams &p) { p.bpred.btb.entries = 1024; });
    mutate([](CoreParams &p) { p.mem.dcache.sizeBytes = 16 * 1024; });
    mutate([](CoreParams &p) { p.mem.l2.latency = 12; });
    mutate([](CoreParams &p) { p.mem.memory.accessLatency = 200; });
    mutate([](CoreParams &p) { p.reno.me = true; });
    mutate([](CoreParams &p) { p.reno.cf = true; });
    mutate([](CoreParams &p) { p.reno = RenoConfig::full(); });
    mutate([](CoreParams &p) {
        p.reno = RenoConfig::full();
        p.reno.it.entries = 256;
    });
    mutate([](CoreParams &p) { p.reno.itLoadsOnly = false; });
    mutate([](CoreParams &p) { p.reno.exactOverflowCheck = true; });
    mutate([](CoreParams &p) { p.freeAddAddFusion = false; });
    mutate([](CoreParams &p) { p.maxCycles = 1000; });

    std::set<std::uint64_t> seen{base};
    for (std::size_t i = 0; i < variants.size(); ++i) {
        const std::uint64_t d = digestOfParams(variants[i]);
        EXPECT_TRUE(seen.insert(d).second)
            << "variant " << i << " collided";
    }

    // The digest is content-addressed: config/workload display names
    // and tags don't affect it; source and seed do.
    Job a, b;
    a.workload = b.workload = &workloadByName("gzip");
    a.config = {"one name", CoreParams{}};
    b.config = {"another name", CoreParams{}};
    b.tag = "tagged";
    EXPECT_EQ(jobDigest(a), jobDigest(b));

    Job c = a;
    c.workload = &workloadByName("eon.c");
    Job d = a;
    d.workload = &workloadByName("eon.k");  // same kernel, other seed
    EXPECT_NE(jobDigest(c), jobDigest(a));
    EXPECT_NE(jobDigest(c), jobDigest(d));

    Job e = a;
    e.wantCpa = true;
    EXPECT_NE(jobDigest(e), jobDigest(a));
}

TEST(Sweep, SerializeCoreParamsIsCanonical)
{
    const std::string s1 = serializeCoreParams(CoreParams{});
    const std::string s2 = serializeCoreParams(CoreParams{});
    EXPECT_EQ(s1, s2);
    EXPECT_NE(s1.find("robEntries 128\n"), std::string::npos);
    EXPECT_NE(s1.find("reno.me 0\n"), std::string::npos);

    CoreParams p;
    p.reno = RenoConfig::full();
    EXPECT_NE(serializeCoreParams(p), s1);
}

TEST(Sweep, JsonReporterGoldenOutput)
{
    std::vector<ReportRecord> records(2);
    addField(records[0], "name", "alpha \"quoted\"");
    addField(records[0], "cycles", std::uint64_t(42));
    addField(records[0], "ipc", 1.5, 2);
    addField(records[1], "name", "beta\nline");
    addField(records[1], "cycles", std::uint64_t(7));
    addField(records[1], "ipc", 0.25, 2);

    EXPECT_EQ(renderJson(records),
              "[\n"
              "  {\"name\": \"alpha \\\"quoted\\\"\", \"cycles\": 42, "
              "\"ipc\": 1.50},\n"
              "  {\"name\": \"beta\\nline\", \"cycles\": 7, "
              "\"ipc\": 0.25}\n"
              "]\n");
}

TEST(Sweep, CsvReporterGoldenOutput)
{
    std::vector<ReportRecord> records(2);
    addField(records[0], "name", "plain");
    addField(records[0], "note", "has,comma");
    addField(records[1], "name", "quo\"te");
    addField(records[1], "note", "fine");

    EXPECT_EQ(renderCsv(records),
              "name,note\n"
              "plain,\"has,comma\"\n"
              "\"quo\"\"te\",fine\n");
}

TEST(Sweep, TableReporterAligns)
{
    std::vector<ReportRecord> records(1);
    addField(records[0], "workload", "gzip");
    addField(records[0], "cycles", std::uint64_t(100));
    const std::string table = renderTable(records);
    EXPECT_NE(table.find("workload"), std::string::npos);
    EXPECT_NE(table.find("gzip"), std::string::npos);
}

TEST(Sweep, ThreadPoolRunsEverythingAndWaits)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 100);

    // Reusable after idle.
    pool.submit([&count] { count += 10; });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 110);
}

TEST(Sweep, ResolveJobCountPrecedence)
{
    EXPECT_EQ(resolveJobCount(3), 3u);
    EXPECT_GE(resolveJobCount(0), 1u);
}

TEST(Sweep, ParseCampaignArgs)
{
    const char *argv[] = {"prog", "--jobs", "8", "--cache-dir=/tmp/x",
                          "--sweep-stats", "--unrelated"};
    const CampaignOptions opts =
        parseCampaignArgs(5, const_cast<char **>(argv));
    EXPECT_EQ(opts.jobs, 8u);
    EXPECT_EQ(opts.cacheDir, "/tmp/x");
    EXPECT_TRUE(opts.stats);
    // The campaign flags are the figure binaries' whole command line:
    // anything else is refused by name, never ignored.
    EXPECT_EXIT(parseCampaignArgs(6, const_cast<char **>(argv)),
                ::testing::ExitedWithCode(1),
                "unknown argument '--unrelated'");
}

TEST(SweepDeath, ParseCampaignArgsRejectsMalformedJobCounts)
{
    for (const char *bad : {"4x", "-1", "0", " 4"}) {
        const char *argv[] = {"prog", "--jobs", bad};
        EXPECT_EXIT(parseCampaignArgs(3, const_cast<char **>(argv)),
                    ::testing::ExitedWithCode(1),
                    "--jobs expects 1\\.\\.[0-9]+, got")
            << bad;
    }
}

TEST(Sweep, Fnv64KnownVectorsAndSeparation)
{
    // FNV-1a 64 of the empty input is the offset basis.
    EXPECT_EQ(Fnv64{}.value(), 0xcbf29ce484222325ULL);
    // "a" -> well-known FNV-1a 64 value.
    EXPECT_EQ(Fnv64{}.update("a", 1).value(), 0xaf63dc4c8601ec8cULL);

    // Length separation: ("ab","c") != ("a","bc").
    Fnv64 h1, h2;
    h1.update(std::string("ab")).update(std::string("c"));
    h2.update(std::string("a")).update(std::string("bc"));
    EXPECT_NE(h1.value(), h2.value());

    EXPECT_EQ(digestHex(0xabcULL), "0000000000000abc");
}
