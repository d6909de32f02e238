/**
 * @file
 * Harness tests: configuration presets, speedup math, and the
 * one-call workload runner.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/digest.hpp"
#include "harness/experiment.hpp"
#include "sample/sampler.hpp"

using namespace reno;

namespace
{

/** Digest of every SimResult registry field, name and value. */
void
registryDigest(Fnv64 &h, const SimResult &r)
{
    for (const SimStatField &f : simResultFields()) {
        h.update(f.name);
        h.update(statValue(r, f));
    }
}

} // namespace

TEST(Harness, RenoBuildupNamesAndFlags)
{
    const auto configs = renoBuildup(CoreParams::fourWide());
    ASSERT_EQ(configs.size(), 4u);
    EXPECT_EQ(configs[0].name, "BASE");
    EXPECT_FALSE(configs[0].params.reno.any());
    EXPECT_EQ(configs[1].name, "ME");
    EXPECT_TRUE(configs[1].params.reno.me);
    EXPECT_FALSE(configs[1].params.reno.cf);
    EXPECT_EQ(configs[2].name, "ME+CF");
    EXPECT_TRUE(configs[2].params.reno.cf);
    EXPECT_FALSE(configs[2].params.reno.usesIt());
    EXPECT_EQ(configs[3].name, "RENO");
    EXPECT_TRUE(configs[3].params.reno.usesIt());
    EXPECT_TRUE(configs[3].params.reno.itLoadsOnly);
}

TEST(Harness, DivisionOfLaborConfigs)
{
    const auto configs = divisionOfLabor(CoreParams::fourWide());
    ASSERT_EQ(configs.size(), 4u);
    EXPECT_TRUE(configs[0].params.reno.cf);
    EXPECT_TRUE(configs[0].params.reno.itLoadsOnly);
    EXPECT_TRUE(configs[1].params.reno.cf);
    EXPECT_FALSE(configs[1].params.reno.itLoadsOnly);
    EXPECT_FALSE(configs[2].params.reno.cf);
    EXPECT_FALSE(configs[2].params.reno.itLoadsOnly);
    EXPECT_FALSE(configs[3].params.reno.cf);
    EXPECT_TRUE(configs[3].params.reno.itLoadsOnly);
}

TEST(Harness, PaperMachinePresets)
{
    const CoreParams four = CoreParams::fourWide();
    EXPECT_EQ(four.fetchWidth, 4u);
    EXPECT_EQ(four.issue.intOps, 3u);
    EXPECT_EQ(four.robEntries, 128u);
    EXPECT_EQ(four.iqEntries, 50u);
    EXPECT_EQ(four.lqEntries, 48u);
    EXPECT_EQ(four.sqEntries, 24u);
    EXPECT_EQ(four.numPregs, 160u);

    const CoreParams six = CoreParams::sixWide();
    EXPECT_EQ(six.fetchWidth, 6u);
    EXPECT_EQ(six.issue.intOps, 4u);
    EXPECT_EQ(six.issue.loads, 2u);

    const CoreParams i2t3 = CoreParams::issueReduced(2, 3);
    EXPECT_EQ(i2t3.issue.intOps, 2u);
    EXPECT_EQ(i2t3.issue.total, 3u);
}

TEST(Harness, SpeedupPercent)
{
    EXPECT_NEAR(speedupPercent(110, 100), 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(speedupPercent(100, 100), 0.0);
    EXPECT_NEAR(speedupPercent(100, 110), -9.09, 0.01);
    EXPECT_DOUBLE_EQ(speedupPercent(100, 0), 0.0);
}

TEST(Harness, Amean)
{
    EXPECT_DOUBLE_EQ(amean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(amean({}), 0.0);
}

TEST(Harness, RunWorkloadEndToEnd)
{
    const Workload &w = workloadByName("jpeg.enc");
    const RunOutput ref = runFunctional(w);
    CoreParams params;
    params.reno = RenoConfig::full();
    CriticalPathAnalyzer cpa(1'000'000, params.robEntries,
                             params.iqEntries);
    const RunOutput run = runWorkload(w, params, &cpa);
    EXPECT_EQ(run.output, ref.output);
    EXPECT_EQ(run.emuInsts, ref.emuInsts);
    EXPECT_GT(run.sim.cycles, 0u);
    EXPECT_GT(cpa.totalWeight(), 0u);
}

TEST(Harness, WithRenoAppliesConfig)
{
    const CoreParams p =
        withReno(CoreParams::fourWide(), RenoConfig::meCf());
    EXPECT_TRUE(p.reno.me);
    EXPECT_TRUE(p.reno.cf);
    EXPECT_FALSE(p.reno.cse);
}

TEST(Harness, MemVariantSuffixesComposeOnPresets)
{
    const CoreParams base = CoreParams::fourWide();
    NamedConfig cfg;

    ASSERT_TRUE(configByName("RENO/l3", base, &cfg));
    EXPECT_EQ(cfg.name, "RENO/l3");
    EXPECT_TRUE(cfg.params.reno.ra);
    ASSERT_EQ(cfg.params.mem.extraLevels.size(), 1u);
    EXPECT_EQ(cfg.params.mem.extraLevels[0].name, "l3");

    ASSERT_TRUE(configByName("BASE/pf-stride/wb", base, &cfg));
    EXPECT_EQ(cfg.params.mem.dcache.prefetch.kind,
              PrefetchKind::Stride);
    EXPECT_EQ(cfg.params.mem.l2.prefetch.kind, PrefetchKind::Stride);
    EXPECT_TRUE(cfg.params.mem.modelWritebacks);
    EXPECT_FALSE(cfg.params.reno.me);

    ASSERT_TRUE(configByName("ME+CF/pf-next", base, &cfg));
    EXPECT_EQ(cfg.params.mem.dcache.prefetch.kind,
              PrefetchKind::NextLine);

    EXPECT_FALSE(configByName("RENO/bogus", base, &cfg));
    EXPECT_FALSE(configByName("BOGUS/l3", base, &cfg));
    EXPECT_FALSE(configByName("RENO/", base, &cfg));
}

TEST(Harness, MemVariantsRunEndToEnd)
{
    // A deep prefetching write-back configuration simulates correctly
    // and reports per-level stats through the canonical registry.
    // The streaming kernel guarantees a stride the prefetcher can arm.
    const Workload &w = workloadByName("mem.stream.32k");
    NamedConfig cfg;
    ASSERT_TRUE(configByName("RENO/l3/pf-stride/wb",
                             CoreParams::fourWide(), &cfg));
    const RunOutput ref = runFunctional(w);
    const RunOutput run = runWorkload(w, cfg.params);
    EXPECT_EQ(run.output, ref.output);
    EXPECT_EQ(run.memDigest, ref.memDigest);
    EXPECT_GT(run.sim.memHits[1], 0u) << "dcache slot";
    EXPECT_GT(run.sim.memPrefetchIssued[1] +
                  run.sim.memPrefetchIssued[2],
              0u)
        << "stride prefetchers must issue on D$ or L2";
}

TEST(Harness, BpredVariantSuffixesComposeOnPresets)
{
    const CoreParams base = CoreParams::fourWide();
    NamedConfig cfg;

    ASSERT_TRUE(configByName("RENO/tage", base, &cfg));
    EXPECT_EQ(cfg.name, "RENO/tage");
    EXPECT_TRUE(cfg.params.reno.ra);
    EXPECT_EQ(cfg.params.bpred.dir.kind, DirPredKind::Tage);

    ASSERT_TRUE(configByName("BASE/perceptron/ras16", base, &cfg));
    EXPECT_EQ(cfg.params.bpred.dir.kind, DirPredKind::Perceptron);
    EXPECT_EQ(cfg.params.bpred.ras.entries, 16u);
    EXPECT_FALSE(cfg.params.reno.me);

    // Memory and branch-prediction variants compose in one chain.
    ASSERT_TRUE(configByName("RENO/l3/tage/itt", base, &cfg));
    EXPECT_EQ(cfg.params.mem.extraLevels.size(), 1u);
    EXPECT_EQ(cfg.params.bpred.dir.kind, DirPredKind::Tage);
    EXPECT_TRUE(cfg.params.bpred.indirect.enabled);

    ASSERT_TRUE(configByName("BASE/btb256", base, &cfg));
    EXPECT_EQ(cfg.params.bpred.btb.entries, 256u);

    // A BTB smaller than the default associativity stays legal.
    ASSERT_TRUE(configByName("BASE/btb2", base, &cfg));
    EXPECT_EQ(cfg.params.bpred.btb.entries, 2u);
    EXPECT_EQ(cfg.params.bpred.btb.assoc, 2u);

    EXPECT_FALSE(configByName("RENO/ras", base, &cfg))
        << "rasN needs a number";
    EXPECT_FALSE(configByName("RENO/ras16x", base, &cfg));
    EXPECT_FALSE(configByName("RENO/tage2", base, &cfg));
    EXPECT_FALSE(configByName("RENO/ras0", base, &cfg))
        << "geometry the predictor would fatal() on is rejected here";
    EXPECT_FALSE(configByName("RENO/btb100", base, &cfg))
        << "BTB size must be a power of two";
    EXPECT_FALSE(configByName("RENO/ras4294967297", base, &cfg))
        << "overflowing counts are rejected, not wrapped";

    // Sizes are capped, so no name asks for a table too large to
    // allocate.
    ASSERT_TRUE(configByName("BASE/ras65536/btb65536", base, &cfg));
    EXPECT_EQ(cfg.params.bpred.ras.entries, MaxBpredEntries);
    EXPECT_EQ(cfg.params.bpred.btb.entries, MaxBpredEntries);
    EXPECT_FALSE(configByName("RENO/ras65537", base, &cfg));
    EXPECT_FALSE(configByName("RENO/ras4000000000", base, &cfg));
    EXPECT_FALSE(configByName("RENO/btb131072", base, &cfg));
    EXPECT_FALSE(configByName("RENO/btb2147483648", base, &cfg));
}

TEST(Harness, WorkloadListingNamesEveryRegisteredWorkload)
{
    // --list prints every workload a selection flag accepts, grouped
    // by suite: each listed name resolves, and the count is the sum
    // over knownSuites().
    std::istringstream list(renderWorkloadList());
    std::string line;
    ASSERT_TRUE(std::getline(list, line));
    EXPECT_EQ(line, "workloads:");
    std::size_t listed = 0;
    std::string last_suite;
    std::vector<std::string> suites;
    while (std::getline(list, line)) {
        ASSERT_EQ(line.rfind("  ", 0), 0u) << line;
        const std::string name = line.substr(2, line.find(' ', 2) - 2);
        const Workload &w = workloadByName(name);
        EXPECT_NE(line.find("(" + w.suite + ", seed "), std::string::npos)
            << line;
        if (w.suite != last_suite)
            suites.push_back(last_suite = w.suite);
        ++listed;
    }
    std::size_t registered = 0;
    std::vector<std::string> known;
    for (const SuiteInfo &s : knownSuites()) {
        registered += s.workloads;
        known.push_back(s.name);
    }
    EXPECT_EQ(listed, registered);
    EXPECT_EQ(suites, known) << "one contiguous group per suite";
}

TEST(Harness, BpredVariantsRunEndToEnd)
{
    // A fully non-default stack simulates correctly and fills the
    // per-predictor stat breakdown. branch.call exercises direction,
    // RAS (with overflow at 16 entries against depth 24) and calls.
    const Workload &w = workloadByName("branch.call");
    NamedConfig cfg;
    ASSERT_TRUE(configByName("RENO/tage/ras16/itt",
                             CoreParams::fourWide(), &cfg));
    const RunOutput ref = runFunctional(w);
    const RunOutput run = runWorkload(w, cfg.params);
    EXPECT_EQ(run.output, ref.output);
    EXPECT_EQ(run.memDigest, ref.memDigest);
    EXPECT_EQ(run.sim.bpMispredicts,
              run.sim.bpDirMispredicts + run.sim.bpTargetMispredicts +
                  run.sim.bpRasMispredicts)
        << "the breakdown must sum to the total";
    EXPECT_GT(run.sim.bpRasOverflows, 0u)
        << "a 16-entry RAS must overflow at depth 24";
    EXPECT_GT(run.sim.bpRasMispredicts, 0u)
        << "overflow corruption must surface as RAS mispredicts";
    EXPECT_GT(run.sim.bpTageProviderHits, 0u);
}

// ---- one-core result pins -------------------------------------------
//
// The constants below were recorded with the single-core engines that
// predate routing every core count through System and one WarmState;
// any drift in a one-core result, detailed or sampled, changes them.

TEST(OneCorePins, RunWorkloadRegistryDigest)
{
    Fnv64 h;
    for (const char *name :
         {"gzip", "mcf", "jpeg.enc", "mem.stream.32k"}) {
        for (const char *config : {"BASE", "RENO"}) {
            NamedConfig cfg;
            ASSERT_TRUE(
                configByName(config, CoreParams::fourWide(), &cfg));
            const RunOutput run =
                runWorkload(workloadByName(name), cfg.params);
            registryDigest(h, run.sim);
            h.update(run.output);
            h.update(run.memDigest);
            h.update(run.emuInsts);
        }
    }
    EXPECT_EQ(h.value(), 0x198ab377916c3f84ULL) << std::hex << h.value();
}

TEST(OneCorePins, SampledEstimateDigest)
{
    std::vector<NamedConfig> configs(2);
    ASSERT_TRUE(
        configByName("BASE", CoreParams::fourWide(), &configs[0]));
    ASSERT_TRUE(
        configByName("RENO", CoreParams::fourWide(), &configs[1]));
    sample::SampleOptions options;
    options.campaign.jobs = 1;
    options.plan.intervals = 6;
    options.plan.warmupInsts = 1000;
    options.plan.measureInsts = 3000;
    options.plan.coldInsts = 20'000;
    const sample::SampledCampaign campaign = sample::runSampledCampaign(
        {&workloadByName("gzip"), &workloadByName("mem.stride.512k")},
        configs, options);
    ASSERT_EQ(campaign.runs.size(), 4u);
    Fnv64 h;
    for (const sample::SampledRun &run : campaign.runs) {
        h.update(run.est.estCycles);
        h.update(std::uint64_t{run.est.measuredIntervals});
        registryDigest(h, run.est.sum);
    }
    EXPECT_EQ(h.value(), 0xa2cc76c799740493ULL) << std::hex << h.value();
}
