/**
 * @file
 * Sampled-simulation subsystem tests: interval planning (stratified,
 * cold-exact first stratum), window measurement equal to the full
 * simulation over the same region, checkpoint acceleration that never
 * changes results, encode/decode and disk round-trips of combined
 * functional+warm checkpoints, campaign integration (parallel ==
 * serial, warm cache = zero simulations), and end-to-end estimate
 * accuracy against full detailed simulation. Multi-core sampling is
 * covered at the same depth: checkpoint chop/resume of the
 * interleaved warming (shared stack + MESI directory) is bit-exact at
 * 2 and 4 cores, multi-core checkpoints only accelerate, validation
 * reports per-core errors, the single-core report format is
 * untouched, and malformed checkpoint files die with a named reason.
 * A seeded mutation harness drives every on-disk decoder (checkpoint,
 * result, profile) with hostile inputs, and forked writers race a
 * reader over one shared cache directory.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>

#include <sys/wait.h>
#include <unistd.h>

#include "common/digest.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "harness/experiment.hpp"
#include "sample/checkpoint.hpp"
#include "sample/interval.hpp"
#include "sample/sampler.hpp"
#include "sample/warmup.hpp"
#include "sweep/campaign.hpp"
#include "sweep/result_cache.hpp"

using namespace reno;
using namespace reno::sample;

namespace
{

CoreParams
baseParams()
{
    CoreParams p = CoreParams::fourWide();
    p.reno = RenoConfig::baseline();
    return p;
}

std::vector<const Workload *>
oneWorkload(const char *name)
{
    return {&workloadByName(name)};
}

bool
sameSim(const SimResult &a, const SimResult &b)
{
    return a.cycles == b.cycles && a.retired == b.retired &&
           a.bpMispredicts == b.bpMispredicts &&
           a.dcacheMisses == b.dcacheMisses &&
           a.l2Misses == b.l2Misses &&
           a.violationSquashes == b.violationSquashes &&
           a.eliminatedTotal() == b.eliminatedTotal();
}

} // namespace

// ---- planning -------------------------------------------------------

TEST(Plan, StratifiedShape)
{
    SamplePlan plan;
    plan.intervals = 10;
    plan.warmupInsts = 500;
    plan.measureInsts = 5000;

    const auto planned = planIntervals(1'000'000, plan);
    ASSERT_EQ(planned.size(), 10u);

    // First stratum: exact, cold, from instruction 0.
    EXPECT_TRUE(planned[0].exact);
    EXPECT_EQ(planned[0].window.startInst, 0u);
    EXPECT_EQ(planned[0].window.warmupInsts, 0u);
    EXPECT_EQ(planned[0].window.measureInsts, 100'000u);
    EXPECT_EQ(planned[0].repInsts, 100'000u);

    // Sampled strata: ascending, within bounds, representation
    // covering the remainder exactly.
    std::uint64_t rep = planned[0].repInsts;
    for (std::size_t i = 1; i < planned.size(); ++i) {
        EXPECT_FALSE(planned[i].exact);
        EXPECT_GT(planned[i].window.startInst,
                  planned[i - 1].window.startInst);
        EXPECT_LT(planned[i].window.startInst, 1'000'000u);
        EXPECT_EQ(planned[i].window.measureInsts, 5000u);
        EXPECT_EQ(planned[i].window.warmupInsts, 500u);
        rep += planned[i].repInsts;
    }
    EXPECT_EQ(rep, 1'000'000u);
}

TEST(Plan, TinyProgramDegeneratesToExactFullRun)
{
    SamplePlan plan;  // default 10 x (2000 + 5000) against 120k insts
    const auto planned = planIntervals(120'000, plan);
    ASSERT_EQ(planned.size(), 1u);
    EXPECT_TRUE(planned[0].exact);
    EXPECT_EQ(planned[0].window.measureInsts, 120'000u);
    EXPECT_EQ(planned[0].repInsts, 120'000u);
}

TEST(Plan, MeasuredRegionIndependentOfWarmup)
{
    SamplePlan a, b;
    a.measureInsts = b.measureInsts = 4000;
    a.warmupInsts = 500;
    b.warmupInsts = 4000;
    const auto pa = planIntervals(2'000'000, a);
    const auto pb = planIntervals(2'000'000, b);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 1; i < pa.size(); ++i) {
        // Measured window begins at startInst + warmup: anchored.
        EXPECT_EQ(pa[i].window.startInst + pa[i].window.warmupInsts,
                  pb[i].window.startInst + pb[i].window.warmupInsts);
    }
}

TEST(Plan, DeltaAndAccumulateAreInverse)
{
    SimResult a;
    a.cycles = 100;
    a.retired = 70;
    a.dcacheMisses = 5;
    a.elim[1] = 3;
    SimResult b = a;
    b.cycles = 250;
    b.retired = 200;
    b.dcacheMisses = 9;
    b.elim[1] = 11;

    const SimResult d = deltaResult(b, a);
    EXPECT_EQ(d.cycles, 150u);
    EXPECT_EQ(d.retired, 130u);
    EXPECT_EQ(d.dcacheMisses, 4u);
    EXPECT_EQ(d.elim[1], 8u);

    SimResult sum = a;
    accumulateResult(sum, d);
    EXPECT_TRUE(sameSim(sum, b));
}

// ---- interval measurement vs. full simulation -----------------------

TEST(Interval, WindowEqualsFullSimulationOverSameRegion)
{
    // The strongest correctness property of the interval engine: a
    // fully warmed window must reproduce the full simulation's
    // behavior over the same retired-instruction range exactly.
    const Workload &w = workloadByName("gzip");
    const CoreParams params = baseParams();

    const Program &prog = assembleWorkload(w);
    Emulator::Options opts;
    opts.randSeed = w.seed;
    Emulator emu(prog, opts);
    Core core(params, emu);
    core.runUntilRetired(300'000);
    const SimResult pre = core.result();
    core.runUntilRetired(305'000);
    const SimResult full_delta = deltaResult(core.result(), pre);
    const std::uint64_t start = pre.retired;

    IntervalWindow win;
    win.startInst = start - 1000;
    win.warmupInsts = 1000;
    win.measureInsts = full_delta.retired;
    const SimResult sampled = runIntervalDetailed(w, params, win);
    EXPECT_TRUE(sameSim(sampled, full_delta))
        << "sampled " << sampled.cycles << " cycles vs full "
        << full_delta.cycles;
}

TEST(Interval, CheckpointAcceleratesWithoutChangingResults)
{
    const Workload &w = workloadByName("adpcm.dec");
    const CoreParams params = baseParams();
    IntervalWindow win;
    win.startInst = 200'000;
    win.warmupInsts = 500;
    win.measureInsts = 4000;

    // Reference: no checkpoint (warm from the program start).
    const SimResult plain = runIntervalDetailed(w, params, win);

    // Checkpoint exactly at the window start.
    CheckpointStore store;
    {
        const Program &prog = assembleWorkload(w);
        Emulator::Options opts;
        opts.randSeed = w.seed;
        Emulator emu(prog, opts);
        WarmState warm(params.mem, params.bpred);
        warmStep(emu, warm, win.startInst);
        store.store(w, win.startInst, emu.checkpoint(), warm);
    }
    const SampleCheckpoint at_start =
        store.lookup(w, win.startInst, params.mem, params.bpred);
    ASSERT_TRUE(at_start.usable());
    EXPECT_TRUE(
        sameSim(runIntervalDetailed(w, params, win, &at_start),
                plain));

    // Checkpoint BEFORE the window start (warm-steps the gap).
    CheckpointStore store2;
    {
        const Program &prog = assembleWorkload(w);
        Emulator::Options opts;
        opts.randSeed = w.seed;
        Emulator emu(prog, opts);
        WarmState warm(params.mem, params.bpred);
        warmStep(emu, warm, 120'000);
        store2.store(w, 120'000, emu.checkpoint(), warm);
    }
    const SampleCheckpoint before =
        store2.lookup(w, 120'000, params.mem, params.bpred);
    ASSERT_TRUE(before.usable());
    EXPECT_TRUE(sameSim(runIntervalDetailed(w, params, win, &before),
                        plain));

    // Mismatched warm-state parameters: checkpoint ignored, results
    // still identical (recomputed from scratch).
    CoreParams other = params;
    other.mem.dcache.sizeBytes *= 2;
    const SimResult recomputed =
        runIntervalDetailed(w, other, win, &at_start);
    EXPECT_TRUE(sameSim(recomputed,
                        runIntervalDetailed(w, other, win)));
}

// ---- checkpoint store -----------------------------------------------

TEST(Checkpointing, EncodeDecodeRoundTrip)
{
    const Workload &w = workloadByName("epic");
    const CoreParams params = baseParams();
    const Program &prog = assembleWorkload(w);
    Emulator::Options opts;
    opts.randSeed = w.seed;
    Emulator emu(prog, opts);
    WarmState warm(params.mem, params.bpred);
    warmStep(emu, warm, 50'000);

    CheckpointStore store;
    const SampleCheckpoint ckpt =
        store.store(w, 50'000, emu.checkpoint(), warm);

    const std::string text = CheckpointStore::encode(ckpt);
    SampleCheckpoint decoded;
    ASSERT_TRUE(CheckpointStore::decode(text, params.mem,
                                        params.bpred, &decoded));
    EXPECT_EQ(checkpointDigest(*decoded.emus[0]),
              checkpointDigest(*ckpt.emus[0]));
    EXPECT_EQ(CheckpointStore::encode(decoded), text)
        << "decode followed by encode must be the identity";

    // Corruption is detected.
    std::string bad = text;
    bad[text.find("regs") + 6] ^= 1;
    EXPECT_FALSE(CheckpointStore::decode(bad, params.mem,
                                         params.bpred, &decoded));

    // Wrong warm-state parameters are rejected.
    CoreParams other = params;
    other.bpred.dir.historyBits = 9;
    EXPECT_FALSE(CheckpointStore::decode(text, other.mem,
                                         other.bpred, &decoded));
}

TEST(Checkpointing, DiskPersistenceRoundTrip)
{
    const std::string dir = ::testing::TempDir() + "reno_ckpt_test";
    std::filesystem::remove_all(dir);

    const Workload &w = workloadByName("gsm.dec");
    const CoreParams params = baseParams();
    std::uint64_t digest = 0;
    {
        CheckpointStore store(dir);
        const Program &prog = assembleWorkload(w);
        Emulator::Options opts;
        opts.randSeed = w.seed;
        Emulator emu(prog, opts);
        WarmState warm(params.mem, params.bpred);
        warmStep(emu, warm, 30'000);
        digest = checkpointDigest(
            *store.store(w, 30'000, emu.checkpoint(), warm).emus[0]);

        FuncProfile profile{123456, 42};
        store.storeProfile(profileKey(w), profile);
    }

    // A fresh store instance reads both back from disk.
    CheckpointStore fresh(dir);
    const SampleCheckpoint loaded =
        fresh.lookup(w, 30'000, params.mem, params.bpred);
    ASSERT_TRUE(loaded.usable());
    EXPECT_EQ(checkpointDigest(*loaded.emus[0]), digest);
    EXPECT_EQ(loaded.emus[0]->instCount, 30'000u);

    FuncProfile profile;
    ASSERT_TRUE(fresh.lookupProfile(profileKey(w), &profile));
    EXPECT_EQ(profile.totalInsts, 123456u);
    EXPECT_EQ(profile.memDigest, 42u);

    // Misses stay misses: different position, different warm params.
    EXPECT_FALSE(
        fresh.lookup(w, 30'001, params.mem, params.bpred).usable());
    CoreParams other = params;
    other.mem.l2.assoc = 8;
    EXPECT_FALSE(
        fresh.lookup(w, 30'000, other.mem, other.bpred).usable());

    std::filesystem::remove_all(dir);
}

TEST(Checkpointing, KeysSeparatePositionsAndConfigs)
{
    const Workload &a = workloadByName("gzip");
    const Workload &b = workloadByName("mcf");
    EXPECT_NE(checkpointKey(a, 1000, 7), checkpointKey(b, 1000, 7));
    EXPECT_NE(checkpointKey(a, 1000, 7), checkpointKey(a, 2000, 7));
    EXPECT_NE(checkpointKey(a, 1000, 7), checkpointKey(a, 1000, 8));
    EXPECT_NE(profileKey(a), profileKey(b));
}

// ---- sampled jobs in the campaign engine ----------------------------

TEST(SampledJob, DigestCoversWindowButNotCheckpoint)
{
    sweep::Job job;
    job.workload = &workloadByName("gzip");
    job.config = {"BASE", baseParams()};
    const std::uint64_t full_digest = sweep::jobDigest(job);

    job.window = IntervalWindow{1000, 500, 4000};
    const std::uint64_t sampled_digest = sweep::jobDigest(job);
    EXPECT_NE(full_digest, sampled_digest)
        << "a sampled job must not collide with the full run";

    sweep::Job other = job;
    other.window.startInst = 2000;
    EXPECT_NE(sweep::jobDigest(other), sampled_digest);

    // The checkpoint is an accelerator, not an input.
    sweep::Job with_ckpt = job;
    with_ckpt.checkpoint.emus = {std::make_shared<EmuCheckpoint>()};
    EXPECT_EQ(sweep::jobDigest(with_ckpt), sampled_digest);
}

TEST(SampledCampaign, ParallelMatchesSerialByteForByte)
{
    const std::vector<const Workload *> workloads = {
        &workloadByName("gzip"), &workloadByName("adpcm.dec")};
    const std::vector<NamedConfig> configs = {
        {"BASE", baseParams()},
        {"RENO", withReno(CoreParams::fourWide(),
                          RenoConfig::full())}};

    SampleOptions serial;
    serial.campaign.jobs = 1;
    SampleOptions parallel;
    parallel.campaign.jobs = 4;

    const SampledCampaign s =
        runSampledCampaign(workloads, configs, serial);
    const SampledCampaign p =
        runSampledCampaign(workloads, configs, parallel);
    EXPECT_EQ(renderSampled(s, sweep::ReportFormat::Json),
              renderSampled(p, sweep::ReportFormat::Json));
}

TEST(SampledCampaign, WarmCacheRerunSimulatesNothing)
{
    sweep::ResultCache cache;
    SampleOptions options;
    options.campaign.jobs = 1;
    options.campaign.cache = &cache;

    const auto workloads = oneWorkload("g721.dec");
    const std::vector<NamedConfig> configs = {
        {"BASE", baseParams()}};

    const SampledCampaign cold =
        runSampledCampaign(workloads, configs, options);
    EXPECT_GT(cold.stats.simulated, 0u);

    const SampledCampaign warm =
        runSampledCampaign(workloads, configs, options);
    EXPECT_EQ(warm.stats.simulated, 0u);
    EXPECT_EQ(warm.stats.cacheHits, warm.stats.unique);
    EXPECT_EQ(renderSampled(cold, sweep::ReportFormat::Csv),
              renderSampled(warm, sweep::ReportFormat::Csv));
}

TEST(SampledCampaign, EstimateWithinBoundOfFullSimulation)
{
    // End-to-end accuracy: the sampled IPC estimate must track the
    // full detailed simulation. (gzip's error is ~2% at default
    // settings; 5% is the subsystem's advertised bound.)
    const auto workloads = oneWorkload("gzip");
    const std::vector<NamedConfig> configs = {
        {"BASE", baseParams()},
        {"RENO", withReno(CoreParams::fourWide(),
                          RenoConfig::full())}};

    SampleOptions options;
    options.campaign.jobs = 1;
    const ValidationReport report =
        validateSampling(workloads, configs, options);
    ASSERT_EQ(report.rows.size(), 2u);
    EXPECT_LE(report.maxAbsErrorPct, 5.0);
    for (const ValidationRow &row : report.rows) {
        EXPECT_GT(row.sampledIpc, 0.0);
        EXPECT_GT(row.fullIpc, 0.0);
        EXPECT_EQ(row.totalInsts, 762088u);
    }
}

TEST(SampledCampaign, ValidationReportRendersAllFormats)
{
    const auto workloads = oneWorkload("jpeg.dec");
    const std::vector<NamedConfig> configs = {
        {"BASE", baseParams()}};
    SampleOptions options;
    options.campaign.jobs = 1;
    const ValidationReport report =
        validateSampling(workloads, configs, options);

    const std::string csv =
        renderValidation(report, sweep::ReportFormat::Csv);
    EXPECT_NE(csv.find("ipc_err_pct"), std::string::npos);
    EXPECT_NE(csv.find("jpeg.dec"), std::string::npos);
    const std::string json =
        renderValidation(report, sweep::ReportFormat::Json);
    EXPECT_NE(json.find("\"ipc_full\""), std::string::npos);
}

// ---- functional warming ---------------------------------------------

TEST(Warming, ChoppedWarmingComposesExactly)
{
    // Warming [0, 200k) in one go must leave bit-identical tables to
    // warming [0, 120k), snapshotting, and continuing to 200k -- the
    // property that makes checkpoints pure accelerators.
    const Workload &w = workloadByName("gcc");
    const CoreParams params = baseParams();
    const Program &prog = assembleWorkload(w);
    Emulator::Options opts;
    opts.randSeed = w.seed;

    Emulator straight(prog, opts);
    WarmState whole(params.mem, params.bpred);
    warmStep(straight, whole, 200'000);

    Emulator chopped(prog, opts);
    WarmState first(params.mem, params.bpred);
    warmStep(chopped, first, 120'000);
    WarmState resumed(first);  // snapshot copy
    warmStep(chopped, resumed, 200'000);

    EXPECT_EQ(CheckpointStore::encode(
                  {{std::make_shared<EmuCheckpoint>(
                       straight.checkpoint())},
                   std::make_shared<WarmState>(whole)}),
              CheckpointStore::encode(
                  {{std::make_shared<EmuCheckpoint>(
                       chopped.checkpoint())},
                   std::make_shared<WarmState>(resumed)}));
}

TEST(Warming, WarmConfigDigestTracksMemAndBpredOnly)
{
    CoreParams a = baseParams();
    CoreParams b = a;
    b.reno = RenoConfig::full();
    b.robEntries = 256;
    EXPECT_EQ(warmConfigDigest(a), warmConfigDigest(b))
        << "RENO/core knobs must not split the warm-state space";

    CoreParams c = a;
    c.mem.dcache.sizeBytes *= 2;
    EXPECT_NE(warmConfigDigest(a), warmConfigDigest(c));
    CoreParams d = a;
    d.bpred.dir.gshareEntries *= 2;
    EXPECT_NE(warmConfigDigest(a), warmConfigDigest(d));
}

TEST(Warming, SnapshotRoundTripAcrossHierarchyDepths)
{
    // For every memory-system variant (L3 stack, prefetchers,
    // write-back modeling): a warm snapshot taken mid-stream must
    // survive encode -> decode and reproduce the measurement window
    // byte-identically, including the prefetcher training state.
    const Workload &w = workloadByName("g721.enc");
    IntervalWindow win;
    win.startInst = 150'000;
    win.warmupInsts = 500;
    win.measureInsts = 3000;

    for (const char *variant :
         {"l3", "pf-next", "pf-stride", "wb", "l3/pf-stride/wb"}) {
        CoreParams params = baseParams();
        std::string tokens = variant;
        std::size_t pos = 0;
        while (pos != std::string::npos) {
            const std::size_t next = tokens.find('/', pos);
            ASSERT_TRUE(applyMemVariant(
                tokens.substr(pos, next == std::string::npos
                                       ? std::string::npos
                                       : next - pos),
                &params))
                << variant;
            pos = next == std::string::npos ? next : next + 1;
        }

        const SimResult plain = runIntervalDetailed(w, params, win);

        // Checkpoint BEFORE the window start so the decoded warm
        // state must also compose with continued warming.
        CheckpointStore store;
        {
            const Program &prog = assembleWorkload(w);
            Emulator::Options opts;
            opts.randSeed = w.seed;
            Emulator emu(prog, opts);
            WarmState warm(params.mem, params.bpred);
            warmStep(emu, warm, 100'000);
            store.store(w, 100'000, emu.checkpoint(), warm);
        }
        const SampleCheckpoint stored =
            store.lookup(w, 100'000, params.mem, params.bpred);
        ASSERT_TRUE(stored.usable()) << variant;

        const std::string text = CheckpointStore::encode(stored);
        SampleCheckpoint decoded;
        ASSERT_TRUE(CheckpointStore::decode(text, params.mem,
                                            params.bpred, &decoded))
            << variant;
        EXPECT_EQ(CheckpointStore::encode(decoded), text)
            << variant << ": decode->encode must be the identity";

        const SimResult via_ckpt =
            runIntervalDetailed(w, params, win, &decoded);
        for (const SimStatField &f : simResultFields()) {
            EXPECT_EQ(statValue(via_ckpt, f), statValue(plain, f))
                << variant << ": window stat '" << f.name
                << "' diverged through the snapshot round-trip";
        }
    }
}

TEST(Warming, WarmConfigDigestTracksMemoryVariants)
{
    const CoreParams base = baseParams();
    for (const std::string &token : memVariantNames()) {
        CoreParams varied = base;
        ASSERT_TRUE(applyMemVariant(token, &varied));
        EXPECT_NE(warmConfigDigest(base), warmConfigDigest(varied))
            << token << " must split the warm-state space";
    }
}

TEST(Warming, SnapshotRoundTripAcrossBpredVariants)
{
    // For every branch-prediction variant (direction engines, shallow
    // RAS, small BTB, indirect-target table): a warm snapshot taken
    // mid-stream must survive encode -> decode and reproduce the
    // measurement window byte-identically, including the predictor's
    // tables and history registers. branch.ind exercises every
    // component: conditional loop branches, indirect calls (RAS
    // pushes + BTB/ITT targets) and returns (RAS pops).
    const Workload &w = workloadByName("branch.ind");
    IntervalWindow win;
    win.startInst = 150'000;
    win.warmupInsts = 500;
    win.measureInsts = 3000;

    for (const char *variant :
         {"bimodal", "gshare", "tage", "perceptron", "ras16/btb256",
          "tage/itt"}) {
        CoreParams params = baseParams();
        std::string tokens = variant;
        std::size_t pos = 0;
        while (pos != std::string::npos) {
            const std::size_t next = tokens.find('/', pos);
            ASSERT_TRUE(applyBpredVariant(
                tokens.substr(pos, next == std::string::npos
                                       ? std::string::npos
                                       : next - pos),
                &params))
                << variant;
            pos = next == std::string::npos ? next : next + 1;
        }

        const SimResult plain = runIntervalDetailed(w, params, win);

        // Checkpoint BEFORE the window start so the decoded warm
        // state must also compose with continued warming.
        CheckpointStore store;
        {
            const Program &prog = assembleWorkload(w);
            Emulator::Options opts;
            opts.randSeed = w.seed;
            Emulator emu(prog, opts);
            WarmState warm(params.mem, params.bpred);
            warmStep(emu, warm, 100'000);
            store.store(w, 100'000, emu.checkpoint(), warm);
        }
        const SampleCheckpoint stored =
            store.lookup(w, 100'000, params.mem, params.bpred);
        ASSERT_TRUE(stored.usable()) << variant;

        const std::string text = CheckpointStore::encode(stored);
        SampleCheckpoint decoded;
        ASSERT_TRUE(CheckpointStore::decode(text, params.mem,
                                            params.bpred, &decoded))
            << variant;
        EXPECT_EQ(CheckpointStore::encode(decoded), text)
            << variant << ": decode->encode must be the identity";

        const SimResult via_ckpt =
            runIntervalDetailed(w, params, win, &decoded);
        for (const SimStatField &f : simResultFields()) {
            EXPECT_EQ(statValue(via_ckpt, f), statValue(plain, f))
                << variant << ": window stat '" << f.name
                << "' diverged through the snapshot round-trip";
        }
    }
}

TEST(Warming, WarmConfigDigestTracksBpredVariants)
{
    const CoreParams base = baseParams();
    for (const char *token : {"bimodal", "gshare", "tage",
                              "perceptron", "ras16", "btb256", "itt"}) {
        CoreParams varied = base;
        ASSERT_TRUE(applyBpredVariant(token, &varied));
        EXPECT_NE(warmConfigDigest(base), warmConfigDigest(varied))
            << token << " must split the warm-state space";
    }
    // The default spelled explicitly is the same warm space.
    CoreParams tournament = base;
    ASSERT_TRUE(applyBpredVariant("tournament", &tournament));
    EXPECT_EQ(warmConfigDigest(base), warmConfigDigest(tournament));
}

// ---- multi-core sampling --------------------------------------------

namespace
{

/** Snapshot N warmed emulators + the system warm state into one
 *  checkpoint (the multi-core persistence unit). */
SampleCheckpoint
multiCkpt(const EmulatorSet &emus, const WarmState &warm)
{
    SampleCheckpoint ckpt;
    for (const Emulator *emu : emus.cores)
        ckpt.emus.push_back(
            std::make_shared<const EmuCheckpoint>(emu->checkpoint()));
    ckpt.warm = std::make_shared<const WarmState>(warm);
    return ckpt;
}

/** Recompute the trailing integrity digest after mutating the body,
 *  so structural corruption reaches the structural checks instead of
 *  tripping the digest check. */
std::string
redigest(const std::string &text)
{
    const std::size_t digest_pos = text.rfind("digest ");
    std::string body = text.substr(0, digest_pos);
    Fnv64 h;
    h.update(body);
    body += strprintf("digest %llu\n",
                      static_cast<unsigned long long>(h.value()));
    return body;
}

} // namespace

TEST(MultiWarming, ChopResumeThroughSerializationIsBitExact)
{
    // The acceptance property of interleaved warming: chopping the
    // N-core warm at an arbitrary AGGREGATE position -- including mid
    // round-robin, so the emulators sit at uneven per-core counts --
    // serializing, decoding, and resuming must reproduce the straight
    // run's final state byte for byte: functional cursors, L1 tags,
    // shared stack and the MESI directory all ride the encoding.
    const Workload &w = workloadByName("gzip");
    const CoreParams params = baseParams();

    for (const unsigned cores : {2u, 4u}) {
        const std::uint64_t final_bound = 900 * cores;
        const std::uint64_t chop = 350 * cores + 1;  // mid-interleave

        EmulatorSet straight = makeEmulators(w, cores);
        WarmState whole(params.mem, params.bpred, cores);
        warmStep(straight.cores, whole, final_bound);
        const std::string want =
            CheckpointStore::encode(multiCkpt(straight, whole));

        EmulatorSet chopped = makeEmulators(w, cores);
        WarmState first(params.mem, params.bpred, cores);
        warmStep(chopped.cores, first, chop);
        const std::string mid =
            CheckpointStore::encode(multiCkpt(chopped, first));

        SampleCheckpoint decoded;
        ASSERT_TRUE(CheckpointStore::decode(mid, params.mem,
                                            params.bpred, &decoded,
                                            cores))
            << cores << " cores";

        EmulatorSet resumed = makeEmulators(w, cores);
        for (unsigned c = 0; c < cores; ++c)
            resumed.cores[c]->restore(*decoded.emus[c]);
        WarmState warm(*decoded.warm);
        warmStep(resumed.cores, warm, final_bound);

        EXPECT_EQ(CheckpointStore::encode(multiCkpt(resumed, warm)),
                  want)
            << cores << " cores: chop/resume diverged";
    }
}

TEST(MultiWarming, CheckpointAcceleratesMultiWithoutChangingResults)
{
    // Same contract as the single-core interval engine: a multi-core
    // checkpoint before the window start is a pure accelerator --
    // every registry stat of the measured window is identical with
    // and without it.
    const Workload &w = workloadByName("adpcm.dec");
    CoreParams params = baseParams();
    params.sys.numCores = 2;
    IntervalWindow win;
    win.startInst = 40'000;  // aggregate position over both cores
    win.warmupInsts = 1000;
    win.measureInsts = 4000;

    const SimResult plain = runIntervalDetailed(w, params, win);

    CheckpointStore store;
    {
        EmulatorSet emus = makeEmulators(w, 2);
        WarmState warm(params.mem, params.bpred, 2);
        warmStep(emus.cores, warm, 30'000);
        std::vector<EmuCheckpoint> snaps;
        for (const Emulator *e : emus.cores)
            snaps.push_back(e->checkpoint());
        store.store(w, 30'000, std::move(snaps), warm);
    }
    const SampleCheckpoint ckpt =
        store.lookup(w, 30'000, params.mem, params.bpred, 2);
    ASSERT_TRUE(ckpt.usable());
    ASSERT_EQ(ckpt.numCores(), 2u);

    const SimResult via_ckpt =
        runIntervalDetailed(w, params, win, &ckpt);
    for (const SimStatField &f : simResultFields()) {
        EXPECT_EQ(statValue(via_ckpt, f), statValue(plain, f))
            << "window stat '" << f.name
            << "' changed under the checkpoint";
    }
}

TEST(MultiWarming, CheckpointOfAnotherCoreCountIsIgnored)
{
    // A checkpoint snapshotting a different core count than the
    // config runs is never restored: the interval warms from the
    // program start and returns exactly the no-checkpoint result, in
    // both directions (2-core checkpoint into a 1-core run, 1-core
    // checkpoint into a 2-core run).
    const Workload &w = workloadByName("adpcm.dec");
    IntervalWindow win;
    win.startInst = 40'000;
    win.warmupInsts = 1000;
    win.measureInsts = 4000;

    for (const unsigned ckpt_cores : {2u, 1u}) {
        CoreParams params = baseParams();
        EmulatorSet emus = makeEmulators(w, ckpt_cores);
        WarmState warm(params.mem, params.bpred, ckpt_cores);
        warmStep(emus.cores, warm, 30'000);
        const SampleCheckpoint ckpt = multiCkpt(emus, warm);
        ASSERT_TRUE(ckpt.usable());

        params.sys.numCores = ckpt_cores == 2 ? 1 : 2;
        const SimResult plain = runIntervalDetailed(w, params, win);
        const SimResult handed =
            runIntervalDetailed(w, params, win, &ckpt);
        for (const SimStatField &f : simResultFields()) {
            EXPECT_EQ(statValue(handed, f), statValue(plain, f))
                << ckpt_cores << "-core checkpoint: window stat '"
                << f.name << "' changed";
        }
    }
}

TEST(MultiSampling, ValidationReportsPerCoreErrors)
{
    // A 2-core validation row carries one signed error per occupied
    // core slot, each folded into the whole-report worst case, and
    // the rendered report grows per-core columns.
    const auto workloads = oneWorkload("gzip");
    NamedConfig cfg{"BASE/2c", baseParams()};
    cfg.params.sys.numCores = 2;

    SampleOptions options;
    options.campaign.jobs = 1;
    options.plan.intervals = 6;
    options.plan.warmupInsts = 2000;
    options.plan.measureInsts = 4000;
    options.plan.coldInsts = 60'000;

    const ValidationReport report =
        validateSampling(workloads, {cfg}, options);
    ASSERT_EQ(report.rows.size(), 1u);
    const ValidationRow &row = report.rows[0];
    EXPECT_EQ(row.numCores, 2u);
    ASSERT_EQ(row.coreErrPct.size(), 2u);
    for (const double err : row.coreErrPct)
        EXPECT_LE(std::abs(err), report.maxAbsErrorPct + 1e-9);

    const std::string csv =
        renderValidation(report, sweep::ReportFormat::Csv);
    EXPECT_NE(csv.find("cores"), std::string::npos);
    EXPECT_NE(csv.find("ipc_err_c0"), std::string::npos);
    EXPECT_NE(csv.find("ipc_err_c1"), std::string::npos);
}

TEST(MultiSampling, SingleCoreReportFormatIsUnchanged)
{
    // Multi-core support must not leak into single-core output: a
    // campaign with only 1-core configs renders exactly the
    // historical columns (no "cores", no per-core estimates).
    const auto workloads = oneWorkload("g721.dec");
    const std::vector<NamedConfig> configs = {{"BASE", baseParams()}};
    SampleOptions options;
    options.campaign.jobs = 1;

    const SampledCampaign campaign =
        runSampledCampaign(workloads, configs, options);
    ASSERT_EQ(campaign.runs.size(), 1u);
    EXPECT_EQ(campaign.runs[0].numCores, 1u);

    for (const auto format :
         {sweep::ReportFormat::Csv, sweep::ReportFormat::Json}) {
        const std::string text = renderSampled(campaign, format);
        EXPECT_EQ(text.find("cores"), std::string::npos);
        EXPECT_EQ(text.find("ipc_est_c0"), std::string::npos);
    }
}

// ---- checkpoint rejection diagnostics -------------------------------

TEST(CheckpointRejection, TruncatedFileDiesWithReason)
{
    const Workload &w = workloadByName("epic");
    const CoreParams params = baseParams();
    EmulatorSet emus = makeEmulators(w, 1);
    WarmState warm(params.mem, params.bpred);
    warmStep(*emus.cores[0], warm, 20'000);
    CheckpointStore store;
    const std::string text = CheckpointStore::encode(
        store.store(w, 20'000, emus.cores[0]->checkpoint(), warm));

    // Cut before any digest can be found: a truncated download/write.
    const std::string truncated = text.substr(0, 10);
    EXPECT_DEATH(CheckpointStore::decodeOrDie(truncated, params.mem,
                                              params.bpred),
                 "checkpoint decode failed: no integrity digest");

    // A wrong header with a VALID digest (re-signed) is named too.
    std::string bad_header = text;
    bad_header.replace(0, bad_header.find('\n'), "reno-checkpoint v4");
    bad_header = redigest(bad_header);
    EXPECT_DEATH(
        CheckpointStore::decodeOrDie(bad_header, params.mem,
                                     params.bpred),
        "checkpoint decode failed: bad or truncated header "
        "\\(expected 'reno-checkpoint v6'\\)");
}

TEST(CheckpointRejection, WrongCoreCountDiesWithBothCounts)
{
    const Workload &w = workloadByName("epic");
    const CoreParams params = baseParams();
    EmulatorSet emus = makeEmulators(w, 2);
    WarmState warm(params.mem, params.bpred, 2);
    warmStep(emus.cores, warm, 1000);
    const std::string text =
        CheckpointStore::encode(multiCkpt(emus, warm));

    EXPECT_DEATH(CheckpointStore::decodeOrDie(text, params.mem,
                                              params.bpred, 1),
                 "checkpoint decode failed: checkpoint snapshots 2 "
                 "cores, expected 1");
    EXPECT_DEATH(CheckpointStore::decodeOrDie(text, params.mem,
                                              params.bpred, 4),
                 "checkpoint decode failed: checkpoint snapshots 2 "
                 "cores, expected 4");
}

TEST(CheckpointRejection, CorruptPerCoreBlocksDieNamingTheCore)
{
    const Workload &w = workloadByName("epic");
    const CoreParams params = baseParams();
    EmulatorSet emus = makeEmulators(w, 2);
    WarmState warm(params.mem, params.bpred, 2);
    warmStep(emus.cores, warm, 1000);
    const std::string text =
        CheckpointStore::encode(multiCkpt(emus, warm));

    // Mangle core 1's warm-block header and re-sign, so the
    // structural check (not the digest) must catch and name it.
    std::string bad_warm = text;
    const std::size_t warm_pos = bad_warm.find("corewarm 1\n");
    ASSERT_NE(warm_pos, std::string::npos);
    bad_warm.replace(warm_pos, 10, "corewarm 7");
    bad_warm = redigest(bad_warm);
    EXPECT_DEATH(CheckpointStore::decodeOrDie(bad_warm, params.mem,
                                              params.bpred, 2),
                 "checkpoint decode failed: corrupt per-core warm "
                 "block \\(core 1\\)");

    // Same for core 1's functional snapshot.
    std::string bad_func = text;
    const std::size_t func_pos = bad_func.find("\ncore 1\n");
    ASSERT_NE(func_pos, std::string::npos);
    bad_func.replace(func_pos, 8, "\ncore 5\n");
    bad_func = redigest(bad_func);
    EXPECT_DEATH(CheckpointStore::decodeOrDie(bad_func, params.mem,
                                              params.bpred, 2),
                 "checkpoint decode failed: corrupt functional block "
                 "\\(core 1\\)");
}

// ---- on-disk decoder mutation harness -------------------------------

namespace
{

/**
 * Mutants of one encoding. Every record key's first line has its
 * first three numeric tokens respelled non-canonically, as an
 * overflow, and as a count too large to allocate; on top of that, a
 * seeded sample of truncations at and between line boundaries,
 * single-byte flips, deleted or duplicated lines, and respellings of
 * numeric tokens anywhere.
 */
std::vector<std::string>
mutants(const std::string &text, std::uint64_t seed)
{
    constexpr int Sampled = 16;
    static const char *const Respellings[] = {
        "-1", "12x4", "0012", " 5", "99999999999999999999",
        "99999999999999"};
    std::vector<std::string> out;
    const auto respell = [&](std::size_t begin, std::size_t end) {
        for (const char *r : Respellings)
            out.push_back(std::string(text).replace(begin, end - begin, r));
    };

    std::vector<std::size_t> lines;
    std::vector<std::pair<std::size_t, std::size_t>> numbers;
    std::set<std::string> keys;
    for (std::size_t b = 0; b < text.size();) {
        const std::size_t e = std::min(text.find('\n', b), text.size());
        lines.push_back(b);
        std::size_t tok = std::min(text.find(' ', b), e);
        const bool first = keys.insert(text.substr(b, tok - b)).second;
        for (int taken = 0; tok < e;) {
            const std::size_t end = std::min(text.find(' ', tok + 1), e);
            const std::string v = text.substr(tok + 1, end - tok - 1);
            const bool numeric =
                !v.empty() && v.size() <= 20 &&
                v.find_first_not_of("-0123456789") == std::string::npos;
            if (numeric) {
                numbers.emplace_back(tok + 1, end);
                if (first && taken++ < 3)
                    respell(tok + 1, end);
            }
            tok = end;
        }
        b = e + 1;
    }

    Rng rng(seed);
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng.below(n));
    };
    for (int i = 0; i < Sampled; ++i) {
        const std::size_t line = pick(lines.size());
        const std::size_t begin = lines[line];
        const std::size_t end =
            line + 1 < lines.size() ? lines[line + 1] : text.size();
        out.push_back(text.substr(0, begin));
        out.push_back(text.substr(0, pick(text.size())));
        std::string flipped = text;
        flipped[pick(text.size())] ^= static_cast<char>(1 + pick(255));
        out.push_back(flipped);
        out.push_back(text.substr(0, begin) + text.substr(end));
        std::string duplicated = text;
        duplicated.insert(end, text, begin, end - begin);
        out.push_back(duplicated);
        if (!numbers.empty()) {
            const auto [tok_begin, tok_end] =
                numbers[pick(numbers.size())];
            respell(tok_begin, tok_end);
        }
    }
    return out;
}

/** Every mutant of a checkpoint -- as found and resealed with a
 *  recomputed digest, so it reaches the structural parser -- either
 *  decodes or is rejected with a reason; none aborts. */
void
expectCheckpointMutantsRejectedCleanly(const std::string &text,
                                       const CoreParams &params,
                                       unsigned cores,
                                       std::uint64_t seed)
{
    std::size_t resealed_rejections = 0;
    for (const std::string &m : mutants(text, seed)) {
        const std::string resealed = redigest(m);
        for (const std::string *input : {&m, &resealed}) {
            SampleCheckpoint out;
            std::string why;
            if (!CheckpointStore::decode(*input, params.mem, params.bpred,
                                         &out, cores, &why)) {
                EXPECT_FALSE(why.empty());
                resealed_rejections += input == &resealed;
            }
        }
    }
    EXPECT_GT(resealed_rejections, 0u)
        << "no mutant reached a structural rejection";
}

} // namespace

TEST(DecoderMutation, CheckpointsRejectHostileInputWithAReason)
{
    const Workload &w = workloadByName("epic");
    const CoreParams one = baseParams();
    EmulatorSet solo = makeEmulators(w, 1);
    WarmState solo_warm(one.mem, one.bpred);
    warmStep(solo.cores, solo_warm, 20'000);
    expectCheckpointMutantsRejectedCleanly(
        CheckpointStore::encode(multiCkpt(solo, solo_warm)), one, 1, 1);

    NamedConfig two;
    ASSERT_TRUE(configByName("RENO/2c/tage/itt", CoreParams::fourWide(),
                             &two));
    ASSERT_EQ(two.params.sys.numCores, 2u);
    EmulatorSet pair = makeEmulators(w, 2);
    WarmState pair_warm(two.params.mem, two.params.bpred, 2);
    warmStep(pair.cores, pair_warm, 8000);
    expectCheckpointMutantsRejectedCleanly(
        CheckpointStore::encode(multiCkpt(pair, pair_warm)), two.params,
        2, 2);
}

TEST(DecoderMutation, CheckpointCountsNeverSizeAllocations)
{
    // Resealed counts far beyond the file's contents: named
    // rejections, not an allocation failure.
    const Workload &w = workloadByName("epic");
    const CoreParams params = baseParams();
    EmulatorSet emus = makeEmulators(w, 1);
    WarmState warm(params.mem, params.bpred);
    warmStep(emus.cores, warm, 20'000);
    const std::string text = CheckpointStore::encode(multiCkpt(emus, warm));
    const auto rejects = [&](const std::string &from,
                             const std::string &to, const char *why) {
        std::string bad = text;
        const std::size_t at = bad.find(from);
        ASSERT_NE(at, std::string::npos) << from;
        bad.replace(at, from.size(), to);
        SampleCheckpoint out;
        std::string reason;
        EXPECT_FALSE(CheckpointStore::decode(redigest(bad), params.mem,
                                             params.bpred, &out, 1,
                                             &reason));
        EXPECT_EQ(reason, why);
    };
    rejects("\ndtab ", "\ndtab 99999999999999 ",
            "corrupt per-core predictor block (core 0)");
    const std::size_t l2 = text.find("\ncache l2 ");
    ASSERT_NE(l2, std::string::npos);
    rejects(text.substr(l2, text.find('\n', l2 + 1) - l2),
            "\ncache l2 0 999999999999999 0",
            "corrupt shared-level block ('l2')");
}

TEST(DecoderMutation, AcceptedResultsAndProfilesReencodeIdentically)
{
    sweep::Job job;
    job.workload = &workloadByName("crafty");
    job.config = {"BASE", baseParams()};
    job.wantCpa = true;
    const sweep::JobResult result = sweep::executeJob(job);
    ASSERT_TRUE(result.hasCpa);
    const std::string result_text = sweep::ResultCache::encode(result);

    FuncProfile profile;
    profile.totalInsts = result.sim.retired;
    profile.memDigest = 0x0123456789abcdefull;
    const std::string profile_text = CheckpointStore::encodeProfile(profile);

    // (EXPECT_TRUE, not EXPECT_EQ: a failure names the mutant instead
    // of printing two whole files.)
    std::size_t rejected = 0;
    const std::vector<std::string> results = mutants(result_text, 3);
    for (std::size_t i = 0; i < results.size(); ++i) {
        sweep::JobResult back;
        std::string why;
        if (sweep::ResultCache::decode(results[i], &back, &why))
            EXPECT_TRUE(sweep::ResultCache::encode(back) == results[i])
                << "result mutant " << i << " decodes but re-encodes "
                << "differently";
        else
            rejected += !why.empty();
    }
    const std::vector<std::string> profiles = mutants(profile_text, 4);
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        FuncProfile back;
        std::string why;
        if (CheckpointStore::decodeProfile(profiles[i], &back, &why))
            EXPECT_TRUE(CheckpointStore::encodeProfile(back) == profiles[i])
                << "profile mutant " << i << " decodes but re-encodes "
                << "differently";
        else
            rejected += !why.empty();
    }
    EXPECT_GT(rejected, 0u);

    // The lenient spellings the old parsers took are all refused.
    for (const char *bad : {"12x4", "-1", "0012", " 5", "0x10"}) {
        std::string r = result_text;
        const std::size_t at = r.find("\ncycles ") + 8;
        r.replace(at, r.find('\n', at) - at, bad);
        sweep::JobResult back;
        EXPECT_FALSE(sweep::ResultCache::decode(r, &back)) << bad;
        std::string p = profile_text;
        const std::size_t pat = p.find("\ninsts ") + 7;
        p.replace(pat, p.find('\n', pat) - pat, bad);
        FuncProfile pback;
        EXPECT_FALSE(CheckpointStore::decodeProfile(p, &pback)) << bad;
    }
}

namespace
{

/** Mutants of one valid config name: each '/' dropped or doubled, a
 *  trailing '/', the preset lowercased, every number respelled (signed,
 *  zero, padded, overflowing, a non-power-of-two) and every core-count
 *  token respelled as 0c and 9c. */
std::vector<std::string>
configMutants(const std::string &name)
{
    static const char *const Respellings[] = {
        "-1", "0", " 5", "99999999999999999999", "3"};
    std::vector<std::string> out = {name + "/"};
    const std::size_t preset_end = std::min(name.find('/'), name.size());
    std::string lowered = name;
    std::transform(lowered.begin(), lowered.begin() + preset_end,
                   lowered.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    out.push_back(lowered);
    for (std::size_t i = 0; i < name.size(); ++i) {
        if (name[i] == '/') {
            out.push_back(name.substr(0, i) + name.substr(i + 1));
            out.push_back(name.substr(0, i) + "/" + name.substr(i));
        }
        if (!std::isdigit(static_cast<unsigned char>(name[i])) ||
            (i > 0 && std::isdigit(static_cast<unsigned char>(name[i - 1]))))
            continue;
        std::size_t end = i;
        while (end < name.size() &&
               std::isdigit(static_cast<unsigned char>(name[end])))
            ++end;
        for (const char *r : Respellings)
            out.push_back(std::string(name).replace(i, end - i, r));
        if (end < name.size() && name[end] == 'c') {
            for (const char *cores : {"0", "9"})
                out.push_back(std::string(name).replace(i, end - i, cores));
        }
    }
    return out;
}

} // namespace

TEST(DecoderMutation, ConfigNamesResolveOrAreRejected)
{
    // Every mutant either resolves -- to geometry the warm state (the
    // per-core caches and predictors) constructs -- or is rejected;
    // none throws or aborts. Seeded pairs of mutations ride along.
    const std::vector<std::string> valid = {
        "BASE", "RENO/l3/wb", "RENO/2c/tage/itt",
        "BASE/perceptron/ras16", "ME+CF/btb256/4c", "LoadsInteg/pf-stride"};
    std::vector<std::string> names;
    Rng rng(5);
    for (const std::string &name : valid) {
        const std::vector<std::string> once = configMutants(name);
        names.insert(names.end(), once.begin(), once.end());
        for (int i = 0; i < 8; ++i) {
            const std::vector<std::string> twice =
                configMutants(once[rng.below(once.size())]);
            names.push_back(twice[rng.below(twice.size())]);
        }
    }
    std::size_t resolved = 0, rejected = 0;
    for (const std::string &name : names) {
        NamedConfig cfg;
        if (!configByName(name, CoreParams::fourWide(), &cfg)) {
            ++rejected;
            continue;
        }
        ++resolved;
        const WarmState warm(cfg.params.mem, cfg.params.bpred,
                             cfg.params.sys.numCores);
        EXPECT_EQ(warm.numCores(), cfg.params.sys.numCores) << name;
    }
    EXPECT_GT(resolved, 0u);
    EXPECT_GT(rejected, 0u);
}

// ---- one --cache-dir shared by concurrent processes -----------------

TEST(SharedCacheDir, ConcurrentWritersNeverTearAReader)
{
    namespace fs = std::filesystem;
    const std::string dir = ::testing::TempDir() + "reno_shared_cache";
    fs::remove_all(dir);
    const Workload &w = workloadByName("epic");
    const CoreParams params = baseParams();
    EmulatorSet emus = makeEmulators(w, 1);
    WarmState warm(params.mem, params.bpred);
    warmStep(emus.cores, warm, 20'000);
    const EmuCheckpoint snap = emus.cores[0]->checkpoint();
    sweep::JobResult result;
    result.sim.cycles = 123456;
    result.sim.retired = 7890;
    result.hasCpa = true;
    result.cpaWeights = {10, 20, 30, 40, 50};
    constexpr std::uint64_t Digest = 0x5eed;

    // Every read below has an entry to find from the start, and every
    // process (writers included) logs to one file.
    std::FILE *log = std::tmpfile();
    ASSERT_NE(log, nullptr);
    std::FILE *prev_sink = setLogSink(log);
    CheckpointStore(dir).store(w, 20'000, snap, warm);
    sweep::ResultCache(dir).store(Digest, result);
    std::fflush(nullptr);

    constexpr int Writers = 3;
    constexpr int StoresPerWriter = 60;
    std::vector<pid_t> writers;
    for (int i = 0; i < Writers; ++i) {
        const pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            for (int s = 0; s < StoresPerWriter; ++s) {
                CheckpointStore(dir).store(w, 20'000, snap, warm);
                sweep::ResultCache(dir).store(Digest, result);
            }
            std::fflush(nullptr);
            _exit(0);
        }
        writers.push_back(pid);
    }

    int reads = 0, unusable = 0, running = Writers;
    while (running > 0 || reads < 100) {
        sweep::JobResult back;
        const bool ckpt_ok = CheckpointStore(dir)
                                 .lookup(w, 20'000, params.mem,
                                         params.bpred)
                                 .usable();
        const bool result_ok =
            sweep::ResultCache(dir).lookup(Digest, &back) &&
            back.sim.cycles == result.sim.cycles;
        unusable += !ckpt_ok || !result_ok;
        ++reads;
        for (pid_t &pid : writers) {
            int status = 0;
            if (pid != 0 && waitpid(pid, &status, WNOHANG) == pid) {
                EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
                pid = 0;
                --running;
            }
        }
    }
    setLogSink(prev_sink);

    std::string logged;
    std::rewind(log);
    for (int c; (c = std::fgetc(log)) != EOF;)
        logged += static_cast<char>(c);
    std::fclose(log);
    EXPECT_EQ(unusable, 0) << "of " << reads << " reads";
    EXPECT_EQ(logged, "") << "no malformed entry and no failed rename";
    for (const auto &entry : fs::directory_iterator(dir))
        EXPECT_EQ(entry.path().filename().string().find(".tmp"),
                  std::string::npos)
            << entry.path();
    fs::remove_all(dir);
}
