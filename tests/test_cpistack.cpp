/**
 * @file
 * CPI-stack and hotspot-profiler tests. The load-bearing property is
 * the accounting identity: every commit-stage cycle lands in exactly
 * one bucket, so a stack sums to the core's cycle count by
 * construction -- checked here on every workload of the synth, mem,
 * branch and multi suites (single- and multi-core, detailed and
 * sampled). Profiling is also proven inert: SimResult is field-wise
 * identical with accounting on or off, so job digests, caching and
 * goldens never depend on observability state.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/cpireport.hpp"
#include "obs/cpistack.hpp"
#include "obs/observation.hpp"
#include "obs/profiler.hpp"
#include "sample/interval.hpp"
#include "sample/sampler.hpp"
#include "workloads/workloads.hpp"

using namespace reno;
using namespace reno::obs;

namespace
{

/** A request for CPI stacks and, when @p hot_top_n > 0, hotspots. */
ObservationRequest
stacks(unsigned hot_top_n = 0)
{
    ObservationRequest request;
    request.cpiStack = true;
    request.hotTopN = hot_top_n;
    return request;
}

NamedConfig
renoConfig(const char *name = "RENO")
{
    NamedConfig cfg;
    EXPECT_TRUE(configByName(name, CoreParams::fourWide(), &cfg));
    return cfg;
}

} // namespace

TEST(CpiStack, BucketArithmeticAndNames)
{
    CpiStack a;
    EXPECT_EQ(a.total(), 0u);
    a.inc(CpiBucket::Base);
    a.inc(CpiBucket::Base);
    a.inc(CpiBucket::BackDcacheMem);
    EXPECT_EQ(a.total(), 3u);
    EXPECT_EQ(a.get(CpiBucket::Base), 2u);

    CpiStack b = a;
    b.inc(CpiBucket::FrontIcache);
    const CpiStack d = b.delta(a);
    EXPECT_EQ(d.total(), 1u);
    EXPECT_EQ(d.get(CpiBucket::FrontIcache), 1u);

    CpiStack sum;
    sum.accumulate(a);
    sum.accumulate(d);
    EXPECT_EQ(sum.total(), b.total());

    // Names are the JSON/report contract: present and distinct.
    std::vector<std::string> names;
    for (std::size_t i = 0; i < NumCpiBuckets; ++i) {
        const char *n = cpiBucketName(static_cast<CpiBucket>(i));
        ASSERT_NE(n, nullptr);
        for (const std::string &prev : names)
            EXPECT_NE(prev, n);
        names.push_back(n);
    }
}

TEST(HotspotProfile, CountsRanksAndDropsDeterministically)
{
    HotspotProfile prof(64);
    for (int i = 0; i < 10; ++i)
        prof.retire(0x1000);
    for (int i = 0; i < 4; ++i)
        prof.retire(0x2000);
    prof.retire(0x3000);
    prof.stall(0x2000);
    prof.stall(0x2000);
    prof.stall(0x3000);

    const auto by_ret = prof.topByRetired(2);
    ASSERT_EQ(by_ret.size(), 2u);
    EXPECT_EQ(by_ret[0].pc, 0x1000u);
    EXPECT_EQ(by_ret[0].retired, 10u);
    EXPECT_EQ(by_ret[1].pc, 0x2000u);

    const auto by_stall = prof.topByStall(8);
    ASSERT_EQ(by_stall.size(), 2u);  // zero-stall PCs are filtered
    EXPECT_EQ(by_stall[0].pc, 0x2000u);
    EXPECT_EQ(by_stall[0].stallCycles, 2u);
    EXPECT_EQ(prof.dropped(), 0u);

    // A saturated table drops excess PCs instead of growing or
    // evicting: the counts it does report stay exact.
    HotspotProfile tiny(64);  // 64 slots is the construction floor
    for (std::uint64_t pc = 0; pc < 4096; ++pc)
        tiny.retire(0x4000 + 4 * pc);
    EXPECT_GT(tiny.dropped(), 0u);
    EXPECT_LE(tiny.occupied(), 64u);
    for (const auto &e : tiny.topByRetired(64))
        EXPECT_EQ(e.retired, 1u);
}

TEST(CpiStack, SumsExactlyToCyclesOnEverySuiteWorkload)
{
    const NamedConfig cfg = renoConfig();

    // Single-core detailed: machine stack == cycles, exactly.
    for (const char *suite : {"synth", "mem", "branch"}) {
        for (const Workload *w : suiteWorkloads(suite)) {
            const RunOutput out =
                runWorkload(*w, cfg.params, nullptr, stacks(10));
            ASSERT_TRUE(out.observed.cpi.valid) << w->name;
            EXPECT_EQ(out.observed.cpi.machine.total(), out.sim.cycles)
                << w->name;
            ASSERT_EQ(out.observed.cpi.perCore.size(), 1u) << w->name;
            EXPECT_EQ(out.observed.cpi.perCore[0].total(), out.sim.cycles)
                << w->name;
            // Retired instructions all passed through the profiler.
            std::uint64_t profiled = 0;
            for (const auto &e :
                 out.observed.cpi.hotRetired)
                profiled += e.retired;
            EXPECT_GT(profiled, 0u) << w->name;
        }
    }

    // Multi-core detailed: each core's stack sums to that core's own
    // cycle count (cores freeze independently), and the machine stack
    // is their exact sum.
    const NamedConfig cfg2 = renoConfig("RENO/2c");
    for (const Workload *w : suiteWorkloads("multi")) {
        const RunOutput out =
            runWorkload(*w, cfg2.params, nullptr, stacks(10));
        ASSERT_TRUE(out.observed.cpi.valid) << w->name;
        ASSERT_EQ(out.observed.cpi.perCore.size(), 2u) << w->name;
        std::uint64_t sum = 0;
        for (unsigned c = 0; c < 2; ++c) {
            EXPECT_EQ(out.observed.cpi.perCore[c].total(),
                      out.sim.coreCycles[c])
                << w->name << " core " << c;
            sum += out.observed.cpi.perCore[c].total();
        }
        EXPECT_EQ(out.observed.cpi.machine.total(), sum) << w->name;
    }
}

TEST(CpiStack, SimResultIsByteIdenticalWithProfilingOnAndOff)
{
    const Workload &w = workloadByName("synth.mix");
    const NamedConfig cfg = renoConfig();

    const SimResult off = runWorkload(w, cfg.params).sim;
    SimResult on;
    {
        const RunOutput out = runWorkload(w, cfg.params, nullptr,
                                          stacks(20));
        EXPECT_TRUE(out.observed.cpi.valid);
        on = out.sim;
    }
    const SimResult off_again = runWorkload(w, cfg.params).sim;

    // Every canonical counter, not a hand-picked subset: accounting
    // must never perturb simulation (digests and goldens depend on
    // this).
    for (const SimStatField &field : simResultFields()) {
        EXPECT_EQ(statValue(on, field), statValue(off, field))
            << field.name;
        EXPECT_EQ(statValue(off_again, field), statValue(off, field))
            << field.name;
    }
}

TEST(CpiStack, SampledWindowStackMatchesWindowCycles)
{
    const Workload &w = workloadByName("synth.plain");
    const NamedConfig cfg = renoConfig();

    sample::IntervalWindow win;
    win.startInst = 50'000;
    win.warmupInsts = 500;
    win.measureInsts = 5000;
    Observation observed;
    const SimResult delta = sample::runIntervalDetailed(
        w, cfg.params, win, nullptr, stacks(), &observed);
    const CpiStack &stack = observed.cpi.machine;
    EXPECT_EQ(stack.total(), delta.cycles);

    // Multi-core window: the stack delta sums the per-core cycle
    // deltas, matching SimResult's per-core counters exactly.
    const NamedConfig cfg2 = renoConfig("RENO/2c");
    const Workload &mw = workloadByName("multi.false");
    Observation observed2;
    const SimResult delta2 = sample::runIntervalDetailed(
        mw, cfg2.params, win, nullptr, stacks(), &observed2);
    const CpiStack &stack2 = observed2.cpi.machine;
    EXPECT_EQ(stack2.total(),
              delta2.coreCycles[0] + delta2.coreCycles[1]);
    EXPECT_GT(stack2.total(), 0u);
}

TEST(CpiStack, SampledExtrapolationTracksFullDetailWithinGate)
{
    const NamedConfig cfg = renoConfig();
    std::vector<const Workload *> workloads =
        suiteWorkloads("synth");

    // Full-detail truth with accounting off: the baseline the sampled
    // stack must track (same 5% gate as the IPC estimate -- the stack
    // total IS the cycle estimate under the same estimator).
    std::vector<std::uint64_t> full_cycles;
    for (const Workload *w : workloads)
        full_cycles.push_back(runWorkload(*w, cfg.params).sim.cycles);

    sample::SampleOptions options;
    options.campaign.jobs = 1;
    options.campaign.observe.cpiStack = true;
    const sample::SampledCampaign sampled =
        sample::runSampledCampaign(workloads, {cfg}, options);
    ASSERT_EQ(sampled.runs.size(), workloads.size());

    for (std::size_t i = 0; i < sampled.runs.size(); ++i) {
        const sample::SampledEstimate &est = sampled.runs[i].est;
        ASSERT_TRUE(est.hasCpi) << workloads[i]->name;
        double stack_sum = 0.0;
        for (const double b : est.cpiEst)
            stack_sum += b;
        // The extrapolated stack and estCycles use the identical
        // stratified estimator; they differ only by llround.
        EXPECT_NEAR(stack_sum,
                    static_cast<double>(est.estCycles),
                    1.0)
            << workloads[i]->name;
        const double err =
            std::fabs(stack_sum -
                      static_cast<double>(full_cycles[i])) /
            static_cast<double>(full_cycles[i]) * 100.0;
        EXPECT_LE(err, 5.0) << workloads[i]->name;
    }
}

TEST(CpiStack, ConcurrentRunsObserveOnlyWhatEachRequests)
{
    // Two jobs in one process at the same time, one asking for stacks
    // and one not: the request is per job, so neither sees the
    // other's.
    const Workload &w = workloadByName("synth.mix");
    const NamedConfig cfg = renoConfig();
    RunOutput with, without;
    std::thread a([&] {
        with = runWorkload(w, cfg.params, nullptr, stacks(5));
    });
    std::thread b([&] { without = runWorkload(w, cfg.params); });
    a.join();
    b.join();

    ASSERT_TRUE(with.observed.cpi.valid);
    EXPECT_EQ(with.observed.cpi.machine.total(), with.sim.cycles);
    EXPECT_FALSE(with.observed.cpi.hotRetired.empty());
    EXPECT_FALSE(without.observed.cpi.valid);
    EXPECT_TRUE(without.observed.cpi.perCore.empty());
    EXPECT_TRUE(without.observed.cpi.hotRetired.empty());
    for (const SimStatField &field : simResultFields())
        EXPECT_EQ(statValue(with.sim, field),
                  statValue(without.sim, field))
            << field.name;
}
