#include "sample/interval.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "harness/experiment.hpp"
#include "obs/phase.hpp"
#include "sys/system.hpp"

namespace reno::sample
{

std::vector<PlannedInterval>
planIntervals(std::uint64_t total_insts, const SamplePlan &plan)
{
    std::vector<PlannedInterval> planned;
    if (plan.intervals == 0 || plan.measureInsts == 0 ||
        total_insts == 0)
        return planned;

    // Exact cold stratum: [0, cold), measured in full with cold
    // caches, exactly as a full run executes it. The default (one
    // tenth of the program) is independent of the window count, so
    // denser plans refine coverage without shrinking it.
    const std::uint64_t n = std::min(plan.intervals, total_insts);
    std::uint64_t cold =
        plan.coldInsts ? std::min(plan.coldInsts, total_insts)
                       : std::max<std::uint64_t>(total_insts / 10, 1);
    if (n == 1)
        cold = total_insts;

    // Degenerate to one exact full-program interval when the plan
    // would execute at least a third of the program anyway: for tiny
    // workloads exact detail costs barely more than sampling and has
    // zero error.
    if (n == 1 ||
        cold + (n - 1) * (plan.warmupInsts + plan.measureInsts) >=
            total_insts / 3)
        cold = total_insts;

    planned.push_back({IntervalWindow{0, 0, cold}, cold, true});
    if (cold >= total_insts)
        return planned;

    // Sampled strata: divide the remainder into n - 1 equal strides
    // and center the MEASURED window within each, so samples cover
    // the whole stream and the measured region does not move when
    // the warmup length is tuned. Warmup runs in the instructions
    // before it (clamped at the stream start).
    const std::uint64_t rest = total_insts - cold;
    const std::uint64_t strides = n - 1;
    const std::uint64_t stride = rest / strides;
    if (stride == 0)
        return planned;

    for (std::uint64_t i = 0; i < strides; ++i) {
        PlannedInterval p;
        const std::uint64_t measure_off =
            stride > plan.measureInsts
                ? (stride - plan.measureInsts) / 2 : 0;
        const std::uint64_t measure_start =
            cold + i * stride + measure_off;
        const std::uint64_t warmup =
            std::min(plan.warmupInsts, measure_start);
        p.window.startInst = measure_start - warmup;
        p.window.warmupInsts = warmup;
        p.window.measureInsts = plan.measureInsts;
        // The final stride absorbs the division remainder.
        p.repInsts =
            i + 1 == strides ? rest - i * stride : stride;
        if (p.window.startInst >= total_insts)
            break;
        planned.push_back(p);
    }
    return planned;
}

// The field-wise delta/accumulate pair walks the canonical registry
// in uarch/sim_result.hpp: every counter exactly once, with a
// static_assert there forcing the registry to track SimResult.

SimResult
deltaResult(const SimResult &post, const SimResult &pre)
{
    SimResult d;
    for (const SimStatField &field : simResultFields())
        statRef(d, field) = statValue(post, field) -
                            statValue(pre, field);
    return d;
}

void
accumulateResult(SimResult &into, const SimResult &add)
{
    for (const SimStatField &field : simResultFields())
        statRef(into, field) += statValue(add, field);
}

SimResult
runIntervalDetailed(const Workload &workload, const CoreParams &params,
                    const IntervalWindow &window,
                    const SampleCheckpoint *ckpt,
                    obs::CpiStack *cpi_out)
{
    if (window.measureInsts == 0)
        fatal("runIntervalDetailed: window has no measured insts");
    const unsigned n = params.sys.numCores;
    if (n < 1 || n > SysParams::MaxCores)
        fatal("runIntervalDetailed: core count must be in [1, %u] "
              "(got %u)", SysParams::MaxCores, n);

    EmulatorSet emus = makeEmulators(workload, n);

    // Bring functional state and warm tables to the window start (an
    // aggregate position). A usable checkpoint of this core count
    // skips the warmed prefix; the stateless interleave rule makes the
    // chopped and unchopped streams bit-identical. Any other
    // checkpoint is ignored: warm from the program start.
    const WarmState *inject = nullptr;
    std::unique_ptr<WarmState> scratch;
    if (ckpt && ckpt->usable() && ckpt->numCores() == n &&
        ckpt->instCount() <= window.startInst &&
        warmConfigDigest(params) ==
            warmConfigDigest(ckpt->warm->memParams(),
                             ckpt->warm->bpParams(), n)) {
        {
            obs::PhaseSpan phase("sample.restore");
            for (unsigned i = 0; i < n; ++i)
                emus.cores[i]->restore(*ckpt->emus[i]);
        }
        if (ckpt->instCount() == window.startInst)
            inject = ckpt->warm.get();
        else
            scratch = std::make_unique<WarmState>(*ckpt->warm);
    } else {
        scratch = std::make_unique<WarmState>(params.mem, params.bpred,
                                              n);
    }
    if (scratch) {
        obs::PhaseSpan phase("sample.fastforward");
        const std::uint64_t ff_start = emus.instCount();
        warmStep(emus.cores, *scratch, window.startInst);
        phase.setInsts(emus.instCount() - ff_start);
        inject = scratch.get();
    }
    if (emus.done())
        return SimResult{};

    System sys(params, emus.cores);
    for (std::size_t i = 0; i < sys.numSharedLevels(); ++i) {
        sys.sharedLevel(i).copyStateFrom(inject->sharedLevel(i));
        sys.sharedLevel(i).settle();
    }
    if (!sys.bus().importState(inject->bus().exportState()))
        fatal("runIntervalDetailed: warmed MESI directory does not "
              "fit a %u-core bus", n);
    for (unsigned i = 0; i < n; ++i) {
        sys.core(i).memHierarchy().copyStateFrom(inject->coreMem(i));
        sys.core(i).memHierarchy().settle();
        sys.core(i).branchPredictor() = inject->coreBp(i);
    }

    if (window.warmupInsts > 0) {
        obs::PhaseSpan phase("sample.warmup");
        sys.runUntilRetired(window.warmupInsts);
        phase.setInsts(sys.result().retired);
    }
    const SimResult pre = sys.result();
    std::vector<obs::CpiStack> pre_stacks(n);
    for (unsigned i = 0; i < n; ++i) {
        if (sys.core(i).cpiStack())
            pre_stacks[i] = *sys.core(i).cpiStack();
    }
    SimResult post;
    {
        obs::PhaseSpan phase("sample.detailed");
        post = sys.runUntilRetired(window.warmupInsts +
                                   window.measureInsts);
        phase.setInsts(post.retired - pre.retired);
    }
    if (cpi_out) {
        for (unsigned i = 0; i < n; ++i) {
            if (sys.core(i).cpiStack())
                cpi_out->accumulate(
                    sys.core(i).cpiStack()->delta(pre_stacks[i]));
        }
    }
    return deltaResult(post, pre);
}

SampledEstimate
aggregateIntervals(std::uint64_t total_insts,
                   const std::vector<PlannedInterval> &plan,
                   const std::vector<SimResult> &windows,
                   const std::vector<obs::CpiStack> *stacks)
{
    if (plan.size() != windows.size())
        fatal("aggregateIntervals: %zu planned intervals but %zu "
              "window results",
              plan.size(), windows.size());
    if (stacks && stacks->size() != windows.size())
        fatal("aggregateIntervals: %zu windows but %zu CPI stacks",
              windows.size(), stacks->size());

    SampledEstimate est;
    est.totalInsts = total_insts;
    est.intervals = static_cast<unsigned>(windows.size());

    // Stratified estimate: each window's measured cycles scale to the
    // stratum it represents. Exactly measured strata contribute their
    // true cost (scale factor ~1).
    double est_cycles = 0.0;
    double core_cycles[NumCoreStatSlots] = {};
    double core_retired[NumCoreStatSlots] = {};
    std::uint64_t observed_rep = 0;
    bool all_stacked = stacks != nullptr;
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const SimResult &w = windows[i];
        if (w.retired == 0 || w.cycles == 0)
            continue;  // the program ended before this window measured
        accumulateResult(est.sum, w);
        ++est.measuredIntervals;
        const double scale = static_cast<double>(plan[i].repInsts) /
                             static_cast<double>(w.retired);
        est_cycles += static_cast<double>(w.cycles) * scale;
        // Per-core retire slots fold with the same stratum scale, so
        // each slot's cycle/retire ratio is a stratified IPC estimate
        // for that core.
        for (unsigned s = 0; s < NumCoreStatSlots; ++s) {
            core_cycles[s] +=
                static_cast<double>(w.coreCycles[s]) * scale;
            core_retired[s] +=
                static_cast<double>(w.coreRetired[s]) * scale;
        }
        // Window stacks extrapolate bucket-wise with the same scale;
        // one measured window without a stack (e.g. a cache replay)
        // poisons the whole-program stack, not just its stratum.
        if (stacks) {
            const obs::CpiStack &stk = (*stacks)[i];
            if (stk.total() == 0)
                all_stacked = false;
            for (std::size_t b = 0; b < obs::NumCpiBuckets; ++b)
                est.cpiEst[b] +=
                    static_cast<double>(stk.cycles[b]) * scale;
        }
        observed_rep += plan[i].repInsts;
        if (!plan[i].exact)
            est.intervalIpc.push_back(w.ipc());
    }
    if (est_cycles <= 0.0 || observed_rep == 0) {
        est.cpiEst = {};
        return est;
    }
    for (unsigned s = 0; s < NumCoreStatSlots; ++s) {
        if (core_cycles[s] > 0.0 && core_retired[s] > 0.0)
            est.coreIpcEst[s] = core_retired[s] / core_cycles[s];
    }

    // Scale up for strata that measured nothing (program shorter than
    // planned -- rare, but keeps the estimate total-covering).
    const double coverage = static_cast<double>(total_insts) /
                            static_cast<double>(observed_rep);
    est_cycles *= coverage;
    est.estCycles =
        static_cast<std::uint64_t>(std::llround(est_cycles));
    est.ipc = static_cast<double>(total_insts) / est_cycles;
    if (all_stacked && est.measuredIntervals > 0) {
        for (double &b : est.cpiEst)
            b *= coverage;
        est.hasCpi = true;
    } else {
        est.cpiEst = {};
    }

    // 95% confidence half-width on the sampled windows' IPC mean.
    const std::size_t n = est.intervalIpc.size();
    if (n >= 2) {
        double mean = 0.0;
        for (const double x : est.intervalIpc)
            mean += x;
        mean /= static_cast<double>(n);
        double var = 0.0;
        for (const double x : est.intervalIpc)
            var += (x - mean) * (x - mean);
        var /= static_cast<double>(n - 1);
        est.ipcCi95 =
            1.96 * std::sqrt(var / static_cast<double>(n));
    }
    return est;
}

} // namespace reno::sample
