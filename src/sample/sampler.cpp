#include "sample/sampler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>

#include "common/log.hpp"
#include "common/report.hpp"
#include "harness/experiment.hpp"
#include "obs/phase.hpp"
#include "sweep/thread_pool.hpp"

namespace reno::sample
{

namespace
{

/**
 * Configurations grouped by the parameters warm state depends on
 * (mem + bpred). One warming pass per group serves every member; the
 * usual sweeps (BASE / ME / ME+CF / RENO / ...) differ only in RENO
 * knobs and form a single group.
 */
struct WarmGroup {
    std::uint64_t digest = 0;
    const NamedConfig *representative = nullptr;
    std::vector<std::size_t> configIndices;
};

std::vector<WarmGroup>
groupByWarmConfig(const std::vector<NamedConfig> &configs)
{
    std::vector<WarmGroup> groups;
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
        const std::uint64_t digest =
            warmConfigDigest(configs[ci].params);
        WarmGroup *group = nullptr;
        for (WarmGroup &g : groups) {
            if (g.digest == digest) {
                group = &g;
                break;
            }
        }
        if (!group) {
            groups.push_back({digest, &configs[ci], {}});
            group = &groups.back();
        }
        group->configIndices.push_back(ci);
    }
    return groups;
}

/** Per-workload planning state shared by the prep passes. Profiles
 *  and interval plans are per core count: an N-core config samples
 *  the AGGREGATE instruction stream, whose length and interval
 *  boundaries differ from the single-core stream's. */
struct WorkloadPrep {
    const Workload *workload = nullptr;
    std::map<unsigned, FuncProfile> profiles;
    std::map<unsigned, std::vector<PlannedInterval>> windows;
    /** checkpoints[group][window]; unusable = warm from the start. */
    std::vector<std::vector<SampleCheckpoint>> checkpoints;
};

sweep::Job
intervalJob(const Workload &workload, const NamedConfig &config,
            const IntervalWindow &window, unsigned index)
{
    sweep::Job job;
    job.workload = &workload;
    job.config = config;
    job.tag = strprintf("ivl%u", index);
    job.window = window;
    return job;
}

/**
 * Prepare one workload: profile (store-cached), plan, and capture the
 * checkpoints that uncached interval jobs will need -- one warming
 * pass per warm-config group. An interval's checkpoint is skipped
 * when every configuration's job at that interval is already in the
 * result cache, so a warm rerun does no emulation at all.
 */
void
prepareWorkload(WorkloadPrep &prep,
                const std::vector<NamedConfig> &configs,
                const std::vector<WarmGroup> &groups,
                const SamplePlan &plan, CheckpointStore &store,
                sweep::ResultCache &cache)
{
    const Workload &w = *prep.workload;
    // Trace-only wrapper: the leaf phases inside (sim.functional,
    // sample.capture) do the phase accounting.
    obs::TraceSpan prep_span("sample.prepare:" + w.name, "phase");

    // Profile and plan once per distinct core count: the aggregate
    // instruction stream of an N-core SPMD run is N times as long,
    // so its interval boundaries are its own.
    for (const WarmGroup &group : groups) {
        const unsigned cores =
            group.representative->params.sys.numCores;
        if (prep.windows.count(cores))
            continue;
        FuncProfile profile;
        const std::uint64_t pkey = profileKey(w, cores);
        if (!store.lookupProfile(pkey, &profile)) {
            const RunOutput out = runFunctionalMulti(w, cores);
            profile.totalInsts = out.emuInsts;
            profile.memDigest = out.memDigest;
            store.storeProfile(pkey, profile);
        }
        prep.profiles[cores] = profile;
        prep.windows[cores] =
            planIntervals(profile.totalInsts, plan);
    }

    prep.checkpoints.assign(groups.size(), {});

    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        const WarmGroup &group = groups[gi];
        const CoreParams &rep = group.representative->params;
        const unsigned cores = rep.sys.numCores;
        const std::vector<PlannedInterval> &windows =
            prep.windows.at(cores);
        prep.checkpoints[gi].resize(windows.size());

        // An interval needs a checkpoint only if some configuration
        // of this group misses the result cache at that interval.
        std::vector<std::size_t> needed;
        for (std::size_t i = 0; i < windows.size(); ++i) {
            bool miss = false;
            for (const std::size_t ci : group.configIndices) {
                const sweep::Job job = intervalJob(
                    w, configs[ci], windows[i].window,
                    static_cast<unsigned>(i));
                sweep::JobResult scratch;
                if (!cache.lookup(sweep::jobDigest(job), &scratch)) {
                    miss = true;
                    break;
                }
            }
            if (miss)
                needed.push_back(i);
        }
        if (needed.empty())
            continue;

        // Satisfy from the checkpoint store first; capture the rest
        // in one ascending functional-warming pass.
        std::vector<std::size_t> capture;
        for (const std::size_t i : needed) {
            SampleCheckpoint ckpt = store.lookup(
                w, windows[i].window.startInst, rep.mem, rep.bpred,
                cores);
            if (ckpt.usable())
                prep.checkpoints[gi][i] = std::move(ckpt);
            else
                capture.push_back(i);
        }
        if (capture.empty())
            continue;

        // One ascending warming pass drives every core's emulator
        // stream through the shared stack and the warming-mode MESI
        // bus; each position snapshots all functional states plus the
        // system warm state.
        EmulatorSet emus = makeEmulators(w, cores);
        WarmState warm(rep.mem, rep.bpred, cores);
        obs::PhaseSpan phase("sample.capture");
        for (const std::size_t i : capture) {
            warmStep(emus.cores, warm, windows[i].window.startInst);
            std::vector<EmuCheckpoint> snaps;
            snaps.reserve(cores);
            for (const Emulator *emu : emus.cores)
                snaps.push_back(emu->checkpoint());
            prep.checkpoints[gi][i] = store.store(
                w, windows[i].window.startInst, std::move(snaps), warm);
        }
        phase.setInsts(emus.instCount());
    }
}

} // namespace

SampledCampaign
runSampledCampaign(const std::vector<const Workload *> &workloads,
                   const std::vector<NamedConfig> &configs,
                   const SampleOptions &options)
{
    if (workloads.empty() || configs.empty())
        fatal("sampled campaign needs workloads and configurations");
    if (options.plan.intervals == 0 || options.plan.measureInsts == 0)
        fatal("sampled campaign needs a plan with intervals > 0 and "
              "measured insts > 0");
    for (const NamedConfig &cfg : configs) {
        if (cfg.params.sys.numCores < 1 ||
            cfg.params.sys.numCores > SysParams::MaxCores)
            fatal("sampled simulation supports 1..%u cores (config "
                  "'%s' runs %u)", SysParams::MaxCores,
                  cfg.name.c_str(), cfg.params.sys.numCores);
    }

    // One result cache spans the prep probe and the campaign run, and
    // the checkpoint store shares its persistence directory.
    sweep::ResultCache local_cache(options.campaign.cacheDir);
    sweep::ResultCache &cache =
        options.campaign.cache ? *options.campaign.cache : local_cache;
    CheckpointStore store(options.campaign.cacheDir.empty()
                              ? ""
                              : options.campaign.cacheDir + "/ckpt");

    const std::vector<WarmGroup> groups = groupByWarmConfig(configs);

    // Map each configuration to its warm group for job construction.
    std::vector<std::size_t> config_group(configs.size(), 0);
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        for (const std::size_t ci : groups[gi].configIndices)
            config_group[ci] = gi;
    }

    // Prep passes are independent per workload: run them on the pool.
    std::vector<WorkloadPrep> preps(workloads.size());
    for (std::size_t i = 0; i < workloads.size(); ++i)
        preps[i].workload = workloads[i];
    const unsigned workers =
        sweep::resolveJobCount(options.campaign.jobs);
    if (workers <= 1 || preps.size() <= 1) {
        for (WorkloadPrep &prep : preps)
            prepareWorkload(prep, configs, groups, options.plan,
                            store, cache);
    } else {
        sweep::ThreadPool pool(unsigned(
            std::min<std::size_t>(workers, preps.size())));
        for (WorkloadPrep &prep : preps) {
            pool.submit(
                [&prep, &configs, &groups, &options, &store, &cache] {
                    prepareWorkload(prep, configs, groups,
                                    options.plan, store, cache);
                });
        }
        pool.waitIdle();
    }

    // One job per (workload, configuration, interval). A config's
    // interval plan depends on its core count (aggregate stream).
    sweep::Campaign campaign;
    for (const WorkloadPrep &prep : preps) {
        for (std::size_t ci = 0; ci < configs.size(); ++ci) {
            const std::vector<PlannedInterval> &windows =
                prep.windows.at(configs[ci].params.sys.numCores);
            for (std::size_t i = 0; i < windows.size(); ++i) {
                sweep::Job job =
                    intervalJob(*prep.workload, configs[ci],
                                windows[i].window,
                                static_cast<unsigned>(i));
                job.checkpoint =
                    prep.checkpoints[config_group[ci]][i];
                campaign.add(std::move(job));
            }
        }
    }

    sweep::CampaignOptions run_opts = options.campaign;
    run_opts.cache = &cache;
    const sweep::CampaignResults results = campaign.run(run_opts);

    SampledCampaign out;
    out.stats = results.stats();
    const bool want_cpi = options.campaign.observe.cpiStack;
    std::size_t cursor = 0;
    for (const WorkloadPrep &prep : preps) {
        for (const NamedConfig &cfg : configs) {
            const unsigned cores = cfg.params.sys.numCores;
            const std::vector<PlannedInterval> &plan_windows =
                prep.windows.at(cores);
            std::vector<SimResult> windows;
            std::vector<obs::CpiStack> stacks;
            windows.reserve(plan_windows.size());
            stacks.reserve(plan_windows.size());
            for (std::size_t i = 0; i < plan_windows.size(); ++i) {
                const sweep::JobResult &jr = results.at(cursor++);
                windows.push_back(jr.sim);
                // A cache-replayed interval carries no stack; the
                // zero stack makes aggregateIntervals drop hasCpi.
                stacks.push_back(jr.observed.cpi.valid
                                     ? jr.observed.cpi.machine
                                     : obs::CpiStack{});
            }
            SampledRun run;
            run.workload = prep.workload;
            run.config = cfg.name;
            run.numCores = cores;
            run.est = aggregateIntervals(
                prep.profiles.at(cores).totalInsts, plan_windows,
                windows, want_cpi ? &stacks : nullptr);
            out.runs.push_back(std::move(run));
        }
    }
    return out;
}

ValidationReport
validateSampling(const std::vector<const Workload *> &workloads,
                 const std::vector<NamedConfig> &configs,
                 const SampleOptions &options)
{
    using clock = std::chrono::steady_clock;

    sweep::Campaign full;
    for (const Workload *w : workloads) {
        for (const NamedConfig &cfg : configs)
            full.add(*w, cfg);
    }
    const auto t0 = clock::now();
    const sweep::CampaignResults full_results =
        full.run(options.campaign);
    const auto t1 = clock::now();
    const SampledCampaign sampled =
        runSampledCampaign(workloads, configs, options);
    const auto t2 = clock::now();

    ValidationReport report;
    report.fullSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    report.sampledSeconds =
        std::chrono::duration<double>(t2 - t1).count();
    report.fullStats = full_results.stats();
    report.sampledStats = sampled.stats;

    std::size_t cursor = 0;
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        for (std::size_t ci = 0; ci < configs.size(); ++ci) {
            const SampledRun &run = sampled.runs[cursor];
            const SimResult &full_sim =
                full_results.at(cursor).sim;
            ++cursor;

            ValidationRow row;
            row.workload = run.workload;
            row.config = run.config;
            row.numCores = run.numCores;
            row.totalInsts = run.est.totalInsts;
            row.sampledInsts = run.est.sum.retired;
            row.fullIpc = full_sim.ipc();
            row.sampledIpc = run.est.ipc;
            row.ipcCi95 = run.est.ipcCi95;
            row.errorPct =
                row.fullIpc > 0.0
                    ? (row.sampledIpc - row.fullIpc) / row.fullIpc *
                          100.0
                    : 0.0;
            report.maxAbsErrorPct = std::max(
                report.maxAbsErrorPct, std::fabs(row.errorPct));
            if (run.numCores > 1) {
                const unsigned slots = std::min<unsigned>(
                    run.numCores, NumCoreStatSlots);
                for (unsigned s = 0; s < slots; ++s) {
                    const double full_core = full_sim.coreIpc(s);
                    const double err =
                        full_core > 0.0
                            ? (run.est.coreIpcEst[s] - full_core) /
                                  full_core * 100.0
                            : 0.0;
                    row.coreErrPct.push_back(err);
                    report.maxAbsErrorPct = std::max(
                        report.maxAbsErrorPct, std::fabs(err));
                }
            }
            report.rows.push_back(std::move(row));
        }
    }
    return report;
}

std::string
renderSampled(const SampledCampaign &campaign,
              sweep::ReportFormat format)
{
    // Per-core columns appear only when some run is multi-core, and
    // then uniformly on every record: renderCsv requires a rectangular
    // field set, so single-core rows pad the extra slots with zero.
    unsigned core_slots = 0;
    for (const SampledRun &run : campaign.runs) {
        if (run.numCores > 1)
            core_slots = std::max(
                core_slots, std::min<unsigned>(run.numCores,
                                               NumCoreStatSlots));
    }

    std::vector<ReportRecord> records;
    records.reserve(campaign.runs.size());
    for (const SampledRun &run : campaign.runs) {
        ReportRecord rec;
        addField(rec, "workload", run.workload->name);
        addField(rec, "suite", run.workload->suite);
        addField(rec, "config", run.config);
        if (core_slots > 0)
            addField(rec, "cores", std::uint64_t{run.numCores});
        addField(rec, "total_insts", run.est.totalInsts);
        addField(rec, "intervals",
                 std::uint64_t{run.est.intervals});
        addField(rec, "measured_intervals",
                 std::uint64_t{run.est.measuredIntervals});
        addField(rec, "sampled_insts", run.est.sum.retired);
        addField(rec, "ipc_est", run.est.ipc, 4);
        addField(rec, "ipc_ci95", run.est.ipcCi95, 4);
        for (unsigned s = 0; s < core_slots; ++s) {
            addField(rec, strprintf("ipc_est_c%u", s),
                     run.numCores > 1 ? run.est.coreIpcEst[s] : 0.0,
                     4);
        }
        addField(rec, "est_cycles", run.est.estCycles);
        addField(rec, "elim_total_pct",
                 run.est.sum.elimFraction() * 100, 2);
        records.push_back(std::move(rec));
    }
    return sweep::renderRecords(records, format);
}

std::string
renderValidation(const ValidationReport &report,
                 sweep::ReportFormat format)
{
    // Same rectangular-field rule as renderSampled: per-core error
    // columns appear only when some row is multi-core, padded with
    // zero on single-core rows.
    std::size_t core_slots = 0;
    for (const ValidationRow &row : report.rows)
        core_slots = std::max(core_slots, row.coreErrPct.size());

    std::vector<ReportRecord> records;
    records.reserve(report.rows.size());
    for (const ValidationRow &row : report.rows) {
        ReportRecord rec;
        addField(rec, "workload", row.workload->name);
        addField(rec, "suite", row.workload->suite);
        addField(rec, "config", row.config);
        if (core_slots > 0)
            addField(rec, "cores", std::uint64_t{row.numCores});
        addField(rec, "total_insts", row.totalInsts);
        addField(rec, "sampled_insts", row.sampledInsts);
        addField(rec, "ipc_full", row.fullIpc, 4);
        addField(rec, "ipc_sampled", row.sampledIpc, 4);
        addField(rec, "ipc_err_pct", row.errorPct, 2);
        for (std::size_t s = 0; s < core_slots; ++s) {
            addField(rec, strprintf("ipc_err_c%zu", s),
                     s < row.coreErrPct.size() ? row.coreErrPct[s]
                                               : 0.0,
                     2);
        }
        addField(rec, "ipc_ci95", row.ipcCi95, 4);
        records.push_back(std::move(rec));
    }
    return sweep::renderRecords(records, format);
}

} // namespace reno::sample
