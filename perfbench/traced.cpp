/**
 * @file
 * The traced run: per-layer numbers for one workload, measured from
 * outside the simulator by timing calls into each module's public
 * functions.
 *
 *  1. The workload's campaign, untraced, at one worker (the time the
 *     spans must explain, the sweep job-latency histogram and the
 *     simulated counts) and again at two workers (parallel
 *     efficiency).
 *  2. A traced re-enactment of the same campaign through the layer
 *     entry points, with a span around every call: runWorkload per
 *     job (detail-*), or runFunctional, warmStep, CheckpointStore::
 *     store and one interval Campaign::run per program (sampled-
 *     long). Its results must equal the campaign's; its wall time
 *     against the untraced one is the tracing overhead, and the
 *     spans' self time against it is the coverage.
 *  3. Probes over the workload's programs: the assembler, the
 *     emulator's run() and step(), functional warming, checkpoint
 *     encode/decode, detailed intervals, the detailed core and the
 *     System where the campaign has no such runs, and replays of the
 *     dynamic stream through the renamer, the memory hierarchy and
 *     the branch predictor.
 */
#include <algorithm>
#include <deque>
#include <fstream>

#include "bench.hpp"
#include "bpred/predictor.hpp"
#include "common/log.hpp"
#include "emu/emulator.hpp"
#include "mem/hierarchy.hpp"
#include "obs/metrics.hpp"
#include "reno/renamer.hpp"
#include "sample/checkpoint.hpp"
#include "sample/warmup.hpp"
#include "sweep/campaign.hpp"
#include "sys/system.hpp"
#include "uarch/core.hpp"

namespace renobench
{

using namespace reno;

namespace
{

/** Instructions per program replayed through step() and the
 *  renamer / memory / predictor replays. */
constexpr std::uint64_t StepProbeInsts = 1'000'000;
/** Instructions per program functionally warmed. */
constexpr std::uint64_t WarmProbeInsts = 2'000'000;
/** Checkpoints (and detailed intervals) per program. */
constexpr unsigned CkptsPerProgram = 4;
/** Instructions per program of the Core / System probes. */
constexpr std::uint64_t DetailProbeInsts = 200'000;
/** Dynamic records replayed per chunk. */
constexpr std::size_t ReplayChunk = 1 << 16;
/** Assembler repetitions; asm.assemble_s is their median. */
constexpr int AssembleReps = 5;

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** In-memory span recorder; written out as a Chrome trace. */
class Spans
{
  public:
    Spans() : t0_(Clock::now()) {}

    void
    open(const std::string &name)
    {
        const int parent = stack_.empty() ? -1 : stack_.back();
        stack_.push_back(static_cast<int>(spans_.size()));
        spans_.push_back({name, parent, now(), 0.0});
    }

    void
    close()
    {
        spans_[stack_.back()].end = now();
        stack_.pop_back();
    }

    /** Sum of self times (duration minus children) of every span
     *  below the roots, in seconds. */
    double
    nonRootSelfSeconds() const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                child[s.parent] += s.end - s.start;
        }
        double total = 0.0;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            if (spans_[i].parent >= 0)
                total += spans_[i].end - spans_[i].start - child[i];
        }
        return total;
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"traceEvents\": [";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
                << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                << "\"ts\": " << s.start * 1e6
                << ", \"dur\": " << (s.end - s.start) * 1e6
                << ", \"args\": {\"parent\": " << s.parent << "}}";
        }
        out << "\n]}\n";
    }

  private:
    struct Span {
        std::string name;
        int parent;
        double start;
        double end;
    };

    double now() const { return secondsSince(t0_); }

    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span. */
class Scoped
{
  public:
    Scoped(Spans &spans, const std::string &name) : spans_(spans)
    {
        spans_.open(name);
    }
    ~Scoped() { spans_.close(); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    Spans &spans_;
};

/** Host time and work of one layer. */
struct Busy {
    double seconds = 0.0;
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    std::uint64_t ops = 0;
};

template <typename F>
void
timed(Busy &busy, F &&f)
{
    const Clock::time_point t0 = Clock::now();
    f();
    busy.seconds += secondsSince(t0);
}

Emulator::Options
emuOptions(const Workload &w)
{
    Emulator::Options opts;
    opts.randSeed = w.seed;
    return opts;
}

/** Per-job overhead of a Campaign::run that took @p wall seconds,
 *  from the sweep job-latency histogram it recorded (the registry is
 *  reset before the run). */
struct SweepStats {
    double overheadSeconds = 0.0;  //!< wall minus the jobs' own time
    double p50Ms = 0.0;
    double p90Ms = 0.0;
};

SweepStats
sweepStats(double wall)
{
    obs::Histogram &lat =
        obs::MetricsRegistry::instance().histogram(
            "sweep.job.latency_ms");
    SweepStats s;
    s.overheadSeconds =
        wall - lat.mean() * static_cast<double>(lat.count()) / 1e3;
    s.p50Ms = lat.percentile(50.0);
    s.p90Ms = lat.percentile(90.0);
    return s;
}

/** Re-enact a detailed campaign one runWorkload call per job. */
Iteration
reenactDetailed(const Inputs &in, Spans &spans, Busy *core, Busy *sys)
{
    Iteration it;
    Fnv64 h;
    for (const Workload &w : in.programs) {
        for (const NamedConfig &cfg : in.configs) {
            Scoped span(spans, "job:" + w.name + "/" + cfg.name);
            Busy &layer = cfg.params.sys.numCores > 1 ? *sys : *core;
            RunOutput run;
            timed(layer, [&] { run = runWorkload(w, cfg.params); });
            layer.insts += run.sim.retired;
            layer.cycles += run.sim.cycles;
            it.insts += run.sim.retired;
            it.sims.push_back(run.sim);
            digestResult(h, run.sim);
        }
    }
    it.digest = h.value();
    return it;
}

/**
 * Re-enact a sampled campaign the way runSampledCampaign executes
 * it: profile, plan and capture per program, then one interval
 * campaign, then the stratified aggregation.
 */
Iteration
reenactSampled(const Inputs &in, Spans &spans, SweepStats *sweep)
{
    struct Prep {
        std::uint64_t total = 0;
        std::vector<sample::PlannedInterval> plan;
    };
    std::vector<Prep> preps(in.programs.size());
    sample::CheckpointStore store;
    // BASE and RENO share mem/bpred parameters: one capture serves
    // both, as in the sampler's warm groups.
    const CoreParams &rep = in.configs.front().params;
    sweep::Campaign campaign;
    for (std::size_t p = 0; p < in.programs.size(); ++p) {
        const Workload &w = in.programs[p];
        Scoped program(spans, "program:" + w.name);
        {
            Scoped s(spans, "profile");
            preps[p].total = runFunctional(w).emuInsts;
        }
        preps[p].plan = sample::planIntervals(preps[p].total,
                                              samplePlan());
        std::vector<sample::SampleCheckpoint> ckpts;
        {
            Scoped s(spans, "capture");
            Emulator emu(assembleWorkload(w), emuOptions(w));
            sample::WarmState warm(rep.mem, rep.bpred);
            for (const sample::PlannedInterval &iv : preps[p].plan) {
                {
                    Scoped ws(spans, "warm");
                    sample::warmStep(emu, warm, iv.window.startInst);
                }
                Scoped cs(spans, "ckpt.store");
                ckpts.push_back(store.store(w, iv.window.startInst,
                                            emu.checkpoint(), warm));
            }
        }
        for (const NamedConfig &cfg : in.configs) {
            for (std::size_t i = 0; i < preps[p].plan.size(); ++i) {
                sweep::Job job;
                job.workload = &w;
                job.config = cfg;
                job.tag = strprintf("ivl%zu", i);
                job.window = preps[p].plan[i].window;
                job.checkpoint = ckpts[i];
                campaign.add(std::move(job));
            }
        }
    }

    sweep::CampaignResults results;
    {
        Scoped s(spans, "intervals");
        obs::MetricsRegistry::instance().reset();
        sweep::CampaignOptions options;
        options.jobs = 1;
        const Clock::time_point t0 = Clock::now();
        results = campaign.run(options);
        *sweep = sweepStats(secondsSince(t0));
    }

    Iteration it;
    Fnv64 h;
    std::size_t cursor = 0;
    for (const Prep &prep : preps) {
        for (std::size_t c = 0; c < in.configs.size(); ++c) {
            std::vector<SimResult> windows;
            for (std::size_t i = 0; i < prep.plan.size(); ++i)
                windows.push_back(results.at(cursor++).sim);
            sample::SampledEstimate est = sample::aggregateIntervals(
                prep.total, prep.plan, windows);
            it.insts += est.totalInsts;
            it.sims.push_back(est.sum);
            h.update(estimateDigest(est));
            it.estimates.push_back(std::move(est));
        }
    }
    it.digest = h.value();
    return it;
}

/** Replay @p recs through the renamer in groups of the machine's
 *  rename width, retiring the oldest rename once a ROB's worth are in
 *  flight or the register pool runs dry. */
void
replayRenamer(RenoRenamer &ren, const std::vector<ExecRecord> &recs,
              const CoreParams &params, std::deque<RenameOut> &window,
              Busy &busy)
{
    const std::size_t rob = params.robEntries;
    timed(busy, [&] {
        unsigned in_group = 0;
        for (const ExecRecord &rec : recs) {
            if (in_group++ == params.renameWidth) {
                ren.beginGroup();
                in_group = 1;
            }
            while (window.size() >= rob ||
                   (rec.inst.hasDest() && !ren.ensureFreePreg() &&
                    !window.empty())) {
                ren.retire(window.front());
                window.pop_front();
            }
            RenameOut out = ren.rename(RenameIn{rec.inst, rec.result});
            // The pipeline flushes a misintegrated load at retirement
            // and renames it again; it is the youngest here, so a
            // rollback and rename is the same repair.
            for (int tries = 0; out.misintegrated && tries < 4;
                 ++tries) {
                ren.rollback(rec.inst, out);
                out = ren.rename(RenameIn{rec.inst, rec.result});
            }
            window.push_back(out);
        }
    });
    busy.ops += recs.size();
}

/** Replay the fetch and data address streams of @p recs. */
void
replayMemory(MemHierarchy &mem, const std::vector<ExecRecord> &recs,
             unsigned block_bytes, Addr &last_block, Cycle &now,
             Busy &busy)
{
    std::uint64_t accesses = 0;
    timed(busy, [&] {
        for (const ExecRecord &rec : recs) {
            const Addr block = rec.pc / block_bytes;
            if (block != last_block) {
                mem.fetchAccess(rec.pc, now);
                last_block = block;
                ++accesses;
            }
            if (isMemOp(rec.inst.op)) {
                mem.dataAccess(rec.effAddr, now,
                               isStore(rec.inst.op));
                ++accesses;
            }
            ++now;
        }
    });
    busy.ops += accesses;
}

/** Replay the branch stream of @p recs: predict, then update. */
void
replayBranches(BranchPredictor &bp, const std::vector<ExecRecord> &recs,
               Busy &busy)
{
    std::uint64_t branches = 0;
    timed(busy, [&] {
        for (const ExecRecord &rec : recs) {
            if (!isControl(rec.inst.op))
                continue;
            bp.predict(rec.pc, rec.inst);
            bp.update(rec.pc, rec.inst, rec.taken, rec.npc);
            ++branches;
        }
    });
    busy.ops += branches;
}

/** Aggregated simulated counts over a campaign's results. */
void
addSimulatedCounts(Metrics &m, const Inputs &in, const Iteration &it)
{
    SimResult all, reno;
    for (std::size_t j = 0; j < it.sims.size(); ++j) {
        sample::accumulateResult(all, it.sims[j]);
        if (in.configs[j % in.configs.size()].params.reno.any())
            sample::accumulateResult(reno, it.sims[j]);
    }
    const auto elim = [](const SimResult &r, ElimKind k) {
        return double(r.elim[static_cast<unsigned>(k)]);
    };
    // Per-core IPC: a multi-core System's cycles count once per core.
    std::uint64_t core_retired = 0, core_cycles = 0;
    for (unsigned slot = 0; slot < NumCoreStatSlots; ++slot) {
        core_retired += all.coreRetired[slot];
        core_cycles += all.coreCycles[slot];
    }
    m.add("core.ipc", ratio(double(core_retired), double(core_cycles)),
          "inst/cycle");
    m.add("reno.elim_pct",
          100.0 * ratio(double(reno.eliminatedTotal()),
                        double(reno.retired)), "%");
    m.add("reno.it_hit_rate",
          ratio(elim(reno, ElimKind::Cse) + elim(reno, ElimKind::Ra),
                double(reno.itAccesses)), "ratio");
    m.add("mem.l1d_miss_rate",
          ratio(double(all.dcacheMisses),
                double(all.memHits[1] + all.dcacheMisses)), "ratio");
    m.add("mem.l2_miss_rate",
          ratio(double(all.l2Misses),
                double(all.memHits[2] + all.l2Misses)), "ratio");
    m.add("bpred.mpki",
          1000.0 * ratio(double(all.bpMispredicts), double(all.retired)),
          "1/kinst");
    m.add("coherence.invalidations_per_kinst",
          1000.0 * ratio(double(all.cohInvalidations),
                         double(all.retired)), "1/kinst");
}

} // namespace

TracedOutput
runTraced(const Inputs &in, const Reference &ref,
          const std::string &trace_out)
{
    TracedOutput out;
    Metrics &m = out.metrics;
    const bool sampled = in.kind == Kind::SampledLong;
    bool has_multi = false;
    for (const NamedConfig &cfg : in.configs)
        has_multi |= cfg.params.sys.numCores > 1;

    // 1. The campaign, untraced, at one and at two workers.
    obs::MetricsRegistry::instance().reset();
    const Iteration base = runIteration(in, 1);
    SweepStats sweep = sweepStats(base.wallSeconds);
    const Iteration two = runIteration(in, 2);
    for (const Iteration *it : {&base, &two}) {
        out.attempted += in.numJobs();
        out.failed += countFailures(in, *it, ref);
    }
    out.digest = base.digest;

    // 2. The traced re-enactment.
    Spans spans;
    Busy core, sys;
    Iteration traced;
    SweepStats sampled_sweep;
    const Clock::time_point t_traced = Clock::now();
    {
        Scoped root(spans, std::string("campaign:") + kindName(in.kind));
        traced = sampled ? reenactSampled(in, spans, &sampled_sweep)
                         : reenactDetailed(in, spans, &core, &sys);
    }
    const double traced_s = secondsSince(t_traced);
    out.attempted += in.numJobs();
    out.failed += countFailures(in, traced, ref);
    if (sampled) {
        // The interval campaign inside the re-enactment is the one
        // whose per-job overhead a sampled run pays.
        sweep = sampled_sweep;
    }
    if (!trace_out.empty())
        spans.write(trace_out);

    // 3. Probes over the workload's programs.
    NamedConfig probe;
    if (!configByName("RENO", CoreParams::fourWide(), &probe))
        fatal("RENO configuration missing");
    const CoreParams &pp = probe.params;

    std::vector<double> assemble_reps;
    for (int r = 0; r < AssembleReps; ++r)
        assemble_reps.push_back(assembleAll(in.programs));

    Busy emu_run, emu_step, warm, enc, dec, interval, ren, mem, bp;
    std::uint64_t block_lookups = 0, block_hits = 0, ckpt_bytes = 0;
    for (const Workload &w : in.programs) {
        const Program &prog = assembleWorkload(w);

        Emulator full(prog, emuOptions(w));
        timed(emu_run, [&] { emu_run.insts += full.run(); });
        block_lookups += full.blockStats().lookups;
        block_hits += full.blockStats().hits;
        const std::uint64_t total = full.instCount();

        // step() into chunks, each replayed through the renamer, the
        // memory hierarchy and the branch predictor.
        Emulator stepper(prog, emuOptions(w));
        RenoRenamer renamer(pp.reno, pp.numPregs);
        renamer.initialize(stepper.state().regs);
        std::deque<RenameOut> window;
        MemHierarchy hier(pp.mem);
        Addr last_block = ~Addr{0};
        Cycle now = 0;
        BranchPredictor predictor(pp.bpred);
        std::vector<ExecRecord> recs;
        recs.reserve(ReplayChunk);
        while (!stepper.done() && stepper.instCount() < StepProbeInsts) {
            recs.clear();
            timed(emu_step, [&] {
                while (recs.size() < ReplayChunk && !stepper.done() &&
                       stepper.instCount() < StepProbeInsts)
                    recs.push_back(stepper.step());
            });
            emu_step.insts += recs.size();
            replayRenamer(renamer, recs, pp, window, ren);
            replayMemory(hier, recs, pp.mem.icache.blockBytes,
                         last_block, now, mem);
            replayBranches(predictor, recs, bp);
        }

        // Functional warming with checkpoints at evenly spaced
        // positions: encode, decode, and a detailed interval there.
        const std::uint64_t limit = std::min(total, WarmProbeInsts);
        Emulator emu(prog, emuOptions(w));
        sample::WarmState ws(pp.mem, pp.bpred);
        sample::CheckpointStore store;
        for (unsigned k = 1; k <= CkptsPerProgram; ++k) {
            const std::uint64_t pos = limit * k / (CkptsPerProgram + 1);
            const std::uint64_t before = emu.instCount();
            timed(warm, [&] { sample::warmStep(emu, ws, pos); });
            warm.insts += emu.instCount() - before;
            const sample::SampleCheckpoint ckpt =
                store.store(w, pos, emu.checkpoint(), ws);
            std::string text;
            timed(enc, [&] {
                text = sample::CheckpointStore::encode(ckpt);
            });
            ckpt_bytes += text.size();
            sample::SampleCheckpoint back;
            bool ok = false;
            timed(dec, [&] {
                ok = sample::CheckpointStore::decode(text, pp.mem,
                                                     pp.bpred, &back);
            });
            ++out.attempted;
            if (!ok || sample::CheckpointStore::encode(back) != text)
                ++out.failed;

            sample::IntervalWindow win;
            win.startInst = pos;
            win.warmupInsts = samplePlan().warmupInsts;
            win.measureInsts = samplePlan().measureInsts;
            SimResult r;
            timed(interval, [&] {
                r = sample::runIntervalDetailed(w, pp, win, &ckpt);
            });
            interval.insts += win.warmupInsts + r.retired;
        }

        // The detailed core and the System, where the campaign itself
        // has no such runs.
        if (sampled || has_multi) {
            Emulator e(prog, emuOptions(w));
            Core c(pp, e);
            SimResult r;
            timed(core, [&] { r = c.runUntilRetired(DetailProbeInsts); });
            core.insts += r.retired;
            core.cycles += r.cycles;
        }
        if (!has_multi) {
            Emulator e(prog, emuOptions(w));
            System s(pp, {&e});
            SimResult r;
            timed(sys, [&] { r = s.runUntilRetired(DetailProbeInsts); });
            sys.insts += r.retired;
            sys.cycles += r.cycles;
        }
    }

    m.add("asm.assemble_s", median(assemble_reps), "s");
    m.add("emu.run_minstr_per_s",
          ratio(double(emu_run.insts), emu_run.seconds) / 1e6,
          "Minstr/s");
    m.add("emu.block_hit_rate",
          ratio(double(block_hits), double(block_lookups)), "ratio");
    m.add("emu.step_minstr_per_s",
          ratio(double(emu_step.insts), emu_step.seconds) / 1e6,
          "Minstr/s");
    m.add("warm.minstr_per_s", ratio(double(warm.insts), warm.seconds) /
                                   1e6, "Minstr/s");
    m.add("warm.busy_s", warm.seconds, "s");
    m.add("ckpt.encode_s", enc.seconds, "s");
    m.add("ckpt.decode_s", dec.seconds, "s");
    m.add("ckpt.mb", double(ckpt_bytes) / 1e6, "MB");
    m.add("interval.minstr_per_s",
          ratio(double(interval.insts), interval.seconds) / 1e6,
          "Minstr/s");
    m.add("interval.busy_s", interval.seconds, "s");
    m.add("core.minstr_per_s", ratio(double(core.insts), core.seconds) /
                                   1e6, "Minstr/s");
    m.add("core.host_ns_per_cycle",
          1e9 * ratio(core.seconds, double(core.cycles)), "ns");
    m.add("sys.minstr_per_s", ratio(double(sys.insts), sys.seconds) /
                                  1e6, "Minstr/s");
    m.add("sys.host_ns_per_cycle",
          1e9 * ratio(sys.seconds, double(sys.cycles)), "ns");
    m.add("reno.rename_ns_per_inst",
          1e9 * ratio(ren.seconds, double(ren.ops)), "ns");
    m.add("mem.access_ns", 1e9 * ratio(mem.seconds, double(mem.ops)),
          "ns");
    m.add("bpred.ns_per_branch", 1e9 * ratio(bp.seconds, double(bp.ops)),
          "ns");
    m.add("sweep.overhead_s", sweep.overheadSeconds, "s");
    m.add("sweep.job_ms_p50", sweep.p50Ms, "ms");
    m.add("sweep.job_ms_p90", sweep.p90Ms, "ms");
    m.add("sweep.parallel_efficiency",
          ratio(base.wallSeconds, 2.0 * two.wallSeconds), "ratio");
    addSimulatedCounts(m, in, base);
    m.add("trace.overhead_pct",
          100.0 * ratio(traced_s - base.wallSeconds, base.wallSeconds),
          "%");
    m.add("trace.coverage_pct",
          100.0 * ratio(spans.nonRootSelfSeconds(), base.wallSeconds),
          "%");
    return out;
}

} // namespace renobench
