/**
 * @file
 * Experiment harness: named machine configurations matching the
 * paper's evaluation section, a one-call workload runner, and the
 * aggregation helpers the per-figure benchmark binaries share.
 */
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "asm/assembler.hpp"
#include "cpa/critpath.hpp"
#include "emu/emulator.hpp"
#include "obs/cpistack.hpp"
#include "obs/observation.hpp"
#include "obs/profiler.hpp"
#include "trace/pipetrace.hpp"
#include "uarch/core.hpp"
#include "uarch/params.hpp"
#include "workloads/workloads.hpp"

namespace reno
{

class System;

/** A machine configuration with a display name. */
struct NamedConfig {
    std::string name;
    CoreParams params;
};

/** Everything a single simulation run produces. */
struct RunOutput {
    SimResult sim;
    std::string output;           //!< program's printed output
    std::uint64_t memDigest = 0;  //!< final memory digest
    std::uint64_t emuInsts = 0;   //!< functional instruction count
    /** What the run's observation request asked for (never cached or
     *  folded into SimResult). */
    obs::Observation observed;
};

/** The --width machine: CoreParams::fourWide() for "4",
 *  sixWide() for "6"; fatal() on anything else. */
CoreParams machineOfWidth(const std::string &width);

/** Apply a RENO configuration to a core configuration. */
CoreParams withReno(CoreParams params, const RenoConfig &reno);

/**
 * The paper's cumulative RENO build-up: BASE, +ME, +ME+CF, full RENO
 * (ME+CF+CSE+RA with a loads-only IT), on top of @p base.
 */
std::vector<NamedConfig> renoBuildup(const CoreParams &base);

/** Figure 10's four division-of-labor configurations. */
std::vector<NamedConfig> divisionOfLabor(const CoreParams &base);

/**
 * Look up an evaluation configuration by name on top of @p base:
 * "BASE", "ME", "ME+CF", "RENO" (the build-up) or "RENO+FullInteg",
 * "FullInteg", "LoadsInteg" (division of labor), optionally followed
 * by '/'-separated memory-system, branch-prediction or multi-core
 * variants ("RENO/l3", "BASE/pf-stride/wb", "RENO/tage",
 * "BASE/perceptron/ras16", "RENO/2c", "RENO/4c/l3"; see
 * memVariantNames() / bpredVariantNames() / sysVariantNames()).
 * Returns false and leaves @p out untouched for an unknown name or
 * variant.
 */
bool configByName(const std::string &name, const CoreParams &base,
                  NamedConfig *out);

/**
 * Resolve @p names with configByName() on top of @p base, fatal()ing
 * on an unknown name with the list of known presets, and run every
 * config on @p cores cores: the drivers' --cores N, equivalent to a
 * "/Nc" suffix on each name (the suffix keeps multi-core rows
 * distinguishable in reports). @p cores <= 1 leaves the core counts
 * as parsed; a larger count fatal()s on a config that already runs
 * more than one core.
 */
std::vector<NamedConfig>
configsByName(const std::vector<std::string> &names,
              const CoreParams &base, unsigned cores = 1);

/**
 * The drivers' workload set: every workload matching @p glob (from
 * every suite; exclusive with @p names), else the named workloads,
 * else @p suite ("all" = the paper suites); then only the names
 * containing @p filter, when non-empty. fatal()s when nothing is
 * selected.
 */
std::vector<const Workload *>
selectWorkloads(const std::string &suite,
                const std::vector<std::string> &names,
                const std::string &glob, const std::string &filter);

/** Names accepted by configByName(), in presentation order. */
std::vector<std::string> knownConfigNames();

/**
 * Memory-system variant tokens configByName() accepts as suffixes:
 *  - "l3":        add a 2 MB 8-way 64 B 25-cycle shared L3;
 *  - "pf-next":   next-line prefetchers on the D$ and the L2;
 *  - "pf-stride": region-stride prefetchers on the D$ and the L2;
 *  - "wb":        model dirty-victim write-back bus traffic.
 */
std::vector<std::string> memVariantNames();

/** Apply one variant token to @p params; false if unknown. */
bool applyMemVariant(const std::string &token, CoreParams *params);

/**
 * Branch-prediction variant tokens configByName() accepts as
 * suffixes:
 *  - "bimodal", "gshare", "tournament", "tage", "perceptron":
 *    select the direction engine (tournament is the paper default);
 *  - "ras<N>":  an N-entry return-address stack (e.g. "ras16"),
 *    1 <= N <= MaxBpredEntries;
 *  - "btb<N>":  an N-entry BTB (associativity capped at N), N a
 *    power of two <= MaxBpredEntries;
 *  - "itt":     enable the 512-entry indirect-target table.
 */
std::vector<std::string> bpredVariantNames();

/** Ceiling of the ras<N> / btb<N> sizes: a larger N reads as an
 *  unknown variant, never as a table too large to allocate. */
inline constexpr unsigned MaxBpredEntries = 1u << 16;

/** Apply one variant token to @p params; false if unknown. */
bool applyBpredVariant(const std::string &token, CoreParams *params);

/**
 * Multi-core variant tokens configByName() accepts as suffixes:
 *  - "<N>c": run N cores (private L1s + bpred each) over the shared
 *    hierarchy under snooping MESI coherence, e.g. "2c", "4c".
 * Core counts the System constructor would fatal() on ("0c", more
 * than SysParams::MaxCores) are rejected as unknown variants.
 */
std::vector<std::string> sysVariantNames();

/** Apply one variant token to @p params; false if unknown. */
bool applySysVariant(const std::string &token, CoreParams *params);

/**
 * Suite iteration for campaign construction: (label, workloads) for
 * the paper's two benchmark suites.
 */
std::vector<std::pair<std::string, std::vector<const Workload *>>>
benchmarkSuites();

/**
 * Human-readable listings backing the drivers' --list /
 * --list-configs / --list-suites flags: every workload a selection
 * flag accepts (one "  name (suite, seed N)" line each, grouped by
 * knownSuites()), every configByName() preset and variant, and every
 * suite token suiteWorkloads() accepts with its workload count.
 */
std::string renderWorkloadList();
std::string renderConfigList();
std::string renderSuiteList();

/**
 * Assemble a workload's kernel source into a program image, memoized
 * by source text: campaigns assemble each kernel once, not once per
 * job. The returned reference has static storage duration (Emulator
 * holds a reference to its program across a run). Thread-safe.
 */
const Program &assembleWorkload(const Workload &workload);

/**
 * The SPMD emulator set every run of @p workload executes on: one
 * emulator per core, core i running the kernel with core_id i and
 * rand seed workload.seed + i. The emulators live on the heap, so the
 * core-order views stay valid when the set moves.
 */
struct EmulatorSet {
    std::vector<std::unique_ptr<Emulator>> owned;
    std::vector<Emulator *> cores;  //!< core order (System, warmStep)

    /** Aggregate executed-instruction count over the cores. */
    std::uint64_t instCount() const;
    /** True once every core's program has exited. */
    bool done() const;
};

EmulatorSet makeEmulators(const Workload &workload,
                          unsigned num_cores);

/**
 * The observers one job attaches to every core of its System, built
 * from the job's request: a CPI stack, a hotspot profile and a
 * pipeline tracer per core, each only when asked for. They see the
 * System from construction on, so building them after a warmup
 * observes only what follows it. Not copyable: the cores hold
 * pointers into it, and it must outlive the run.
 */
class JobObservers
{
  public:
    JobObservers(const obs::ObservationRequest &request, System &sys);
    JobObservers(const JobObservers &) = delete;
    JobObservers &operator=(const JobObservers &) = delete;

    /** The per-job record of what the observers saw so far. */
    obs::Observation record() const;

  private:
    obs::ObservationRequest request_;
    std::vector<obs::CpiStackObserver> stacks_;
    std::vector<obs::HotspotProfile> hot_;
    std::vector<PipeTracer> tracers_;
};

/**
 * Run @p workload SPMD on a System of params.sys.numCores cores (see
 * makeEmulators). The RunOutput concatenates per-core program outputs
 * in core order and folds the per-core memory digests into one hash
 * (the raw digest at one core), and carries what @p observe asked
 * for. @p cpa, when non-null, observes core 0; fatal()s on a
 * multi-core config, where critical-path analysis is undefined.
 */
RunOutput runWorkload(const Workload &workload, const CoreParams &params,
                      CriticalPathAnalyzer *cpa = nullptr,
                      const obs::ObservationRequest &observe = {});

/**
 * Functional-only SPMD run over @p num_cores emulator streams (the
 * same set runWorkload simulates). emuInsts is the aggregate dynamic
 * instruction count; output and memory digest fold as in
 * runWorkload.
 */
RunOutput runFunctionalMulti(const Workload &workload,
                             unsigned num_cores);

/** Run just the functional emulator (reference state / output). */
RunOutput runFunctional(const Workload &workload);

/** Percentage speedup of @p cycles against @p base_cycles. */
double speedupPercent(std::uint64_t base_cycles, std::uint64_t cycles);

/** Arithmetic mean. */
double amean(const std::vector<double> &xs);

} // namespace reno
