#include "harness/experiment.hpp"

#include <map>
#include <memory>
#include <mutex>
#include <string_view>

#include <algorithm>

#include "asm/assembler.hpp"
#include "common/log.hpp"
#include "emu/emulator.hpp"
#include "obs/phase.hpp"
#include "sys/system.hpp"

namespace reno
{

namespace
{

/** Merge per-core hotspot tables by pc, re-rank, keep the top N. */
std::vector<obs::HotspotProfile::Entry>
mergeHot(const std::vector<std::vector<obs::HotspotProfile::Entry>>
             &per_core,
         std::size_t n, bool by_stall)
{
    std::vector<obs::HotspotProfile::Entry> merged;
    for (const auto &entries : per_core) {
        for (const obs::HotspotProfile::Entry &e : entries) {
            auto it = std::find_if(
                merged.begin(), merged.end(),
                [&](const auto &m) { return m.pc == e.pc; });
            if (it == merged.end()) {
                merged.push_back(e);
            } else {
                it->retired += e.retired;
                it->stallCycles += e.stallCycles;
            }
        }
    }
    std::sort(merged.begin(), merged.end(),
              [by_stall](const auto &a, const auto &b) {
                  const std::uint64_t ka =
                      by_stall ? a.stallCycles : a.retired;
                  const std::uint64_t kb =
                      by_stall ? b.stallCycles : b.retired;
                  if (ka != kb)
                      return ka > kb;
                  return a.pc < b.pc;
              });
    if (merged.size() > n)
        merged.resize(n);
    return merged;
}

/** Fold finished cores' functional results into @p out: outputs
 *  concatenate in core order, instruction counts add, and the memory
 *  digests fold into one order-dependent FNV-style hash (one core
 *  reports its digest raw). */
void
foldFunctional(const EmulatorSet &emus, RunOutput &out)
{
    std::uint64_t digest = 1469598103934665603ULL;
    for (const Emulator *emu : emus.cores) {
        out.output += emu->output();
        digest = (digest ^ emu->memory().digest()) * 1099511628211ULL;
    }
    out.emuInsts = emus.instCount();
    out.memDigest = emus.cores.size() == 1
                        ? emus.cores[0]->memory().digest()
                        : digest;
}

} // namespace

CoreParams
machineOfWidth(const std::string &width)
{
    if (width != "4" && width != "6")
        fatal("--width expects 4 or 6, got '%s'", width.c_str());
    return width == "6" ? CoreParams::sixWide() : CoreParams::fourWide();
}

CoreParams
withReno(CoreParams params, const RenoConfig &reno)
{
    params.reno = reno;
    return params;
}

std::vector<NamedConfig>
renoBuildup(const CoreParams &base)
{
    return {
        {"BASE", withReno(base, RenoConfig::baseline())},
        {"ME", withReno(base, RenoConfig::meOnly())},
        {"ME+CF", withReno(base, RenoConfig::meCf())},
        {"RENO", withReno(base, RenoConfig::full())},
    };
}

std::vector<NamedConfig>
divisionOfLabor(const CoreParams &base)
{
    return {
        {"RENO", withReno(base, RenoConfig::full())},
        {"RENO+FullInteg", withReno(base, RenoConfig::fullIt())},
        {"FullInteg", withReno(base, RenoConfig::integrationOnly())},
        {"LoadsInteg", withReno(base, RenoConfig::loadsIntegrationOnly())},
    };
}

std::vector<std::string>
memVariantNames()
{
    return {"l3", "pf-next", "pf-stride", "wb"};
}

bool
applyMemVariant(const std::string &token, CoreParams *params)
{
    if (token == "l3") {
        CacheParams l3;
        l3.name = "l3";
        l3.sizeBytes = 2 * 1024 * 1024;
        l3.assoc = 8;
        l3.blockBytes = 64;
        l3.latency = 25;
        l3.numMshrs = 32;
        params->mem.extraLevels = {l3};
        return true;
    }
    if (token == "pf-next" || token == "pf-stride") {
        const PrefetchKind kind = token == "pf-next"
                                      ? PrefetchKind::NextLine
                                      : PrefetchKind::Stride;
        params->mem.dcache.prefetch.kind = kind;
        params->mem.dcache.prefetch.degree = 2;
        params->mem.l2.prefetch.kind = kind;
        params->mem.l2.prefetch.degree = 4;
        return true;
    }
    if (token == "wb") {
        params->mem.modelWritebacks = true;
        return true;
    }
    return false;
}

std::vector<std::string>
bpredVariantNames()
{
    return {"bimodal", "gshare",  "tournament", "tage",
            "perceptron", "ras<N>", "btb<N>",   "itt"};
}

namespace
{

/** Parse the numeric tail of "ras16"/"btb512"-style tokens. */
bool
numericSuffix(const std::string &token, const char *prefix,
              unsigned *value)
{
    const std::size_t len = std::string_view(prefix).size();
    if (token.rfind(prefix, 0) != 0 || token.size() == len)
        return false;
    unsigned v = 0;
    for (std::size_t i = len; i < token.size(); ++i) {
        if (token[i] < '0' || token[i] > '9')
            return false;
        const unsigned digit = static_cast<unsigned>(token[i] - '0');
        if (v > (~0u - digit) / 10)
            return false;  // would overflow: reject, don't wrap
        v = v * 10 + digit;
    }
    *value = v;
    return true;
}

} // namespace

bool
applyBpredVariant(const std::string &token, CoreParams *params)
{
    if (token == "bimodal") {
        params->bpred.dir.kind = DirPredKind::Bimodal;
        return true;
    }
    if (token == "gshare") {
        params->bpred.dir.kind = DirPredKind::GShare;
        return true;
    }
    if (token == "tournament") {
        params->bpred.dir.kind = DirPredKind::Tournament;
        return true;
    }
    if (token == "tage") {
        params->bpred.dir.kind = DirPredKind::Tage;
        return true;
    }
    if (token == "perceptron") {
        params->bpred.dir.kind = DirPredKind::Perceptron;
        return true;
    }
    // Reject geometry the predictor constructors would fatal() on,
    // so a bad token reads as "unknown variant" up front instead of
    // aborting mid-campaign.
    if (unsigned n = 0; numericSuffix(token, "ras", &n)) {
        if (n == 0 || n > MaxBpredEntries)
            return false;
        params->bpred.ras.entries = n;
        return true;
    }
    if (unsigned n = 0; numericSuffix(token, "btb", &n)) {
        if (n == 0 || (n & (n - 1)) != 0 || n > MaxBpredEntries)
            return false;
        params->bpred.btb.entries = n;
        if (params->bpred.btb.assoc > n)
            params->bpred.btb.assoc = n;
        return true;
    }
    if (token == "itt") {
        params->bpred.indirect.enabled = true;
        return true;
    }
    return false;
}

std::vector<std::string>
sysVariantNames()
{
    return {"<N>c"};
}

bool
applySysVariant(const std::string &token, CoreParams *params)
{
    // "<N>c": N cores sharing the lower hierarchy. Mirror the bpred
    // idiom: geometry the System constructor would fatal() on ("0c",
    // more than MaxCores) reads as "unknown variant" up front.
    if (token.size() < 2 || token.back() != 'c')
        return false;
    unsigned n = 0;
    if (!numericSuffix(token.substr(0, token.size() - 1), "", &n))
        return false;
    if (n == 0 || n > SysParams::MaxCores)
        return false;
    params->sys.numCores = n;
    return true;
}

bool
configByName(const std::string &name, const CoreParams &base,
             NamedConfig *out)
{
    // Split off '/'-separated memory-system variant suffixes; the
    // leading token is a RENO preset.
    const std::size_t slash = name.find('/');
    const std::string preset = name.substr(0, slash);

    NamedConfig found;
    bool ok = false;
    for (const NamedConfig &cfg : renoBuildup(base)) {
        if (cfg.name == preset) {
            found = cfg;
            ok = true;
        }
    }
    for (const NamedConfig &cfg : divisionOfLabor(base)) {
        if (cfg.name == preset) {
            found = cfg;
            ok = true;
        }
    }
    if (!ok)
        return false;

    std::size_t pos = slash;
    while (pos != std::string::npos) {
        const std::size_t next = name.find('/', pos + 1);
        const std::string token =
            name.substr(pos + 1, next == std::string::npos
                                     ? std::string::npos
                                     : next - pos - 1);
        if (!applyMemVariant(token, &found.params) &&
            !applyBpredVariant(token, &found.params) &&
            !applySysVariant(token, &found.params))
            return false;
        pos = next;
    }
    found.name = name;
    *out = found;
    return true;
}

std::vector<NamedConfig>
configsByName(const std::vector<std::string> &names,
              const CoreParams &base, unsigned cores)
{
    std::vector<NamedConfig> configs;
    for (const std::string &name : names) {
        NamedConfig cfg;
        if (!configByName(name, base, &cfg)) {
            std::string known;
            for (const std::string &k : knownConfigNames())
                known += " " + k;
            fatal("unknown config '%s' (known:%s)", name.c_str(),
                  known.c_str());
        }
        configs.push_back(cfg);
    }
    if (cores <= 1)
        return configs;
    for (NamedConfig &cfg : configs) {
        if (cfg.params.sys.numCores > 1)
            fatal("--cores conflicts with config '%s' (already runs "
                  "%u cores)",
                  cfg.name.c_str(), cfg.params.sys.numCores);
        cfg.params.sys.numCores = cores;
        cfg.name += strprintf("/%uc", cores);
    }
    return configs;
}

std::vector<const Workload *>
selectWorkloads(const std::string &suite,
                const std::vector<std::string> &names,
                const std::string &glob, const std::string &filter)
{
    std::vector<const Workload *> workloads;
    if (!glob.empty()) {
        if (!names.empty())
            fatal("--workloads and --workload are exclusive");
        workloads = workloadsMatching(glob, suite);
    } else if (!names.empty()) {
        for (const std::string &name : names)
            workloads.push_back(&workloadByName(name));
    } else if (suite == "all") {
        for (const Workload &w : allWorkloads())
            workloads.push_back(&w);
    } else {
        workloads = suiteWorkloads(suite);
    }
    if (!filter.empty())
        std::erase_if(workloads, [&](const Workload *w) {
            return w->name.find(filter) == std::string::npos;
        });
    if (workloads.empty())
        fatal("no workloads selected");
    return workloads;
}

std::vector<std::string>
knownConfigNames()
{
    std::vector<std::string> names;
    for (const NamedConfig &cfg : renoBuildup(CoreParams{}))
        names.push_back(cfg.name);
    for (const NamedConfig &cfg : divisionOfLabor(CoreParams{})) {
        if (cfg.name != "RENO")
            names.push_back(cfg.name);
    }
    return names;
}

std::vector<std::pair<std::string, std::vector<const Workload *>>>
benchmarkSuites()
{
    return {
        {"SPECint-like", suiteWorkloads("spec")},
        {"MediaBench-like", suiteWorkloads("media")},
    };
}

std::string
renderConfigList()
{
    std::string out = "configs:\n";
    for (const std::string &name : knownConfigNames())
        out += "  " + name + "\n";
    out += "memory variants (append as /token, e.g. RENO/l3/wb):\n";
    for (const std::string &name : memVariantNames())
        out += "  /" + name + "\n";
    out += strprintf("branch-prediction variants (append as /token, "
                     "e.g. RENO/tage or BASE/perceptron/ras16; N up "
                     "to %u):\n",
                     MaxBpredEntries);
    for (const std::string &name : bpredVariantNames())
        out += "  /" + name + "\n";
    out += strprintf("multi-core variants (append as /token, e.g. "
                     "RENO/2c or RENO/4c/l3; up to %u cores):\n",
                     SysParams::MaxCores);
    for (const std::string &name : sysVariantNames())
        out += "  /" + name + "\n";
    return out;
}

std::string
renderWorkloadList()
{
    std::string out = "workloads:\n";
    for (const SuiteInfo &s : knownSuites()) {
        for (const Workload *w : suiteWorkloads(s.name))
            out += strprintf("  %-18s (%s, seed %llu)\n",
                             w->name.c_str(), w->suite.c_str(),
                             static_cast<unsigned long long>(w->seed));
    }
    return out;
}

std::string
renderSuiteList()
{
    std::string out = "suites:\n";
    std::size_t paper = 0;
    std::string paper_names;
    for (const SuiteInfo &s : knownSuites()) {
        out += strprintf("  %-6s %2zu workloads  (%s)\n",
                         s.name.c_str(), s.workloads,
                         s.paper ? "paper registry" : "generated");
        if (s.paper) {
            paper += s.workloads;
            paper_names += (paper_names.empty() ? "" : " + ") + s.name;
        }
    }
    out += strprintf("  %-6s %2zu workloads  (%s; the default)\n",
                     "all", paper, paper_names.c_str());
    return out;
}

const Program &
assembleWorkload(const Workload &workload)
{
    static std::mutex mu;
    static std::map<std::string, std::unique_ptr<const Program>,
                    std::less<>>
        cache;

    // Heterogeneous probe: no source-string copy on the hot path.
    const std::string_view source(workload.source);
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = cache.find(source);
        if (it != cache.end())
            return *it->second;
    }
    auto prog = std::make_unique<const Program>(
        assemble(std::string(source)));
    std::lock_guard<std::mutex> lock(mu);
    // try_emplace keeps the first copy if another thread raced us.
    auto [it, inserted] =
        cache.try_emplace(std::string(source), std::move(prog));
    return *it->second;
}

std::uint64_t
EmulatorSet::instCount() const
{
    std::uint64_t total = 0;
    for (const Emulator *emu : cores)
        total += emu->instCount();
    return total;
}

bool
EmulatorSet::done() const
{
    return std::all_of(cores.begin(), cores.end(),
                       [](const Emulator *emu) { return emu->done(); });
}

EmulatorSet
makeEmulators(const Workload &workload, unsigned num_cores)
{
    // SPMD: every core runs the same kernel; per-core behavior comes
    // from the core_id syscall and a per-core rand stream.
    const Program &prog = assembleWorkload(workload);
    EmulatorSet set;
    for (unsigned i = 0; i < num_cores; ++i) {
        Emulator::Options opts;
        opts.randSeed = workload.seed + i;
        opts.coreId = i;
        set.owned.push_back(std::make_unique<Emulator>(prog, opts));
        set.cores.push_back(set.owned.back().get());
    }
    return set;
}

JobObservers::JobObservers(const obs::ObservationRequest &request,
                           System &sys)
    : request_(request)
{
    // Sized once: the cores keep pointers into these vectors.
    const unsigned n = sys.numCores();
    if (request_.cpiStack)
        stacks_.resize(n);
    if (request_.hotTopN > 0)
        hot_.resize(n);
    if (request_.pipetrace)
        tracers_.resize(n);
    for (unsigned i = 0; i < n; ++i) {
        if (request_.cpiStack)
            sys.core(i).observe(&stacks_[i]);
        if (request_.hotTopN > 0)
            sys.core(i).observe(&hot_[i]);
        if (request_.pipetrace)
            sys.core(i).observe(&tracers_[i]);
    }
}

obs::Observation
JobObservers::record() const
{
    obs::Observation out;
    obs::CpiReport &r = out.cpi;
    r.valid = request_.cpiStack || request_.hotTopN > 0;
    for (const obs::CpiStackObserver &stack : stacks_) {
        r.machine.accumulate(stack.stack());
        r.perCore.push_back(stack.stack());
    }
    std::vector<std::vector<obs::HotspotProfile::Entry>> hot_ret;
    std::vector<std::vector<obs::HotspotProfile::Entry>> hot_stall;
    for (const obs::HotspotProfile &hot : hot_) {
        hot_ret.push_back(hot.topByRetired(request_.hotTopN));
        hot_stall.push_back(hot.topByStall(request_.hotTopN));
        r.hotspotDropped += hot.dropped();
    }
    r.hotRetired = mergeHot(hot_ret, request_.hotTopN, false);
    r.hotStall = mergeHot(hot_stall, request_.hotTopN, true);
    for (const PipeTracer &tracer : tracers_)
        out.pipetrace.push_back(tracer.records());
    return out;
}

RunOutput
runWorkload(const Workload &workload, const CoreParams &params,
            CriticalPathAnalyzer *cpa,
            const obs::ObservationRequest &observe)
{
    const unsigned n = params.sys.numCores;
    if (cpa && n > 1)
        fatal("critical-path analysis is single-core only "
              "(config runs %u cores)", n);
    EmulatorSet emus = makeEmulators(workload, n);
    System sys(params, emus.cores);
    JobObservers observers(observe, sys);
    if (cpa)
        sys.core(0).observe(cpa);

    RunOutput out;
    {
        obs::PhaseSpan phase("sim.detailed");
        out.sim = sys.run();
        phase.setInsts(out.sim.retired);
    }
    if (cpa)
        cpa->finish();
    out.observed = observers.record();
    foldFunctional(emus, out);
    return out;
}

RunOutput
runFunctionalMulti(const Workload &workload, unsigned num_cores)
{
    EmulatorSet emus = makeEmulators(workload, num_cores);
    RunOutput out;
    {
        obs::PhaseSpan phase("sim.functional");
        for (Emulator *emu : emus.cores)
            emu->run();
        phase.setInsts(emus.instCount());
    }
    foldFunctional(emus, out);
    return out;
}

RunOutput
runFunctional(const Workload &workload)
{
    return runFunctionalMulti(workload, 1);
}

double
speedupPercent(std::uint64_t base_cycles, std::uint64_t cycles)
{
    if (base_cycles == 0 || cycles == 0)
        return 0.0;
    return (static_cast<double>(base_cycles) /
            static_cast<double>(cycles) - 1.0) * 100.0;
}

double
amean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (const double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

} // namespace reno
