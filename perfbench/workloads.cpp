/**
 * @file
 * The three benchmark workloads: seeded inputs, one campaign
 * iteration, the verified full-detail reference, and the checks that
 * turn an iteration into attempted / failed operation counts.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "bench.hpp"
#include "common/digest.hpp"
#include "common/log.hpp"
#include "sweep/campaign.hpp"
#include "sweep/thread_pool.hpp"
#include "workloads/randprog.hpp"

namespace renobench
{

using namespace reno;

namespace
{

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** The @p k-th seed derived from the benchmark seed (never 0). */
std::uint64_t
derivedSeed(std::uint64_t seed, std::uint64_t k)
{
    return 1 + splitmix64(splitmix64(seed) ^ k) % 0x7fffffffULL;
}

NamedConfig
namedConfig(const char *name)
{
    NamedConfig cfg;
    if (!configByName(name, CoreParams::fourWide(), &cfg))
        fatal("unknown configuration '%s'", name);
    return cfg;
}

/** The synth suite's four program shapes, regenerated per seed. */
struct Shape {
    const char *name;
    unsigned phases;
    unsigned chase;
};
constexpr Shape LongShapes[] = {
    {"plain", 1, 0}, {"phase", 4, 0}, {"chase", 1, 12}, {"mix", 4, 8}};

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

} // namespace

bool
kindByName(const std::string &name, Kind *out)
{
    for (const Kind k :
         {Kind::DetailPaper, Kind::SampledLong, Kind::DetailMulti}) {
        if (name == kindName(k)) {
            *out = k;
            return true;
        }
    }
    return false;
}

const char *
kindName(Kind kind)
{
    switch (kind) {
      case Kind::DetailPaper:
        return "detail-paper";
      case Kind::SampledLong:
        return "sampled-long";
      case Kind::DetailMulti:
        return "detail-multi";
    }
    return "?";
}

std::uint64_t
Inputs::programDigest() const
{
    Fnv64 h;
    for (const Workload &w : programs)
        h.update(w.name).update(w.source).update(w.seed);
    return h.value();
}

std::vector<const Workload *>
Inputs::programPtrs() const
{
    std::vector<const Workload *> out;
    for (const Workload &w : programs)
        out.push_back(&w);
    return out;
}

double
assembleAll(const std::vector<Workload> &programs)
{
    const Clock::time_point t0 = Clock::now();
    std::size_t words = 0;
    for (const Workload &w : programs)
        words += assemble(w.source).text.size();
    const double seconds = secondsSince(t0);
    if (words == 0)
        fatal("assembled programs are empty");
    return seconds;
}

Inputs
makeInputs(Kind kind, std::uint64_t seed)
{
    Inputs in;
    in.kind = kind;
    // Registry kernels keep their text; only the rand-syscall input
    // seed is drawn from the benchmark seed.
    const auto reseed = [&](const std::vector<Workload> &registry,
                            std::uint64_t salt) {
        for (std::size_t i = 0; i < registry.size(); ++i) {
            Workload w = registry[i];
            w.seed = derivedSeed(seed, salt + i);
            in.programs.push_back(w);
        }
    };
    switch (kind) {
      case Kind::DetailPaper:
        reseed(allWorkloads(), 0);
        in.configs = {namedConfig("BASE"), namedConfig("RENO")};
        break;
      case Kind::SampledLong:
        for (std::size_t k = 0; k < std::size(LongShapes); ++k) {
            // The synth suite's generator settings, seeded per run.
            RandProgParams p;
            p.seed = derivedSeed(seed, 1000 + k);
            p.iters = 8000;
            p.phases = LongShapes[k].phases;
            p.phasePeriod = 32;
            p.chaseSteps = LongShapes[k].chase;
            in.generated.push_back(std::make_unique<const std::string>(
                generateRandomProgram(p)));
            in.programs.push_back(
                {std::string("long.") + LongShapes[k].name, "synth",
                 in.generated.back()->c_str(),
                 derivedSeed(seed, 2000 + k)});
        }
        reseed(memWorkloads(), 3000);
        in.configs = {namedConfig("BASE"), namedConfig("RENO")};
        break;
      case Kind::DetailMulti:
        reseed(multiWorkloads(), 4000);
        in.configs = {namedConfig("RENO/2c"), namedConfig("RENO/4c")};
        break;
    }
    assembleAll(in.programs);
    return in;
}

sample::SamplePlan
samplePlan()
{
    sample::SamplePlan plan;
    plan.intervals = 10;
    plan.warmupInsts = 2000;
    plan.measureInsts = 5000;
    plan.coldInsts = 50000;
    return plan;
}

Iteration
runIteration(const Inputs &in, unsigned jobs, bool sliced)
{
    Iteration it;
    Fnv64 h;
    const auto slice = [&](const std::vector<const Workload *> &programs,
                           const std::vector<NamedConfig> &configs) {
        const std::uint64_t before = it.insts;
        const Clock::time_point t0 = Clock::now();
        if (in.kind == Kind::SampledLong) {
            sample::SampleOptions options;
            options.plan = samplePlan();
            options.campaign.jobs = jobs;
            const sample::SampledCampaign c =
                sample::runSampledCampaign(programs, configs, options);
            it.sliceSeconds.push_back(secondsSince(t0));
            for (const sample::SampledRun &run : c.runs) {
                it.insts += run.est.totalInsts;
                it.sims.push_back(run.est.sum);
                it.estimates.push_back(run.est);
                h.update(estimateDigest(run.est));
            }
        } else {
            sweep::Campaign campaign;
            campaign.addCross(programs, configs);
            sweep::CampaignOptions options;
            options.jobs = jobs;
            const sweep::CampaignResults results = campaign.run(options);
            it.sliceSeconds.push_back(secondsSince(t0));
            for (std::size_t i = 0; i < results.size(); ++i) {
                it.insts += results.at(i).sim.retired;
                it.sims.push_back(results.at(i).sim);
                digestResult(h, results.at(i).sim);
            }
        }
        it.sliceInsts.push_back(it.insts - before);
    };

    const Clock::time_point t0 = Clock::now();
    const std::vector<const Workload *> all = in.programPtrs();
    if (!sliced || in.kind == Kind::SampledLong) {
        slice(all, in.configs);
    } else {
        for (const Workload *w : all) {
            for (const NamedConfig &cfg : in.configs)
                slice({w}, {cfg});
        }
    }
    it.wallSeconds = secondsSince(t0);
    it.digest = h.value();
    return it;
}

Reference
computeReference(const Inputs &in, unsigned threads)
{
    const std::size_t n = in.numJobs();
    Reference ref;
    ref.programDigest = in.programDigest();
    ref.funcInsts.assign(n, 0);
    ref.outputOk.assign(n, 0);
    ref.full.assign(n, SimResult{});
    {
        sweep::ThreadPool pool(std::max(1u, threads));
        for (std::size_t j = 0; j < n; ++j) {
            pool.submit([&in, &ref, j] {
                const Workload &w =
                    in.programs[j / in.configs.size()];
                const CoreParams &params =
                    in.configs[j % in.configs.size()].params;
                const unsigned cores = params.sys.numCores;
                const RunOutput func =
                    cores > 1 ? runFunctionalMulti(w, cores)
                              : runFunctional(w);
                const RunOutput detail = runWorkload(w, params);
                ref.funcInsts[j] = func.emuInsts;
                ref.outputOk[j] = detail.output == func.output &&
                                  detail.memDigest == func.memDigest &&
                                  detail.emuInsts == func.emuInsts;
                ref.full[j] = detail.sim;
            });
        }
        pool.waitIdle();
    }
    if (in.kind == Kind::SampledLong) {
        const Iteration it = runIteration(in, std::max(1u, threads));
        for (const sample::SampledEstimate &e : it.estimates)
            ref.estimateDigests.push_back(estimateDigest(e));
    }
    return ref;
}

std::string
encodeReference(const Reference &ref)
{
    std::ostringstream out;
    out << "renobench-ref 1\n";
    out << "programs " << ref.programDigest << "\n";
    out << "jobs " << ref.full.size() << "\n";
    for (std::size_t j = 0; j < ref.full.size(); ++j) {
        out << "job " << ref.funcInsts[j] << " "
            << int(ref.outputOk[j]);
        for (const SimStatField &f : simResultFields())
            out << " " << statValue(ref.full[j], f);
        out << "\n";
    }
    out << "estimates " << ref.estimateDigests.size() << "\n";
    for (const std::uint64_t d : ref.estimateDigests)
        out << "est " << d << "\n";
    return out.str();
}

bool
decodeReference(const std::string &text, Reference *out)
{
    std::istringstream in(text);
    std::string tag;
    int version = 0;
    std::size_t n = 0;
    Reference ref;
    if (!(in >> tag >> version) || tag != "renobench-ref" ||
        version != 1)
        return false;
    if (!(in >> tag >> ref.programDigest) || tag != "programs")
        return false;
    if (!(in >> tag >> n) || tag != "jobs")
        return false;
    for (std::size_t j = 0; j < n; ++j) {
        std::uint64_t insts = 0;
        int ok = 0;
        SimResult r;
        if (!(in >> tag >> insts >> ok) || tag != "job")
            return false;
        for (const SimStatField &f : simResultFields()) {
            if (!(in >> statRef(r, f)))
                return false;
        }
        ref.funcInsts.push_back(insts);
        ref.outputOk.push_back(ok == 1);
        ref.full.push_back(r);
    }
    if (!(in >> tag >> n) || tag != "estimates")
        return false;
    for (std::size_t j = 0; j < n; ++j) {
        std::uint64_t d = 0;
        if (!(in >> tag >> d) || tag != "est")
            return false;
        ref.estimateDigests.push_back(d);
    }
    *out = std::move(ref);
    return true;
}

std::size_t
countFailures(const Inputs &in, const Iteration &it,
              const Reference &ref)
{
    const std::size_t n = in.numJobs();
    const bool sampled = in.kind == Kind::SampledLong;
    if (it.sims.size() != n || ref.full.size() != n ||
        (sampled && (it.estimates.size() != n ||
                     ref.estimateDigests.size() != n)))
        return n;
    std::size_t failed = 0;
    for (std::size_t j = 0; j < n; ++j) {
        bool bad = !ref.outputOk[j];
        if (sampled) {
            bad = bad || it.estimates[j].totalInsts != ref.funcInsts[j] ||
                  estimateDigest(it.estimates[j]) !=
                      ref.estimateDigests[j];
        } else {
            bad = bad || !sameResult(it.sims[j], ref.full[j]) ||
                  it.sims[j].retired != ref.funcInsts[j];
        }
        failed += bad ? 1 : 0;
    }
    return failed;
}

Metrics
headline(const Inputs &in, const Iteration &it, const Reference &ref)
{
    Metrics m;
    if (in.kind == Kind::DetailMulti || it.sims.size() != in.numJobs())
        return m;
    // configs are {BASE, RENO}: per program, RENO over BASE cycles.
    const bool sampled = in.kind == Kind::SampledLong;
    std::vector<double> speedups;
    for (std::size_t base = 0; base < in.numJobs(); base += 2) {
        speedups.push_back(
            sampled ? speedupPercent(it.estimates[base].estCycles,
                                     it.estimates[base + 1].estCycles)
                    : speedupPercent(it.sims[base].cycles,
                                     it.sims[base + 1].cycles));
    }
    m.add("reno_speedup_pct", amean(speedups), "%");
    if (sampled) {
        double worst = 0.0;
        for (std::size_t j = 0; j < in.numJobs(); ++j) {
            const double full = ref.full[j].ipc();
            if (full > 0.0) {
                worst = std::max(worst, std::fabs(it.estimates[j].ipc -
                                                  full) / full * 100.0);
            }
        }
        m.add("sample_err_pct", worst, "%");
    }
    return m;
}

bool
sameResult(const SimResult &a, const SimResult &b)
{
    for (const SimStatField &f : simResultFields()) {
        if (statValue(a, f) != statValue(b, f))
            return false;
    }
    return true;
}

void
digestResult(Fnv64 &h, const SimResult &r)
{
    for (const SimStatField &f : simResultFields())
        h.update(statValue(r, f));
}

std::uint64_t
estimateDigest(const sample::SampledEstimate &e)
{
    Fnv64 h;
    h.update(e.totalInsts)
        .update(std::uint64_t(e.intervals))
        .update(std::uint64_t(e.measuredIntervals))
        .update(e.estCycles)
        .update(doubleBits(e.ipc))
        .update(doubleBits(e.ipcCi95));
    digestResult(h, e.sum);
    return h.value();
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t m = xs.size() / 2;
    return xs.size() % 2 ? xs[m] : (xs[m - 1] + xs[m]) / 2.0;
}

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
Metrics::add(const std::string &name, double value,
             const std::string &unit)
{
    if (!std::isfinite(value))
        fatal("metric %s is not finite", name.c_str());
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    entries_.push_back("\"" + name + "\": {\"value\": " + buf +
                       ", \"unit\": \"" + unit + "\"}");
}

std::string
Metrics::json() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i)
        out += (i ? ", " : "") + entries_[i];
    return out + "}";
}

} // namespace renobench
