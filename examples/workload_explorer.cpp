/**
 * @file
 * Workload explorer: run any registered workload (or a whole suite)
 * on a chosen machine configuration and print detailed statistics,
 * including functional-vs-timing state cross-checks and an optional
 * critical-path breakdown.
 *
 * Usage (workload_explorer --help lists every option):
 *   workload_explorer [options] <workload|spec|media|all>
 *   workload_explorer --config LoadsInteg --critpath gzip
 */
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "harness/experiment.hpp"

using namespace reno;

namespace
{

void
runOne(const Workload &w, const CoreParams &params, bool critpath)
{
    // Functional reference.
    const RunOutput ref = runFunctionalMulti(w, params.sys.numCores);

    CriticalPathAnalyzer cpa;
    const RunOutput out =
        runWorkload(w, params, critpath ? &cpa : nullptr);
    const SimResult &r = out.sim;

    const bool state_ok =
        out.output == ref.output && out.memDigest == ref.memDigest;

    std::printf("%-10s %-6s insts=%-8llu cycles=%-9llu IPC=%5.3f "
                "elim=%5.1f%% (ME %4.1f%% CF %4.1f%% CSE+RA %4.1f%%) "
                "bpmr=%4.1f%% dc-miss=%llu viol=%llu misint=%llu %s\n",
                w.name.c_str(), w.suite.c_str(),
                static_cast<unsigned long long>(r.retired),
                static_cast<unsigned long long>(r.cycles), r.ipc(),
                r.elimFraction() * 100.0,
                r.elimFraction(ElimKind::Move) * 100.0,
                r.elimFraction(ElimKind::Fold) * 100.0,
                (r.elimFraction(ElimKind::Cse) +
                 r.elimFraction(ElimKind::Ra)) * 100.0,
                r.bpLookups
                    ? 100.0 * double(r.bpMispredicts) / double(r.bpLookups)
                    : 0.0,
                static_cast<unsigned long long>(r.dcacheMisses),
                static_cast<unsigned long long>(r.violationSquashes),
                static_cast<unsigned long long>(r.misintegrationFlushes),
                state_ok ? "state-ok" : "STATE-MISMATCH");

    if (critpath) {
        const auto b = cpa.breakdown();
        std::printf("           critpath: fetch %.1f%% alu %.1f%% "
                    "load %.1f%% mem %.1f%% commit %.1f%%\n",
                    b[0] * 100, b[1] * 100, b[2] * 100, b[3] * 100,
                    b[4] * 100);
    }
    if (!state_ok)
        std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string target = "all";
    std::string config = "RENO";
    CoreParams base = CoreParams::fourWide();
    unsigned pregs = 160;
    unsigned schedloop = 1;
    bool critpath = false;

    cli::Parser parser;
    parser.add("TARGET", cli::Value::Positional,
               "a workload, spec, media or all (default all)",
               [&target](const std::string &v) { target = v; });
    parser.text("--config NAME", "configuration, as in reno-sweep "
                "--list-configs (default RENO)", &config);
    parser.add("--width W", cli::Value::Required,
               "machine width, 4 or 6 (default 4)",
               [&base](const std::string &v) { base = machineOfWidth(v); });
    parser.count("--pregs N", "physical registers (default 160)",
                 &pregs);
    parser.count("--schedloop N", "wakeup/select cycles (default 1)",
                 &schedloop);
    parser.flag("--critpath", "print the critical-path breakdown",
                &critpath);
    parser.parse(argc, argv);

    base.numPregs = pregs;
    base.schedLoop = schedloop;
    const CoreParams params =
        configsByName({config}, base).front().params;

    if (target == "all" || target == "spec" || target == "media") {
        for (const Workload &w : allWorkloads()) {
            if (target == "all" || w.suite == target)
                runOne(w, params, critpath);
        }
    } else {
        runOne(workloadByName(target), params, critpath);
    }
    return 0;
}
