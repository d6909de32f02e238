/**
 * @file
 * Assembly runner: assemble a .s file from disk, execute it on the
 * functional emulator, and (optionally) simulate it on the timing
 * core with a chosen RENO configuration.
 *
 * Usage:
 *   run_asm program.s                 # functional run only
 *   run_asm --sim program.s           # + timing simulation (full RENO)
 *   run_asm --sim --config BASE x.s   # + chosen configuration
 */
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "asm/assembler.hpp"
#include "common/cli.hpp"
#include "common/log.hpp"
#include "emu/emulator.hpp"
#include "harness/experiment.hpp"
#include "uarch/core.hpp"

using namespace reno;

int
main(int argc, char **argv)
{
    std::string path;
    std::string config = "RENO";
    bool sim = false;
    cli::Parser parser;
    parser.add("FILE", cli::Value::Positional, "the assembly program",
               [&path](const std::string &v) { path = v; });
    parser.flag("--sim", "also simulate on the timing core", &sim);
    parser.text("--config NAME", "configuration for --sim, as in "
                "reno-sweep --list-configs (default RENO)", &config);
    parser.parse(argc, argv);
    if (path.empty())
        fatal("missing program FILE (try --help)");
    const CoreParams params =
        configsByName({config}, CoreParams{}).front().params;
    if (params.sys.numCores > 1)
        fatal("run_asm simulates one core; '%s' runs %u",
              config.c_str(), params.sys.numCores);

    std::ifstream in(path);
    if (!in)
        fatal("cannot open %s", path.c_str());
    std::stringstream ss;
    ss << in.rdbuf();

    Program prog;
    try {
        prog = assemble(ss.str());
    } catch (const AsmError &e) {
        fatal("%s: %s", path.c_str(), e.what());
    }
    std::printf("assembled %zu instructions, %zu data bytes\n",
                prog.text.size(), prog.data.size());

    Emulator emu(prog);
    if (!sim) {
        emu.run();
        std::printf("output: %s\n", emu.output().c_str());
        std::printf("retired %llu instructions, exit code %llu\n",
                    static_cast<unsigned long long>(emu.instCount()),
                    static_cast<unsigned long long>(emu.exitCode()));
        return static_cast<int>(emu.exitCode());
    }

    Core core(params, emu);
    const SimResult r = core.run();
    std::printf("output: %s\n", emu.output().c_str());
    std::printf("cycles=%llu IPC=%.3f eliminated=%.1f%% "
                "(ME %.1f%% CF %.1f%% CSE+RA %.1f%%)\n",
                static_cast<unsigned long long>(r.cycles), r.ipc(),
                r.elimFraction() * 100,
                r.elimFraction(ElimKind::Move) * 100,
                r.elimFraction(ElimKind::Fold) * 100,
                (r.elimFraction(ElimKind::Cse) +
                 r.elimFraction(ElimKind::Ra)) * 100);
    return static_cast<int>(emu.exitCode());
}
