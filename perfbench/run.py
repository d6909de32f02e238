#!/usr/bin/env python3
"""Repository benchmark: build the simulator, run one workload, report.

usage (from the repository root):
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                           [--trace 0|1]
  python3 perfbench/run.py --workload NAME --repeat N [--seed N] ...
  python3 perfbench/run.py --check-programs [--seed N]

Workloads: detail-paper, sampled-long, detail-multi (see RATIONALE.md).

A run builds perfbench/ (the simulator sources under src/ plus the
renobench program) into $CARGO_TARGET_DIR or .bench_build, computes the
verified full-detail reference of (workload, seed) once per source
tree and caches it there, then runs renobench. It prints a host/build
manifest line, an info line (result digest, simulated headline
numbers) and, last, one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).

--repeat N runs the workload N times, on seeds seed..seed+N-1, and
prints the median and quartiles of every metric with its spread
against a third of the bound in BENCHMARK.json. --check-programs generates every workload's programs
for the seed and the held-out seed twice, in separate processes, and
fails unless both passes print byte-identical programs.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["detail-paper", "sampled-long", "detail-multi"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def source_digest():
    """Digest of every file the benchmark binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = ROOT / top
        if not base.is_dir():
            raise SystemExit(f"missing source directory {base}")
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if path.suffix in (".md", ".py"):
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def build():
    cmake_dir = build_dir() / "cmake"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(cmake_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(cmake_dir), "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    return cmake_dir / "renobench"


def run_binary(binary, args, timeout=RUN_TIMEOUT_S):
    done = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=timeout)
    if done.returncode != 0:
        log(done.stderr[-4000:])
        raise SystemExit(f"renobench {' '.join(args)} exited with "
                         f"{done.returncode}")
    return done.stdout


def reference(binary, workload, seed, digest):
    ref_dir = build_dir() / "ref"
    ref_dir.mkdir(parents=True, exist_ok=True)
    path = ref_dir / f"{workload}-{seed}-{digest[:16]}.ref"
    if not path.exists():
        tmp = path.with_suffix(".tmp")
        run_binary(binary, ["--workload", workload, "--seed", str(seed),
                            "--mode", "reference", "--ref", str(tmp)])
        tmp.replace(path)
    return path


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                               "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown"


def run_once(binary, digest, workload, seed, seconds, trace):
    """One benchmark run; returns (manifest, result dict)."""
    ref = reference(binary, workload, seed, digest)
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--ref", str(ref)]
    if trace:
        args += ["--trace-out",
                 str(build_dir() / f"trace-{workload}-{seed}.json")]
    out = run_binary(binary, args)
    lines = [line for line in out.splitlines() if line.strip()]
    for line in lines[:-1]:
        log(line)
    result = json.loads(lines[-1])
    info = result.pop("info")
    manifest = {
        "git_sha": git_sha(),
        "source_digest": digest,
        "compiler": info.pop("compiler"),
        "build_type": info.pop("build_type"),
        "nproc": os.cpu_count(),
        "seed": seed,
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
    }
    return manifest, info, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def bounds():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def repeat(binary, digest, opts):
    limits = bounds()
    series = {}
    units = {}
    failed = attempted = 0
    for i in range(opts.repeat):
        seed = opts.seed + i
        _, info, result = run_once(binary, digest, opts.workload, seed,
                                   opts.seconds, opts.trace)
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            series.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"run {i + 1}/{opts.repeat} seed {seed}: correct "
              f"{result['correct']}, " +
              ", ".join(f"{k} {m['value']:.6g}"
                        for k, m in result["metrics"].items()),
              flush=True)
    summary = {}
    print(f"\n{opts.workload}: {opts.repeat} runs, {attempted} "
          f"operations, {failed} failed")
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound/3':>8}")
    for name, values in series.items():
        med = statistics.median(values)
        q1, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        bound = limits.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and \
                spread > bound / 3:
            flag = "  WIDE"
        print(f"{name:36} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.2%} "
              f"{'' if bound is None else f'{bound / 3:8.2%}'}{flag}")
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": spread, "unit": units[name],
                         "values": values}
    print(json.dumps({"workload": opts.workload, "runs": opts.repeat,
                      "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0 if failed == 0 else 1


def check_programs(binary, seed):
    ok = True
    for seed_value in sorted({seed, HELD_OUT_SEED}):
        for workload in WORKLOADS:
            args = ["--workload", workload, "--seed", str(seed_value),
                    "--mode", "programs"]
            first = run_binary(binary, args)
            second = run_binary(binary, args)
            same = first == second
            ok &= same
            digest = first.splitlines()[-1]
            print(f"{workload} seed {seed_value}: {digest} "
                  f"{'identical' if same else 'DIFFERS'} across two "
                  f"processes")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--check-programs", action="store_true")
    opts = parser.parse_args()
    if not opts.check_programs and opts.workload is None:
        parser.error("--workload is required")

    digest = source_digest()
    binary = build()
    if opts.check_programs:
        return check_programs(binary, opts.seed)
    if opts.repeat > 0:
        return repeat(binary, digest, opts)

    manifest, info, result = run_once(binary, digest, opts.workload,
                                      opts.seed, opts.seconds, opts.trace)
    print("manifest: " + json.dumps(manifest))
    print("info: " + json.dumps(info))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
