"""The wordeq benchmark: one workload, timed end to end or per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload forcing --seed 1 --seconds 25 --trace 0

Workloads are listed in BENCHMARK.json.  This script never imports
wordeq.  It checks the pinned references by its own means (refcheck.py),
then starts worker.py in fresh interpreters with the checkout's src/ on
PYTHONPATH: several set-up probes, then one measured run, so that set-up
time, CPU time and peak RSS belong to this workload alone.  Every
bounded time is scaled to a reference host speed by the calibration
readings taken next to it (hostspeed.py).  --seed permutes the item
order within each pass; it never changes the work.

The last line of standard output is the result object; the line before
it is a summary with the host record and the figures that are not
metrics.  The exit code is 0 only if every output matched its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import refcheck
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 25
WORKER_GRACE_S = 120

# What a bare interpreter runs: the standard modules worker.py imports,
# no wordeq; it prints its time since the parent's time.monotonic().
BARE_START = ("import argparse, contextlib, io, json, random, resource, statistics, sys, time; "
              "print(time.monotonic() - float(sys.argv[1]))")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    # Bytecode caching stays on, as for an installed package, so set-up
    # does not depend on whether the caller's environment disabled it.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def bare_start() -> float:
    """Spawn-to-first-line time of a bare interpreter, the set-up's host-speed reading."""
    proc = subprocess.run([sys.executable, "-c", BARE_START, repr(time.monotonic())], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=WORKER_GRACE_S,
                          check=True)
    return float(proc.stdout)


def run_worker(args: list[str], timeout: float) -> dict:
    """Start worker.py, wait for it (killing its process group on timeout), parse its last line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker did not finish within {timeout} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With ten samples or fewer no such percentile exists; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "wordeq" / "__init__.py").is_file():
        print(f"run.py: no wordeq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cpus = nproc()
    if workloads.SHARDS > cpus:
        print(f"run.py: {workloads.SHARDS} shards need at least that many CPUs, nproc is {cpus}",
              file=sys.stderr)
        return 2

    items = workloads.items(args.workload, args.tiny)
    refs = json.loads((HERE / "refs.json").read_text())
    problems = refcheck.check_refs(items, refs)
    bad_refs = {msg.split(":", 1)[0] for msg in problems}

    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    run_worker(common + ["--setup-only"], WORKER_GRACE_S)  # fills the bytecode cache
    # Each set-up probe is scaled by the bare interpreter starts on either
    # side of it.
    setups, setups_scaled = [], []
    before = bare_start()
    for _ in range(SETUP_PROBES):
        setups.append(run_worker(common + ["--setup-only"], WORKER_GRACE_S)["setup_s"])
        after = bare_start()
        setups_scaled.append(setups[-1] * hostspeed.scale(before, after, hostspeed.STARTUP_REFERENCE_S))
        before = after
    span_file = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
    res = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                               "--span-file", str(span_file)],
                     args.seconds + WORKER_GRACE_S)

    # Every bounded time is scaled to the reference host speed by the
    # calibration readings next to it (hostspeed.py); the raw times go in
    # the summary.
    scaled = res["wall_scaled"]
    wall = statistics.median(scaled)
    tail_s, tail_pct = tail(scaled)
    units = sum(it.work_units for it in items)
    units += sum(r["cases"] for it in items if it.kind == "suite" for r in refs[it.id])
    units += sum(refs[it.id]["j2_instances"] + refs[it.id]["i1k1_instances"]
                 for it in items if it.kind == "grid")
    failed = len(res["failures"]) + len(bad_refs)
    attempted = max(res["attempted"], 1)

    if args.trace:
        layers = dict(res["layers"])
        layers["host.calib_s"] = statistics.median(res["readings"])
        layers["trace.overhead_frac"] = statistics.median(res["traced"]) / statistics.median(res["wall"]) - 1
    metrics_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = metrics_spec["per_layer" if args.trace else "end_to_end"]
    values = {
        "setup_s": statistics.median(setups_scaled),
        "wall_s": wall,
        "wall_s_tail": tail_s,
        "work_per_s": units / wall,
        "cpu_s": statistics.median(res["cpu_scaled"]),
        "peak_rss_mb": res["peak_rss_mb"],
    } if not args.trace else layers

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(scaled),
        "wall_s_tail_percentile": round(tail_pct, 1),
        "failed_frac": failed / attempted,
        "failed_items": sorted(set(res["failures"]) | bad_refs),
        "reference_problems": problems,
        "child_peak_rss_mb": res["child_peak_rss_mb"],
        "work_units_per_pass": units,
        "raw": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(res["wall"]),
            "wall_s_min": min(res["wall"]),
            "cpu_s": statistics.median(res["cpu"]),
        },
        "host": {
            "calib_s_reference": hostspeed.REFERENCE_S,
            "calib_s": statistics.median(res["readings"]),
            "calib_s_min": min(res["readings"]),
            "calib_s_max": max(res["readings"]),
            "python": platform.python_version(),
            "nproc": cpus,
            "loadavg": os.getloadavg(),
        },
        "spans": str(span_file.relative_to(ROOT)) if args.trace else None,
    }
    print("summary " + json.dumps(summary))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
