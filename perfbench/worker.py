"""Run one workload of the wordeq benchmark in a fresh interpreter.

run.py starts this script once per set-up probe and once for the
measured run, with the source tree on PYTHONPATH.  Set-up (importing
wordeq, building the items, loading the references) ends at the first
timed call; its length is taken from the monotonic clock reading the
parent passes in --t0, so interpreter start-up counts too.

Untraced passes call each item's public function and time it, reading
the host-speed loop (hostspeed.py) before the first item and after
every item so that each item's time can be scaled.  A traced
run alternates them with traced passes, which run each layer as its own
stage over the workload's items and record spans (name, start, end,
parent) in memory; the spans are written to the --span-file when the run
ends.  A stage a workload does not enter still opens its span, so it
reads as the cost of an empty timed region.

The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class Tracer:
    """Spans kept in memory: [id, name, start, end, parent id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [len(self.spans), name, time.perf_counter(), None, self._open[-1] if self._open else None]
        self.spans.append(rec)
        self._open.append(rec[0])
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._open.pop()

    def children(self, parent: list) -> list[list]:
        return [s for s in self.spans[parent[0] + 1:] if s[4] == parent[0]]


def _dur(span: list) -> float:
    return span[3] - span[2]


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Runner:
    """Calls the items through wordeq's public functions and checks each output."""

    def __init__(self, refs) -> None:
        import wordeq
        from wordeq import cli, oracles

        if Path(wordeq.__file__).resolve().parent != ROOT / "src" / "wordeq":
            raise RuntimeError(f"wordeq imported from {wordeq.__file__}, not from this checkout")
        self.wq = wordeq
        self.cli_main = cli.main
        self.oracle_fns = [(name, getattr(oracles, fn)) for name, fn in workloads.ORACLES]
        self.refs = refs
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, item, output) -> None:
        self.attempted += 1
        if output != self.refs.get(item.id):
            self.failures.append(item.id)

    def library(self, item, shards: int):
        """The item's library call; for a cli item, formatted as the CLI prints it."""
        exps, alphabet, bound = item.solver
        wq = self.wq
        if item.kind in ("verdict", "cli"):
            obj = wq.forcing_verdict(exps, alphabet, bound, shards=shards)
            forced = obj.forced_up_to_bound
        elif item.kind == "scan":
            obj = wq.conjecture_scan(exps, alphabet, bound, shards=shards)
            forced = obj.periodic_only
        else:
            obj = wq.enumerate_solutions(exps, alphabet, bound, shards=shards)
            forced = obj.periodic_only
        if item.kind == "cli":
            return {"stdout": obj.to_json(), "exit": 0 if forced else 2}
        return obj.to_json_obj()

    def run_cli(self, item):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.cli_main(workloads.cli_argv(item))
        return {"stdout": out.getvalue(), "exit": code}

    def call(self, item):
        """The public call a user makes for this item."""
        if item.kind == "cli":
            return self.run_cli(item)
        if item.kind == "suite":
            return [r.to_json_obj() for r in self.wq.run_lemma_suite(*item.args)]
        if item.kind == "grid":
            s = self.wq.validate_family_grid(*item.args)
            return {"pairs": s.pairs, "j2_instances": s.j2_instances, "i1k1_instances": s.i1k1_instances}
        return self.library(item, 1)

    def untraced_pass(self, order, readings: list[float]) -> dict:
        """Time each item's public call; return the pass's raw and scaled wall and CPU times.

        The host-speed loop is read before the first item and after every
        item, and each item's times are scaled by the two readings around
        it; the readings are appended to readings.
        """
        t = {"wall": 0.0, "wall_scaled": 0.0, "cpu": 0.0, "cpu_scaled": 0.0}
        before = hostspeed.reading()
        readings.append(before)
        for item in order:
            c0, w0 = _cpu(), time.perf_counter()
            out = self.call(item)
            wall, cpu = time.perf_counter() - w0, _cpu() - c0
            after = hostspeed.reading()
            readings.append(after)
            f = hostspeed.scale(before, after)
            before = after
            t["wall"] += wall
            t["wall_scaled"] += wall * f
            t["cpu"] += cpu
            t["cpu_scaled"] += cpu * f
            self.check(item, out)
        return t

    def traced_pass(self, order, tr: Tracer) -> dict:
        """Run every layer stage over the items; return this pass's per-layer figures."""
        wq = self.wq
        solver_items = [it for it in order if it.solver]
        suites = [it for it in order if it.kind == "suite"]
        grids = [it for it in order if it.kind == "grid"]
        clis = [it for it in order if it.kind == "cli"]
        sols, nonper, orbits = {}, {}, {}
        stage = {}

        def run_stage(name, items, body):
            with tr.span(name) as s:
                for it in items:
                    with tr.span(it.id):
                        body(it)
            stage[name] = s
            return s

        with tr.span("pass"):
            run_stage("equations.iter", solver_items,
                      lambda it: sols.__setitem__(it.id, list(wq.iter_solutions(*it.solver))))
            run_stage("equations.classify", solver_items, lambda it: nonper.__setitem__(
                it.id, [s for s in sols[it.id] if not wq.is_periodic_solution(s)]))
            run_stage("equations.canonical", solver_items, lambda it: orbits.__setitem__(
                it.id, {wq.canonical_instance(s, it.solver[1]).words() for s in nonper[it.id]}))
            root_calls = sum(1 for ss in sols.values() for s in ss for w in s.words() if w)
            run_stage("words.primitive_root", solver_items, lambda it: [
                wq.primitive_root(w) for s in sols[it.id] for w in s.words() if w])
            run_stage("equations.enumerate", solver_items, lambda it: self.check(it, self.library(it, 1)))
            c0 = _cpu()
            sharded = run_stage("equations.sharded", solver_items,
                                lambda it: self.check(it, self.library(it, workloads.SHARDS)))
            sharded_cpu = _cpu() - c0
            stdout_bytes = []

            def cli_body(it):
                out = self.run_cli(it)
                stdout_bytes.append(len(out["stdout"].encode()))
                self.check(it, out)

            cli_span = run_stage("cli.main", clis, cli_body)

            results = {it.id: [] for it in suites}
            cases = {}
            for n, (name, fn) in enumerate(self.oracle_fns):
                def oracle_body(it, fn=fn, n=n):
                    results[it.id].append(fn(**workloads.oracle_bounds(*it.args)[n]))
                run_stage(f"oracles.{name}", suites, oracle_body)
                cases[name] = sum(results[it.id][n].cases for it in suites)
            for it in suites:
                self.check(it, [r.to_json_obj() for r in results[it.id]])

            codes = {it.id: self._codes(it.args[0]) for it in suites}
            run_stage("codes.expand", suites, lambda it: [
                code.expand(c.letters) for code in codes[it.id]
                for c in wq.code_words(code, max(2, it.args[0] - 1))])
            run_stage("codes.imprimitive_set", suites, lambda it: [
                wq.x_primitive_imprimitive_set(code, max(2, it.args[0] - 1)) for code in codes[it.id]])
            run_stage("codes.cross_set", suites, lambda it: [
                wq.imprimitive_in_cross_set(code, max(1, it.args[0])) for code in codes[it.id]])
            grid_total = []

            def grid_body(it):
                out = self.call(it)
                grid_total.append(out["j2_instances"] + out["i1k1_instances"])
                self.check(it, out)

            run_stage("families.grid", grids, grid_body)

        layer = {(f"{name}.s" if name.startswith("oracles.") else f"{name}_s"): _dur(s)
                 for name, s in stage.items()}
        candidates = sum(it.work_units for it in solver_items)
        solutions = sum(len(v) for v in sols.values())
        enum_s = _dur(stage["equations.enumerate"])
        cli_ids = {it.id for it in clis}
        # CLI items run with --shards 1, so their library twins are in the
        # shards=1 stage.
        enum_items = tr.children(stage["equations.enumerate"])
        library_cli = sum(_dur(s) for s in enum_items if s[1] in cli_ids)
        # The stages that repeat the untraced pass's own calls, item for
        # item; their sum against the untraced pass is the span overhead.
        same_calls = [s for s in enum_items if s[1] not in cli_ids]
        same_calls += [stage[n] for n in stage if n.startswith("oracles.")]
        same_calls += [stage["cli.main"], stage["families.grid"]]
        layer.update({
            "calls_s": sum(_dur(s) for s in same_calls),
            "equations.candidates": candidates,
            "equations.solutions": solutions,
            "equations.yield_ratio": solutions / candidates if candidates else 0.0,
            "equations.nonperiodic": sum(len(v) for v in nonper.values()),
            "equations.orbits": sum(len(v) for v in orbits.values()),
            "equations.report_s": enum_s - sum(_dur(stage[n]) for n in (
                "equations.iter", "equations.classify", "equations.canonical")),
            "equations.shard_speedup": enum_s / _dur(sharded) if solver_items else 0.0,
            "equations.sharded_cpu_s": sharded_cpu,
            "cli.overhead_s": _dur(cli_span) - library_cli,
            "cli.stdout_bytes": sum(stdout_bytes),
            "words.primitive_root_calls": root_calls,
            "words.primitive_root_us": (_dur(stage["words.primitive_root"]) / root_calls * 1e6
                                        if root_calls else 0.0),
            "families.instances": sum(grid_total),
        })
        for name, _ in self.oracle_fns:
            layer[f"oracles.{name}.cases"] = cases[name]
        return layer

    def _codes(self, knob: int):
        letters = self.wq.alphabet(2)
        words = list(self.wq.all_words(max(1, knob - 2), letters))
        return [self.wq.BinaryCode(x, y) for x in words for y in words if not self.wq.commutes(x, y)]


def measure(runner: Runner, items, rng: random.Random, seconds: float, trace: bool) -> dict:
    """Passes until the time is up; a pass that has started runs to its end."""
    passes, readings, traced, layers = [], [], [], []
    tr = Tracer()
    deadline = time.perf_counter() + seconds
    while True:
        order = list(items)
        rng.shuffle(order)
        passes.append(runner.untraced_pass(order, readings))
        if trace:
            rng.shuffle(order)
            layer = runner.traced_pass(order, tr)
            traced.append(layer.pop("calls_s"))
            layers.append(layer)
        if time.perf_counter() >= deadline:
            break
    out = {name: [p[name] for p in passes] for name in passes[0]}
    out["readings"] = readings
    if trace:
        out["traced"] = traced
        out["layers"] = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        speedups = [layer["equations.shard_speedup"] for layer in layers]
        out["layers"]["equations.shard_speedup.q1"], _, out["layers"]["equations.shard_speedup.q3"] = (
            statistics.quantiles(speedups, n=4) if len(speedups) > 1 else (speedups[0],) * 3)
        out["spans"] = tr.spans
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    p.add_argument("--span-file", default=None)
    args = p.parse_args()

    items = workloads.items(args.workload, args.tiny)
    refs = json.loads((HERE / "refs.json").read_text())
    runner = Runner(refs)
    rng = random.Random(args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = measure(runner, items, rng, args.seconds, bool(args.trace))
    spans = out.pop("spans", None)
    if spans is not None and args.span_file:
        path = Path(args.span_file)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["id", "name", "start", "end", "parent"], "spans": spans}))
    out.update({
        "setup_s": setup_s,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "child_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
