"""Benchmark of the seifert package: one workload per run.

    python3 perfbench/run.py --workload symbol-h1 --seed 1 --seconds 20 --trace 0

The package is imported from the ``src`` directory next to this one.  A
run builds its inputs from the seed, makes one warm-up pass over them,
then repeats whole passes for ``--seconds`` seconds, timing two fresh
``import seifert`` interpreters after each pass (``setup_s``).  It checks
the warm-up pass against the independent checkers in ``oracle.py`` and
every later pass against the warm-up pass.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and the metrics,
end-to-end ones with ``--trace 0`` and per-layer ones with ``--trace 1``.

End-to-end times are given at reference speed.  Every operation is
followed by a reference measurement, and its latency is multiplied by
the reference's nominal duration over the measured one.  In-process
operations use ``reference()``, fixed interpreted work of about 1 ms;
operations that start an interpreter (cli-cold, and the starts behind
``setup_s``) use a bare ``python -c pass`` of about 50 ms.  The speed of
the shared 2-vCPU machine this was tuned on drifts by up to 1.8x over
tens of seconds, and scaling cut the run-to-run spread of the medians
from 0.06-0.16 to 0.01-0.05.  The unscaled figures go to stderr.

With ``--trace 1`` the first half of the time runs untraced and the
second half with every public function wrapped (see ``tracer.py``); the
difference of the two median pass times is ``trace.overhead_s``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (the package itself is imported by the workloads)
from workloads import run_child  # noqa: E402

SETUP_STARTS = 15       # fresh interpreters timed for setup_s, at least
SETUP_PER_PASS = 2      # of them after each timed pass
CLI_STARTS = 7          # fresh interpreters per cli.* per-layer figure
MIN_PASSES = 3
INTERPRETER_REFERENCE_S = 0.001   # nominal duration of reference()
PROCESS_REFERENCE_S = 0.05        # nominal wall time of python -c pass


def reference() -> int:
    """Fixed interpreted work of the kinds the package does: fractions,
    tuples, dict stores, big-integer products."""
    acc, table, x = Fraction(0), {}, 1
    for i in range(1, 120):
        acc = (acc + Fraction(i, i + 7)) % 1
        table[tuple(range(i % 9))] = acc
        x = x * (i + 12345) % (1 << 200)
    return x


def interpreter_scale() -> float:
    """Nominal over measured duration of reference(), with the collector
    paused so that a collection owed to the workload is not charged to it."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    reference()
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return INTERPRETER_REFERENCE_S / elapsed


def process_scale(env) -> float:
    """Nominal over measured wall time of a bare interpreter start."""
    return PROCESS_REFERENCE_S / child_seconds("pass", env)


def child_seconds(code: str, env) -> float:
    rc, _, err, wall, _ = run_child([sys.executable, "-c", code], env, ROOT)
    if rc != 0:
        raise RuntimeError(f"python -c {code!r} failed: {err}")
    return wall


def median_child_seconds(code: str, count: int, env) -> float:
    child_seconds(code, env)   # warm-up: writes the bytecode cache
    return statistics.median(child_seconds(code, env) for _ in range(count))


def median_import_seconds(count: int, env) -> float:
    code = ("import time; t = time.perf_counter(); import seifert.cli; "
            "print(time.perf_counter() - t)")
    values = []
    for _ in range(count + 1):
        rc, out, err, _, _ = run_child([sys.executable, "-c", code], env, ROOT)
        if rc != 0:
            raise RuntimeError(f"import seifert.cli failed: {err}")
        values.append(float(out))
    return statistics.median(values[1:])   # the first start writes the bytecode cache


class Run:
    """Passes over one workload, with their timings and outputs.

    ``scale`` measures the reference taken after each operation and
    returns the factor that brings a latency to reference speed.
    """

    def __init__(self, workload, scale=interpreter_scale):
        self.w = workload
        self.scale = scale
        self.attempted = 0
        self.failed = 0
        self.first = None        # plain outputs of the warm-up pass
        self.first_raw = None
        self.problems: list[str] = []
        self.tracer = None       # set while a traced pass runs in process

    def one_pass(self) -> tuple[list[float], list[float]]:
        """Every operation once, each followed by a reference; returns the
        operations' latencies and their scale factors, in order."""
        gc.collect()
        clock = time.perf_counter
        latencies, scales, raw = [], [], []
        for k, (_, op) in enumerate(self.w.ops):
            if self.tracer is not None:
                self.tracer.op = self.attempted + k
            t0 = clock()
            try:
                out = op()
            except Exception as exc:   # counted as a failed operation
                out = exc
            latencies.append(clock() - t0)
            scales.append(self.scale())
            raw.append(out)
        self._record(raw)
        return latencies, scales

    def _record(self, raw):
        self.attempted += len(raw)
        plain = []
        for k, out in enumerate(raw):
            if self.w.failed(k, out):
                self.failed += 1
                plain.append(("failed", repr(out)[:200]))
            else:
                plain.append(self.w.plain(out))
        if self.first is None:
            self.first, self.first_raw = plain, raw
        elif plain != self.first:
            labels = [self.w.ops[k][0] for k in range(len(plain)) if plain[k] != self.first[k]]
            self.problems.append(f"outputs differ from the first pass: {labels[:5]}")

    def timed_passes(self, seconds: float, between=None) -> list[tuple[list, list]]:
        """Whole passes until ``seconds`` have gone by, at least MIN_PASSES;
        ``between`` runs after each pass, outside the timed region."""
        passes = []
        end = time.perf_counter() + seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < end:
            passes.append(self.one_pass())
            if between is not None:
                between()
        return passes

    def check(self):
        ok_outs, ok_raw = [], []
        for k, (plain, raw) in enumerate(zip(self.first, self.first_raw)):
            failed = isinstance(plain, tuple) and plain[:1] == ("failed",)
            ok_outs.append(None if failed else plain)
            ok_raw.append(None if failed else raw)
        self.problems += self.w.check(ok_outs, ok_raw)


def end_to_end(run: Run, seconds: float, env) -> dict:
    # fresh-interpreter imports are spread over the run, between passes,
    # each followed by a bare interpreter start as its reference
    starts = []

    def time_starts():
        for _ in range(SETUP_PER_PASS):
            starts.append((child_seconds("import seifert", env), process_scale(env)))

    child_seconds("import seifert", env)   # writes the bytecode cache
    run.one_pass()
    passes = run.timed_passes(seconds, time_starts)
    while len(starts) < SETUP_STARTS:
        time_starts()
    if run.w.starts_interpreters:
        rss_kb = run.w.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def geomean(values):
        return math.exp(statistics.fmean(math.log(v) for v in values))

    median = statistics.median
    print("unscaled: " + json.dumps({
        "pass_s": median(sum(lat) for lat, _ in passes),
        "geomean_ms": geomean(median(v) for v in zip(*(lat for lat, _ in passes))) * 1e3,
        "setup_s": median(t for t, _ in starts),
        "scale": median(k for _, scales in passes for k in scales)}), file=sys.stderr)
    per_op = zip(*([t * k for t, k in zip(lat, scales)] for lat, scales in passes))
    return {
        "pass_s": (median(sum(lat) * median(scales) for lat, scales in passes), "s"),
        "geomean_ms": (geomean(median(v) for v in per_op) * 1e3, "ms"),
        "setup_s": (median(t * k for t, k in starts), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(run: Run, seconds: float, env) -> dict:
    import tracer as tracing
    run.one_pass()
    plain_walls = [sum(lat) for lat, _ in run.timed_passes(seconds / 2)]
    traced_walls, pass_metrics = [], []
    if run.w.starts_interpreters:
        # cli-cold: each child traces itself and writes its spans to a file
        run.w.traced = True
        end = time.perf_counter() + seconds / 2
        while len(traced_walls) < MIN_PASSES or time.perf_counter() < end:
            run.w.trace_files.clear()
            traced_walls.append(sum(run.one_pass()[0]))
            recs = []
            for path in run.w.trace_files:
                recs += tracing.records(json.loads(path.read_text())["spans"])
            pass_metrics.append(tracing.layer_metrics(recs))
    else:
        tracer = run.tracer = tracing.Tracer()
        tracer.install()
        try:
            end = time.perf_counter() + seconds / 2
            while len(traced_walls) < MIN_PASSES or time.perf_counter() < end:
                mark = len(tracer.spans)
                traced_walls.append(sum(run.one_pass()[0]))
                pass_metrics.append(mark)
        finally:
            tracer.uninstall()
            run.tracer = None
        recs = tracing.records(tracer.spans)
        bounds = pass_metrics + [len(recs)]
        pass_metrics = [tracing.layer_metrics(recs[a:b]) for a, b in zip(bounds, bounds[1:])]
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{run.w.__class__.__name__}.json", passes=bounds[:-1])
    metrics = {}
    for name in pass_metrics[0]:
        values = [m[name] for m in pass_metrics]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                run.problems.append(f"count {name} differs between passes: {values}")
            metrics[name] = (values[0], "count")
        else:
            unit = "ms" if name.endswith("_ms") else "s"
            metrics[name] = (statistics.median(values), unit)
    metrics["cli.interpreter_ms"] = (median_child_seconds("pass", CLI_STARTS, env) * 1e3, "ms")
    metrics["cli.import_ms"] = (median_import_seconds(CLI_STARTS, env) * 1e3, "ms")
    metrics["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(plain_walls), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "seifert" / "__init__.py").is_file():
        print(f"no seifert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    import seifert
    if Path(seifert.__file__).resolve().parent != ROOT / "src" / "seifert":
        print(f"seifert imported from {seifert.__file__}, not from this checkout", file=sys.stderr)
        return 2

    workdir = HERE / "out" / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        env = workloads.child_env(ROOT)
        workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, workdir)
        scale = (lambda: process_scale(env)) if workload.starts_interpreters else interpreter_scale
        run = Run(workload, scale)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(run, args.seconds, env)
        run.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in run.problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
