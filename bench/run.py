#!/usr/bin/env python3
"""Benchmark of the fermatreals library.

    python3 bench/run.py --workload expr_roundtrip --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the repository root.  Stdlib only; the library is imported from
``src/``.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics.  The lines above it are a readable
report: every metric with its unit and sample count, failed operations,
input sizes and the output digest.  See ``bench/README.md``.

One client, closed loop: the next operation starts when the previous one
returns.  The process runs no other process, except the one
``python -m fermatreals`` child at a time of ``cli_oneshot``.
"""

from __future__ import annotations

import argparse
import array
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import workloads as W

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = BENCH / "out"
BASELINE = BENCH / "baseline.json"

WORKLOADS = {"expr_roundtrip": W.ExprRoundtrip, "deep_extension": W.DeepExtension,
             "cli_oneshot": W.CliOneshot}
# Shapes (expressions, term orders, truncation depths, operation order) come
# from this fixed seed, so every --seed does the same amount of work; --seed
# draws coefficients and, where they do not change the work, other numbers.
SHAPE_SEED = 20090921
TRACE_CLI_SPAWNS = 10
TRACE_PAIRS = 7
# On a shared virtual machine speed drifts in phases: a steady base with
# bursts up to 1.5x faster.  Timings are taken over short windows of the
# run and reported at the slow-side decile over the windows, which tracks
# the base speed; run medians moved with the share of fast bursts.
SLOW_DECILE = 0.9
MAX_FAILURES_SHOWN = 5

clock = time.perf_counter


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "fermatreals" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"bench: no library at {SRC} or no {SPEC.name}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- set-up -----------------------------------------------------------------

def load_library(with_cli: bool):
    # By module path: the package re-exports a function named ``order``.
    names = ["core", "order", "calculus", "expr", "plot", "errors"] + ["cli"] * with_cli
    lib = types.SimpleNamespace(cli=None, src=SRC)
    for n in names:
        setattr(lib, n, importlib.import_module(f"fermatreals.{n}"))
    return lib


def _purge(names):
    """Forget the library and the pure-Python modules its import pulled in,
    so that the next import pays what a fresh process pays."""
    for name in names:
        path = str(getattr(sys.modules.get(name), "__file__", None) or "")
        if name.split(".")[0] == "fermatreals" or path.endswith(".py"):
            del sys.modules[name]


def set_up(name: str, seed: int, workdir: Path):
    """Import, build the seeded inputs and warm up, ``setup_reps`` times.

    Returns the last repetition's library and workload and every
    repetition's time.  Modules imported during a repetition are dropped
    before the next one, so each repetition imports afresh.
    """
    cls = WORKLOADS[name]
    times = []
    for rep in range(cls.setup_reps):
        gc.collect()
        before = set(sys.modules)
        t0 = clock()
        lib = load_library(name == "cli_oneshot")
        draws = (random.Random(SHAPE_SEED), random.Random(seed))
        wl = cls(lib, *draws, workdir) if name == "cli_oneshot" else cls(lib, *draws)
        for i in range(cls.warm_up_ops):
            try:
                wl.run(i)
            except Exception:  # noqa: BLE001 - the measured passes report it
                pass
        times.append(clock() - t0)
        for leftover in workdir.iterdir():  # plot files of the warm-up
            leftover.unlink()
        if rep + 1 < cls.setup_reps:
            _purge(set(sys.modules) - before)
    return lib, wl, times


# -- measured passes --------------------------------------------------------

class Stats:
    def __init__(self):
        self.latencies = array.array("d")  # seconds, in the order run
        self.rates: list[float] = []  # ops_per_s of each pass
        self.attempted = 0
        self.failed = 0
        self.typed = 0
        self.failures: list[str] = []

    def merge(self, other: "Stats"):
        self.latencies.extend(other.latencies)
        self.rates.extend(other.rates)
        self.attempted += other.attempted
        self.failed += other.failed
        self.typed += other.typed
        self.failures.extend(other.failures[:MAX_FAILURES_SHOWN - len(self.failures)])

    def fail(self, message: str):
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_SHOWN:
            self.failures.append(message)


def run_pass(wl, lib, st: Stats, first_lines=None, tracer=None) -> list[str]:
    """Every operation once; returns the canonical line of each outcome.

    An operation fails when it raises anything but a typed ``FermatError``
    or when its output fails the workload's check.  Only ``wl.run`` is
    timed; checks run between operations.
    """
    typed_error = lib.errors.FermatError
    wl.start_pass()
    lines = []
    busy = 0.0
    for i in range(len(wl.ops)):
        if tracer is not None:
            tracer.op = i
        out = err = None
        t0 = clock()
        try:
            out = wl.run(i)
        except Exception as exc:  # noqa: BLE001 - classified below
            err = exc
        dt = clock() - t0
        busy += dt
        st.latencies.append(dt)
        st.attempted += 1
        first = None if first_lines is None else first_lines[i]
        if err is None:
            line = wl.line(out)
            problem = wl.check(i, out, first)
        elif isinstance(err, typed_error):
            st.typed += 1
            line = f"!{type(err).__name__}: {err}"
            problem = None if first in (None, line) else f"{line!r} differs from the first pass: {first!r}"
        else:
            line = f"!!{type(err).__name__}"
            problem = f"operation {i} raised {type(err).__name__}: {err}"
        if problem is not None:
            st.fail(problem)
        lines.append(line)
    st.rates.append(len(wl.ops) / busy)
    return lines


def measure(wl, lib, seconds: float, st: Stats) -> list[str]:
    """Whole passes until ``seconds`` have gone; returns the first pass's lines."""
    deadline = clock() + seconds
    first = run_pass(wl, lib, st)
    while clock() < deadline:
        run_pass(wl, lib, st, first)
    return first


# -- statistics -------------------------------------------------------------

def quantile(values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def latency_ms(latencies, per_pass: int, q: float):
    """The q-quantile of operation latency in ms, with a note on its samples.

    A window is the fewest whole passes that hold ten samples beyond q.  The
    quantile is taken in each window and reported at the slow-side decile
    over windows; a run with fewer than ten windows pools all its samples.
    """
    size = math.ceil(10 / ((1 - q) * per_pass)) * per_pass
    windows = [latencies[i:i + size] for i in range(0, len(latencies) - size + 1, size)]
    if len(windows) < 10:
        return quantile(latencies, q) * 1e3, f"{len(latencies)} ops pooled"
    return (quantile([quantile(w, q) for w in windows], SLOW_DECILE) * 1e3,
            f"slow decile of {len(windows)} windows of {size} ops")


def peak_rss_mb(name: str) -> float:
    """Peak RSS of this process, or of the largest CLI child on cli_oneshot."""
    who = resource.RUSAGE_CHILDREN if name == "cli_oneshot" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- one workload -------------------------------------------------------------

def run(args, spec, workdir: Path) -> int:
    name = args.workload
    print(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
          f"python {sys.version.split()[0]}")
    lib, wl, setup_times = set_up(name, args.seed, workdir)
    st = Stats()
    if args.trace:
        metrics, correct = traced(args, wl, lib, st)
        report_sizes(wl)
    else:
        first = measure(wl, lib, args.seconds, st)
        digest = hashlib.sha256("\n".join(first).encode()).hexdigest()
        metrics = {
            "setup_s": (quantile(setup_times, 0.5), f"median of {len(setup_times)} set-ups"),
            "ops_per_s": (quantile(st.rates, 1 - SLOW_DECILE),
                          f"slow decile of {len(st.rates)} passes of {len(wl.ops)} ops"),
            "latency_p50_ms": latency_ms(st.latencies, len(wl.ops), 0.5),
            "latency_p90_ms": latency_ms(st.latencies, len(wl.ops), 0.9),
            "latency_p99_ms": latency_ms(st.latencies, len(wl.ops), 0.99),
            "peak_rss_mb": (peak_rss_mb(name), "1 sample"),
        }
        correct = True
        report_sizes(wl)
        report_digest(name, args.seed, digest)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    print(f"{section} metrics:")
    for key, unit in units.items():
        value, note = metrics.get(key, (0.0, "not exercised"))
        print(f"  {key:44s} {value:14.6g} {unit:6s} ({note})")
    ratio = st.failed / st.attempted if st.attempted else 0.0
    print(f"  {'failed_ratio':44s} {ratio:14.6g} {'':6s} ({st.failed} of {st.attempted} ops failed;"
          f" {st.typed} ended in a typed FermatError)")
    for msg in st.failures:
        print(f"  failure: {msg}")
    correct = correct and st.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": st.attempted, "failed": st.failed,
        "metrics": {k: {"value": metrics.get(k, (0.0,))[0], "unit": u} for k, u in units.items()},
    }))
    return 0


def report_sizes(wl):
    print("input sizes:")
    for key, value in wl.sizes().items():
        print(f"  {key}: {value if not isinstance(value, float) else round(value, 3)}")


def report_digest(name: str, seed: int, digest: str):
    recorded = {}
    if BASELINE.is_file():
        recorded = json.loads(BASELINE.read_text(encoding="utf-8")).get("digests", {})
    known = recorded.get(name, {}).get(str(seed))
    verdict = ("no digest recorded for this seed" if known is None
               else "same as the recorded seed baseline" if known == digest
               else f"CHANGED from the recorded seed baseline {known}")
    print(f"output digest sha256:{digest} ({verdict})")


# -- traced run ---------------------------------------------------------------

def traced(args, wl, lib, st: Stats):
    """A checked pass, then ``TRACE_PAIRS`` pairs of one untraced and one
    traced pass over the same operations.

    Pairing keeps the overhead estimate clear of slow drift in machine speed.
    Returns the per-layer metrics and whether the deterministic counters
    agree across every traced pass.
    """
    import tracing as T

    metrics = {}
    if wl.name == "cli_oneshot":
        metrics.update(cli_start_costs(wl))
        wl.in_process = True
    first = run_pass(wl, lib, st)
    tracer = T.Tracer()
    spans_file = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl.gz"
    spans_file.unlink(missing_ok=True)
    untraced, traced_rates, runs = Stats(), [], []
    for k in range(TRACE_PAIRS):
        run_pass(wl, lib, untraced, first)
        tracer.reset()
        one = Stats()
        uninstall = T.install(tracer, lib)
        try:
            run_pass(wl, lib, one, first, tracer)
        finally:
            uninstall()
        st.merge(one)
        traced_rates.append(one.rates[0])
        runs.append(tracer.layer_metrics() | {"errors.typed_raised": one.typed})
        if k < 2:
            tracer.dump(spans_file, f"traced-{k + 1}")
    st.merge(untraced)
    note = f"median of {TRACE_PAIRS} traced passes"
    for key in runs[0]:
        if key.endswith(".self_ms"):
            metrics[key] = (quantile([r.get(key, 0.0) for r in runs], 0.5), note)
        else:
            metrics[key] = (runs[0][key], "one traced pass")
    rate_u = quantile(untraced.rates, 0.5)
    rate_t = quantile(traced_rates, 0.5)
    metrics["trace.ops_per_s_untraced"] = (rate_u, f"median of {TRACE_PAIRS} passes")
    metrics["trace.ops_per_s_traced"] = (rate_t, f"median of {TRACE_PAIRS} passes")
    if wl.name == "cli_oneshot":
        metrics["cli.main_ms"] = (quantile(untraced.latencies, 0.5) * 1e3,
                                  f"median of {len(untraced.latencies)} in-process cli.main calls")
    pairs = [u / t - 1 for u, t in zip(untraced.rates, traced_rates)]
    print(f"tracing overhead: {quantile(pairs, 0.5):+.0%} time per operation, median of "
          f"{TRACE_PAIRS} paired passes (ops_per_s {rate_t:.6g} traced, {rate_u:.6g} untraced); "
          f"{len(tracer.spans)} spans per pass, written to {spans_file.relative_to(ROOT)}")
    differ = sorted({k for r in runs for k in r
                     if k.endswith(T.DETERMINISTIC) and r.get(k) != runs[0].get(k)})
    if differ:
        print(f"BENCHMARK DEFECT: counters differ between traced passes: {differ}")
    else:
        print(f"deterministic counters agree across all {TRACE_PAIRS} traced passes")
    return metrics, not differ


def cli_start_costs(wl) -> dict:
    """Bare interpreter start and fresh ``import fermatreals``, by spawning."""
    def spawn_ms(code: str) -> list[float]:
        out = []
        for _ in range(TRACE_CLI_SPAWNS):
            t0 = clock()
            subprocess.run([sys.executable, "-c", code], cwd=wl.workdir, env=wl.env,
                           check=True, capture_output=True, timeout=120)
            out.append((clock() - t0) * 1e3)
        return out

    bare = quantile(spawn_ms("pass"), 0.5)
    imported = quantile(spawn_ms("import fermatreals"), 0.5)
    note = f"median of {TRACE_CLI_SPAWNS} spawns"
    return {"cli.interp_start_ms": (bare, note),
            "cli.import_ms": (imported - bare, note + ", minus interp_start_ms")}


# -- all workloads ------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own process, one after another, then a table."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print("summary:")
    for name, res in rows:
        cells = "" if args.trace else "  ".join(
            f"{k}={m['value']:.4g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"  {name:15s} failed {res['failed']}/{res['attempted']}  {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
