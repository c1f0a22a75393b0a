"""slplab benchmark: closed-loop seeded checks, one client, in one process.

    python3 perfbench/run.py --workload sym-lift --seed 1 --seconds 25 --trace 0

Run from the repository root; slplab is imported from ./src.  Every run sets
up several times (re-import, input generation, one warm-up op of each kind;
see MIN_SETUPS) and reports the median as setup_s.  The timed loop then
repeats the workload's pass of ops until at least --seconds have gone by and
at least MIN_OPS ops are done, always ending on a whole pass so every op
kind keeps its share.  Every op goes through the correctness gate in
workloads.gate.  Times are reported at a reference speed: see REF_PROBE_S.

--trace 0 prints the end-to-end metrics and the verdict on
workloads.KNOWN_DEFECTS.  --trace 1 runs half the time untraced and half
traced, each half at least MIN_OPS ops, and prints the per-layer metrics
from the traced half plus the tracing overhead.  The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it give the environment and every metric by name and unit.  A
single-threaded closed loop never queues, so no layer has a wait metric.
"""

from __future__ import annotations

import os

# one BLAS thread, set before NumPy loads: one client, no other threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import types
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_SETUPS = 3           # set-ups per run: at least this many ...
MIN_SETUP_S = 2.0        # ... and at least this long in total
SETUP_PROBES = 20        # speed probes after each set-up
MIN_BEYOND = 10          # samples required beyond the highest percentile
MIN_OPS = 110            # enough for MIN_BEYOND beyond p90, with margin


def percentile(samples, q: float) -> tuple[float, int]:
    """Linear-interpolated q-quantile and the number of samples beyond it."""
    xs = sorted(samples)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    value = xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return value, sum(1 for x in xs if x > value)


def tail_percentile(samples, q: float) -> tuple[float, int]:
    """percentile(), refusing one with fewer than MIN_BEYOND samples beyond."""
    value, beyond = percentile(samples, q)
    if beyond < MIN_BEYOND:
        raise ValueError(f"p{round(q * 100)} has {beyond} samples beyond it "
                         f"out of {len(samples)}; need {MIN_BEYOND}")
    return value, beyond


# -------------------------------------------------------------- environment

def _blas_threads() -> int | str:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.rsplit("/", 1)[-1]
                           and ".so" in line})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(workload: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads": _blas_threads(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": _git_commit(ROOT),
            "workload": workload, "seed": seed}


# -------------------------------------------------------------------- loop

# The host's speed drifts: fixed work takes up to 1.6x longer in slow
# stretches lasting tens of seconds.  A probe of fixed work runs after every
# op, outside the op's time; dividing a pass's times by its median probe over
# REF_PROBE_S rescales them to one reference speed, so the figures follow
# the code and not the neighbours.  REF_PROBE_S is about the probe's time on
# an idle shared 2-core x86-64 host (Python 3.11, OpenBLAS 0.3.31).
REF_PROBE_S = 0.002
_PROBE_MATRIX = np.random.default_rng(0).standard_normal((60, 30))


def probe() -> float:
    """Seconds taken by a fixed mix of interpreter and LAPACK work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    np.linalg.svd(_PROBE_MATRIX)
    np.linalg.lstsq(_PROBE_MATRIX, _PROBE_MATRIX[:, :3], rcond=None)
    return time.perf_counter() - t0


@dataclass
class Loop:
    """Op times and pass wall times (probes excluded) with each pass's factor."""

    times: list[float] = field(default_factory=list)
    passes: list[float] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    probe_s: float = 0.0
    start: float = 0.0
    end: float = 0.0

    def scaled_times(self) -> list[float]:
        per_pass = len(self.times) // len(self.passes)
        return [t / self.factors[i // per_pass] for i, t in enumerate(self.times)]

    def rate(self, scaled: bool = True) -> float:
        """Ops per second of the median pass."""
        per_pass = len(self.times) // len(self.passes)
        factors = self.factors if scaled else [1.0] * len(self.passes)
        return per_pass / statistics.median(
            p / f for p, f in zip(self.passes, factors))


class Runner:
    """Runs ops through the gate, keeping references and failure counts."""

    def __init__(self, mods) -> None:
        self.mods = mods
        self.references: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0

    def run(self, op: workloads.Op) -> float:
        """Time one op, gate it, and return its duration in seconds."""
        if op.out is not None and os.path.exists(op.out):
            os.remove(op.out)
        t0 = time.perf_counter()
        try:
            rc, data = workloads.invoke(op, self.mods)
        except Exception:
            rc, data = None, b""
            reason = "raised:\n" + traceback.format_exc()
        dt = time.perf_counter() - t0
        if rc is not None:
            if data is None:
                data = Path(op.out).read_bytes() if os.path.exists(op.out) else b""
            reason = workloads.gate(op, rc, data,
                                    self.references.get(op.label))
            self.references.setdefault(op.label, data)
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            print(f"FAILED {op.label}: {reason}", file=sys.stderr)
        return dt

    def loop(self, ops, seconds: float, min_ops: int) -> Loop:
        """Whole passes until `seconds` and `min_ops` are both reached."""
        loop = Loop()
        loop.start = loop.end = time.perf_counter()
        while loop.end - loop.start < seconds or len(loop.times) < min_ops:
            probes = []
            for op in ops:
                loop.times.append(self.run(op))
                probes.append(probe())
            now = time.perf_counter()
            loop.passes.append(now - loop.end - sum(probes))
            loop.factors.append(statistics.median(probes) / REF_PROBE_S)
            loop.probe_s += sum(probes)
            loop.end = now
        return loop


def import_slplab():
    """Fresh import of every slplab module, as a user's process would do."""
    for name in [n for n in sys.modules
                 if n == "slplab" or n.startswith("slplab.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{
        layer: importlib.import_module(f"slplab.{layer}")
        for layer in tracing.LAYERS})


def setup(name: str, seed: int, workdir: str):
    """Import, input generation and warm-up; returns (seconds, runner, workload)."""
    t0 = time.perf_counter()
    mods = import_slplab()
    workload = workloads.make_workload(name, seed, mods, workdir)
    runner = Runner(mods)
    for op in workload.warmup:
        runner.run(op)
    return time.perf_counter() - t0, runner, workload


def known_defect(argv, mods, workdir: str) -> str:
    """Verdict on one of workloads.KNOWN_DEFECTS; neither timed nor gated."""
    out = os.path.join(workdir, "known-defect.json")
    op = workloads.Op("isotypic", "known defect", (*argv, "--out", out), out)
    try:
        rc, _ = workloads.invoke(op, mods)
        doc = json.loads(Path(out).read_text(encoding="utf-8"))
        verdict = (f"exit {rc}, pass {doc['pass']}, "
                   f"max_deviation {doc['max_deviation']:.3g}")
    except Exception as exc:  # a note, never a reason to stop the run
        verdict = f"raised {exc!r}"
    return f"slplab {' '.join(argv)}: {verdict}"


def end_to_end(name: str, seed: int, seconds: int, workdir: str):
    setups: list[float] = []
    probes: list[float] = []
    attempted = failed = 0
    runner = None
    while len(setups) < MIN_SETUPS or sum(setups) < MIN_SETUP_S:
        if runner is not None:
            # keep the counts and let the set-up go: one copy of slplab in
            # memory, however many set-ups ran
            attempted += runner.attempted
            failed += runner.failed
            runner = workload = None
            gc.collect()
        took, runner, workload = setup(name, seed, workdir)
        setups.append(took)
        probes.extend(probe() for _ in range(SETUP_PROBES))
    setup_factor = statistics.median(probes) / REF_PROBE_S
    loop = runner.loop(workload.passes, seconds, MIN_OPS)
    attempted += runner.attempted
    failed += runner.failed
    p50, _ = tail_percentile(loop.scaled_times(), 0.5)
    p90, beyond = tail_percentile(loop.scaled_times(), 0.9)
    metrics = {
        "setup_s": (statistics.median(setups) / setup_factor, "s"),
        "ops_per_s": (loop.rate(), "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    notes = {
        "setups": len(setups),
        "setup_speed_factor": setup_factor,
        "unscaled_setup_s": statistics.median(setups),
        "op_samples": len(loop.times), "p90_samples_beyond": beyond,
        "fail_frac": failed / attempted,
        "speed_factor_median": statistics.median(loop.factors),
        "unscaled_ops_per_s": loop.rate(scaled=False),
        "unscaled_op_p50_ms": percentile(loop.times, 0.5)[0] * 1e3,
        "unscaled_op_p90_ms": percentile(loop.times, 0.9)[0] * 1e3,
        **{f"known_defect_{i}": known_defect(argv, runner.mods, workdir)
           for i, argv in enumerate(workloads.KNOWN_DEFECTS, 1)},
    }
    return metrics, attempted, failed, notes


def traced(name: str, seed: int, seconds: int, workdir: str, env: dict):
    runner, workload = setup(name, seed, workdir)[1:]
    plain_rate = runner.loop(workload.passes, seconds / 2, MIN_OPS).rate()
    tracer = tracing.Tracer()
    mn = runner.mods.characters.mn_character
    mn_before = mn.cache_info()
    with tracer.installed():
        loop = runner.loop(workload.passes, seconds / 2, MIN_OPS)
    passes = len(loop.passes)
    metrics = tracing.layer_metrics(tracer, loop.start, loop.end, mn_before,
                                    mn.cache_info(), passes)
    uncovered, unit = metrics["trace.uncovered_s"]
    rate = loop.rate()
    metrics.update({
        "trace.uncovered_s": (uncovered - loop.probe_s / passes, unit),
        "trace.op_s": (sum(loop.times) / passes, "s"),
        "trace.ops_per_s_untraced": (plain_rate, "1/s"),
        "trace.ops_per_s_traced": (rate, "1/s"),
        "trace.overhead_frac": ((plain_rate - rate) / plain_rate, "ratio"),
    })
    spans = Path(workdir).parent / f"spans-{name}-seed{seed}.json.gz"
    tracer.write(spans, {"env": env, "loop_start": loop.start,
                         "loop_end": loop.end})
    notes = {"spans_file": str(spans.relative_to(ROOT))}
    return metrics, runner.attempted, runner.failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    src = ROOT / "src"
    if not (src / "slplab" / "__init__.py").is_file():
        print(f"slplab sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    env = environment(args.workload, args.seed)
    print(json.dumps({"env": env}, sort_keys=True))
    workdir = ROOT / ".bench_build" / "perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, attempted, failed, notes = traced(
                args.workload, args.seed, args.seconds, str(workdir), env)
        else:
            metrics, attempted, failed, notes = end_to_end(
                args.workload, args.seed, args.seconds, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key, (value, unit) in metrics.items():
        print(f"{key:32s} {value:>16.6g} {unit}")
    for key, value in notes.items():
        print(f"{key:32s} {value}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
