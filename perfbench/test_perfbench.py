"""Tests of the benchmark's own machinery, at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------ self time

def test_covered_merges_overlaps_and_clips():
    assert tracing.covered(0.0, 10.0, [(1, 4), (3, 6), (8, 12)]) == 7.0
    assert tracing.covered(0.0, 10.0, [(-5, -1), (11, 12)]) == 0.0
    assert tracing.covered(0.0, 10.0, []) == 0.0


def test_self_times_nested_and_overlapping_children():
    # 0: root [0, 10]; 1: [1, 4] and 2: [3, 6] overlap; 3: [2, 3] nests in
    # 1; 4: [8, 12] runs past the root's end and is clipped to it
    start = [0.0, 1.0, 3.0, 2.0, 8.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    assert tracing.self_times(start, end, parent) == [3.0, 2.0, 3.0, 1.0, 4.0]


# ---------------------------------------------------------- percentiles

def test_percentile_counts_samples_beyond():
    value, beyond = run.percentile(range(100), 0.9)
    assert value == pytest.approx(89.1)
    assert beyond == 10


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(range(100), 0.9)[1] == 10
    with pytest.raises(ValueError, match="samples beyond"):
        run.tail_percentile(range(91), 0.9)
    assert run.percentile(range(run.MIN_OPS), 0.9)[1] >= run.MIN_BEYOND


def test_loop_rescales_each_pass_by_its_speed_factor():
    loop = run.Loop(times=[1.0, 2.0, 3.0, 4.0], passes=[3.0, 7.0],
                    factors=[1.0, 2.0])
    assert loop.scaled_times() == [1.0, 2.0, 1.5, 2.0]
    assert loop.rate() == pytest.approx(2 / 3.25)
    assert loop.rate(scaled=False) == pytest.approx(2 / 5.0)


# ----------------------------------------------------------------- gate

def _report(passed=True, **details) -> bytes:
    return json.dumps({"check": "c", "pass": passed, "max_deviation": 0.0,
                       "details": details}, indent=2).encode() + b"\n"


def _iso_report(dims, span):
    return _report(properties={"image_dims": dims, "span_dim": span})


def test_gate_accepts_a_good_report_and_its_repetition():
    op = workloads.Op("isotypic", "iso")
    data = _iso_report({"[2]": 1, "[1, 1]": 2}, 3)
    assert workloads.gate(op, 0, data, None) is None
    assert workloads.gate(op, 0, data, data) is None


def test_gate_rejects_bad_exit_fail_verdict_and_corruption():
    op = workloads.Op("isotypic", "iso")
    good = _iso_report({"[2]": 1, "[1, 1]": 2}, 3)
    assert "exit code" in workloads.gate(op, 1, good, None)
    assert "pass" in workloads.gate(op, 0, _report(passed=False), None)
    corrupted = good.replace(b'"span_dim": 3', b'"span_dim": 30')
    assert "differ" in workloads.gate(op, 0, corrupted, good)
    assert "malformed" in workloads.gate(op, 0, good[:-5], None)
    assert "do not sum" in workloads.gate(
        op, 0, _iso_report({"[2]": 1, "[1, 1]": 1}, 3), None)


def test_gate_rejects_hom_dims_that_differ_from_the_oracle():
    hom = workloads.HomLaw(configs=(("cfg", None, None, None, None),),
                           oracle=((2, 1, 2),))
    op = workloads.Op("hom-law", "hom", hom=hom)
    right = _report(dim_hom_context=2, dim_hom_relation=1, dim_hom_product=2)
    assert workloads.gate(op, 0, right, None) is None
    wrong = workloads.HomLaw(hom.configs, oracle=((2, 1, 3),))
    reason = workloads.gate(workloads.Op("hom-law", "hom", hom=wrong), 0,
                            right, None)
    assert "character oracle" in reason


def test_character_oracle_on_sym2():
    trivial = [np.eye(1), np.eye(1)]
    sign = [np.eye(1), -np.eye(1)]
    swap = [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]
    assert workloads.character_hom_dim(trivial, sign) == 0
    assert workloads.character_hom_dim(sign, sign) == 1
    assert workloads.character_hom_dim(swap, swap) == 2


def test_runner_counts_a_corrupted_repetition_as_failed(tmp_path):
    out = tmp_path / "r.json"
    texts = iter([_report(), _report(), _report(extra=1)])

    def main(argv):
        out.write_bytes(next(texts))
        return 0

    runner = run.Runner(types.SimpleNamespace(cli=types.SimpleNamespace(main=main)))
    op = workloads.Op("collapse", "op", ("collapse",), str(out))
    loop = runner.loop([op], seconds=0, min_ops=3)
    assert len(loop.times) == len(loop.passes) == len(loop.factors) == 3
    assert (runner.attempted, runner.failed) == (3, 1)


# ------------------------------------------------------------- wrapping

def _bindings():
    import slplab.featspace
    snapshot = {name: dict(vars(mod)) for name, mod in sys.modules.items()
                if name == "slplab" or name.startswith("slplab.")}
    snapshot["FeatureMap"] = dict(vars(slplab.featspace.FeatureMap))
    return snapshot


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[name].keys() == b[name].keys()
        and all(a[name][k] is b[name][k] for k in a[name]) for name in a)


def test_traced_run_wraps_every_namespace_and_unwraps(tmp_path):
    import slplab.cli
    import slplab.factorize
    import slplab.featspace

    before = _bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert slplab.factorize.lift_renaming is not \
            before["slplab.featspace"]["lift_renaming"]
        assert slplab.featspace.FeatureMap.index is not \
            before["FeatureMap"]["index"]
        for argv in (["isotypic", "--entities", "3", "--relations", "1"],
                     ["collapse", "--atoms", "1", "--dim", "3"]):
            assert slplab.cli.main(argv + ["--out", str(tmp_path / "r")]) == 0
    assert _same(before, _bindings())

    assert tracer.call_count("cli.main") == 2
    assert tracer.call_count("featspace.lift_renaming") == 6
    assert tracer.call_count("queryspace.apply_renaming") > 0
    names = {tracer.names[fid] for fid in tracer.fn}
    assert "queryspace.apply_renaming" not in names
    assert {"cli.main", "featspace.lift_renaming",
            "numerics.minnorm_lstsq"} <= names
    layers = [tracer.layers[fid] for fid in tracer.fn]
    assert all(layers[p] != layers[i]
               for i, p in enumerate(tracer.parent) if p >= 0)
    selfs = tracing.self_times(tracer.start, tracer.end, tracer.parent)
    assert min(selfs) >= 0.0
    roots = [e - s for s, e, p in zip(tracer.start, tracer.end, tracer.parent)
             if p < 0]
    assert sum(selfs) == pytest.approx(sum(roots))
