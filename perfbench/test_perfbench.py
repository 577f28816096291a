"""Self-tests of the benchmark: oracle, span arithmetic, tiny runs.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import loop  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------------ oracle

def test_geometric_mean_solves_the_riccati_equation():
    rng = np.random.default_rng(7)
    for n in (2, 3, 6):
        a = oracle.random_spd(rng, n)
        b = oracle.random_spd(rng, n)
        x = oracle.mean(a, b, oracle.catalog("geometric"))
        assert oracle.rel_diff(x @ np.linalg.solve(a, x), b) < 1e-12


@pytest.mark.parametrize("cls,value,expect", [
    ("sym", 0.0, lambda t: 0.5 * (1.0 + t)),
    ("sym", 0.5, np.sqrt),
    ("sym", 1.0, lambda t: 2.0 * t / (1.0 + t)),
    ("sa", 0.0, np.ones_like),
    ("sa", 0.3, lambda t: t ** 0.3),
    ("sa", 1.0, lambda t: t),
])
def test_constant_densities_give_the_known_means(cls, value, expect):
    lo, hi = (0.0, 1.0) if cls == "sym" else (-1.0, 0.0)
    density = {"class": cls, "breaks": [lo, hi], "values": [value]}
    t = np.logspace(-4.0, 4.0, 41)
    got = oracle.density_rep(density)(t)
    assert np.max(np.abs(got - expect(t)) / expect(t)) < 1e-13


def test_closed_form_derivative_matches_finite_differences():
    density = {"class": "sa", "breaks": [-1.0, -0.4, 0.0], "values": [0.2, 0.7]}
    t = np.array([0.01, 0.5, 2.0, 30.0])
    h = 1e-6 * t
    f, df = oracle.density_rep_and_slope(density, t)
    fd = (oracle.density_rep(density)(t + h) - oracle.density_rep(density)(t - h)) / (2 * h)
    assert np.max(np.abs(df - fd) / np.abs(df)) < 1e-7


def test_closed_form_matches_quadrature():
    import checks
    densities = [{"class": "sym", "breaks": [0.0, 0.3, 0.8, 1.0], "values": [0.1, 0.9, 0.4]},
                 {"class": "sa", "breaks": [-1.0, -0.5, 0.0], "values": [0.6, 0.25]}]
    assert checks.cross_check_densities(densities, points=(1e-3, 0.5, 7.0)) < 1e-10


def test_oracle_replays_the_package_sampler():
    from opmeans.spd import random_spd_from
    a = np.random.default_rng(3)
    b = np.random.default_rng(3)
    for n in (2, 3, 5):
        assert np.array_equal(random_spd_from(a, n, 50.0).entries, oracle.random_spd(b, n, 50.0))


# -------------------------------------------------------------- span arithmetic

def test_self_times_on_a_synthetic_span_tree():
    # op 0 [0, 10] -> means 1 [1, 9] -> spd 2 [2, 4], spd 3 [5, 8] -> spd 4 [6, 7]
    ids = np.arange(5)
    parents = np.array([-1, 0, 1, 1, 3])
    dur = np.array([10.0, 8.0, 2.0, 3.0, 1.0])
    assert np.allclose(tracer.self_times(ids, parents, dur), [2.0, 3.0, 2.0, 2.0, 1.0])
    names = [(tracer.BENCH, "op"), ("means", "eval_mean"), ("spd", "sym_eigendecompose"),
             ("spd", "sqrt_pair"), ("spd", "sym_eigendecompose")]
    spans = {"id": ids, "parent": parents, "name": ids, "start": np.array([0.0, 1, 2, 5, 6]),
             "end": np.array([10.0, 9, 4, 8, 7]), "error": np.array([0, 0, 0, 1, 0]),
             "op": np.zeros(5, dtype=np.int64), "value": np.array([0.0, 0, 1, 0, 1])}
    got = tracer.summarize(spans, names, ["eval_mean"])
    assert got["layers"]["spd"]["self_s"] == pytest.approx(5.0)    # spans 2, 3 and 4
    assert got["layers"]["means"]["self_s"] == pytest.approx(3.0)
    assert got["bench_self_s"] == pytest.approx(2.0)
    assert got["layers"]["spd"]["calls"] == 3
    assert got["layers"]["spd"]["decompositions"] == 2
    assert got["layers"]["spd"]["errors"] == 1       # span 3 raised and entered the layer
    assert got["decompositions_per_op"]["eval_mean"] == 2.0


def test_each_op_runs_once_and_a_raising_op_is_recorded():
    calls = []

    def ok():
        calls.append("ok")
        time.sleep(0.01)
        return 1.0

    def bad():
        calls.append("bad")
        raise ValueError("boom")
    res = loop.run_ops([workloads.Op("x", ok), workloads.Op("y", bad)])
    assert calls == ["ok", "bad"]
    assert res.outputs == [1.0, ("exception", "ValueError: boom")]
    assert res.latency[0] >= 0.01 and res.elapsed >= sum(res.latency)
    assert res.digests[0] == loop.digest(1.0) != res.digests[1]


def test_scale_factors_follow_the_host_and_ignore_one_slow_probe():
    for name in workloads.WORKLOADS:
        ref = speed.reference_s(name)
        assert speed.scale_factors([ref] * 4, name) == [1.0] * 3
        assert speed.scale_factors([2.0 * ref] * 6, name) == [0.5] * 5
        assert speed.scale_factors([ref, ref, 5.0 * ref, ref, ref, ref], name) == [1.0] * 5
    assert speed.reference_s("density-cli") > speed.reference_s("pair-solve")


def test_passes_draw_their_own_inputs():
    import opmeans as om

    def inputs(pass_index):
        ops = workloads.build("pair-solve", om, 3, pass_index, "")
        return [op.kind for op in ops], [next(v for v in op.spec.values()
                                             if isinstance(v, np.ndarray)) for op in ops]
    kinds, first = inputs(0)
    again_kinds, again = inputs(0)
    second_kinds, second = inputs(1)
    assert kinds == again_kinds == second_kinds
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not any(np.array_equal(a, b) for a, b in zip(first, second))


# ------------------------------------------------------------------ tiny runs



def _package():
    import opmeans as om
    import opmeans.cli  # noqa: F401
    return om


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_and_untraced_runs_give_identical_results(name):
    om = _package()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        ops = workloads.build(name, om, 11, 0, workdir)
        half = len(ops) // 2
        plain = loop.run_ops(ops)
        tr = tracer.Tracer()
        parts = []
        for start, chunk in ((0, ops[:half]), (half, ops[half:])):   # install, uninstall, again
            try:
                tr.install(om)
                assert hasattr(om.eval_mean, "__wrapped__")          # the package namespace
                assert hasattr(om.means.sqrt_pair, "__wrapped__")    # a from-import binding
                parts.append(loop.run_ops(chunk, tracer=tr, first_index=start))
            finally:
                tr.uninstall()
            assert not hasattr(om.means.sqrt_pair, "__wrapped__")
        traced = loop.concat(parts)
    assert plain.digests == traced.digests
    assert len(tr.ids) > len(ops)
    assert set(tr.arrays()["op"]) == set(range(len(ops)))


def _measure(name, trace):
    om = _package()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        if trace:
            return run.per_layer(name, om, 5, workdir, passes=1)
        return run.end_to_end(name, om, 5, 0.0, workdir, passes=1, cold_starts=1)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_gives_every_metric(name):
    metrics, names, info, attempted, failed, correct, _ = _measure(name, trace=0)
    assert [k for k, _ in names] == [k for k, _ in run.END_TO_END] == list(metrics)
    assert attempted == workloads.PATTERN_LEN[name] and info["passes"] == 1 and correct
    assert info["mismatched_repeats"] == 0 and metrics["setup_s"] > 0
    tmetrics, tnames, tinfo, _, _, tcorrect, _ = _measure(name, trace=1)
    assert [k for k, _ in tnames] == list(tmetrics) and tcorrect
    assert tinfo["reference"] == info["reference"]   # fail_frac, worst_digits, CLI digest
    assert tinfo["traced_untraced_mismatch"] == 0
    assert tmetrics["spd.decompositions"] > 0
    if name != "density-cli":
        assert tmetrics["hdensity.calls"] == 0


def test_merged_result_prefixes_each_workload():
    one = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"m": {"value": 1, "unit": "s"}}}
    two = {"correct": False, "attempted": 4, "failed": 1, "metrics": {"m": {"value": 2, "unit": "s"}}}
    got = run.merge({"a": one, "b": two})
    assert got == {"correct": False, "attempted": 7, "failed": 1,
                   "metrics": {"a.m": {"value": 1, "unit": "s"}, "b.m": {"value": 2, "unit": "s"}}}


def test_cli_output_is_byte_identical_across_processes():
    code = ("import sys, tempfile; sys.path[:0] = ['perfbench', 'src']; import run, opmeans.cli\n"
            "with tempfile.TemporaryDirectory(prefix='.perfbench-', dir='.') as d:\n"
            "    print(run.per_layer('density-cli', opmeans, 7, d, passes=1)[2]['reference'])")
    digests = [subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=170, check=True).stdout for _ in range(2)]
    assert "cli_digest" in digests[0] and digests[0] == digests[1]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == run.per_layer_names(workloads.KINDS))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_package_source():
    import shutil
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as bare:
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pair-solve",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
