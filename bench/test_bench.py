"""The benchmark's own tests: instances, checks, tracing and the run contract.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

They take a few minutes, since the check tests run each workload once and
the tracing tests run `run.py` as a benchmark run does.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import invoc  # noqa: E402
import workloads as W  # noqa: E402
from checks import CHECKS, oracle_rows  # noqa: E402
from dense import DenseReference  # noqa: E402
from tracing import Tracer  # noqa: E402

COUNTS = (
    "discretization.solve_calls", "discretization.solve_columns",
    "lower.calls", "lower.iterations", "value.calls", "value.misses",
    "relax.calls", "relax.inner_its", "relax.outer_its", "path.levels",
    "oracle.points", "oracle.solve_calls",
)


def _same_spec(a, b) -> None:
    assert a.grid.n_nodes == b.grid.n_nodes
    assert (a.sigma, a.solver_tol, a.active_tol) == (b.sigma, b.solver_tol, b.active_tol)
    assert a.x_set.kind == b.x_set.kind
    for name in ("lo", "hi"):
        np.testing.assert_array_equal(getattr(a.x_set, name), getattr(b.x_set, name))
    np.testing.assert_array_equal(a.lower.targets, b.lower.targets)
    for name in ("y_o", "u_o"):
        np.testing.assert_array_equal(getattr(a.upper, name), getattr(b.upper, name))
    np.testing.assert_array_equal(a.bounds.ua, b.bounds.ua)
    np.testing.assert_array_equal(a.bounds.ub, b.bounds.ub)


def test_seed_zero_builds_the_shipped_instances():
    for name, shipped in (("certify_deep", invoc.make_default_problem()),
                          ("oracle_box200", invoc.make_box_variant())):
        work = W.WORKLOADS[name]
        x_star = work.x_star(0)
        np.testing.assert_array_equal(x_star, [0.3, 0.7])
        _same_spec(work.build(x_star), shipped)


def test_seeds_pick_lattice_points():
    for name, work in W.WORKLOADS.items():
        for seed in range(12):
            x = work.x_star(seed)
            lattice = np.round(x * W.RESOLUTION) / W.RESOLUTION
            np.testing.assert_array_equal(x, lattice, err_msg=name)


def test_tracer_wraps_every_binding_site_and_restores_them():
    from invoc import path, relax, value

    original = value.value_sample
    tracer = Tracer()
    tracer.install()
    try:
        for module in (invoc, value, relax, path):
            assert module.value_sample is not original
            assert module.value_sample.__wrapped__ is original
    finally:
        tracer.uninstall()
    for module in (invoc, value, relax, path):
        assert module.value_sample is original


def test_sampler_subtracts_its_chunks_and_restores_the_alarm_handler():
    import signal
    import time

    from hostspeed import REFERENCE_S, Sampler

    previous = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with Sampler("small", 0.01) as timed:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    elapsed = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [d for _, d in timed.chunks[1:-1]]
    assert len(inside) >= 5  # chunks ran during the section
    assert timed.wall_s == pytest.approx(0.3 - sum(inside), abs=0.01)
    assert timed.wall_s < elapsed
    mean_chunk = sum(d for _, d in timed.chunks) / len(timed.chunks)
    assert timed.ref_s == pytest.approx(timed.wall_s * REFERENCE_S["small"] / mean_chunk)


def test_dense_closed_form_matches_bvls():
    spec = W.planted(np.array([0.3, 0.7]), W.unit_box())
    ref = DenseReference(spec)
    X = np.array([[0.0, 0.0], [0.25, 0.9], [1.0, 1.0]])
    vals, inside = ref.reduced_unconstrained(X)
    assert inside.all()
    np.testing.assert_allclose(vals, [ref.reduced(x) for x in X], rtol=1e-10, atol=1e-14)


# --- checks pass on real outputs and fail on corrupted ones ---------------

def _outputs(name, seed=0):
    work = W.WORKLOADS[name]
    x_star = work.x_star(seed)
    spec = work.build(x_star)
    out, attempted, failed = work.run(spec)
    assert failed == 0
    return name, spec, out, x_star, seed


@pytest.fixture(scope="module")
def certify():
    return _outputs("certify_deep")


@pytest.fixture(scope="module")
def oracle():
    return _outputs("oracle_box200")


@pytest.fixture(scope="module")
def bound():
    return _outputs("path_bound")


def _check(case, out):
    name, spec, _, x_star, seed = case
    return CHECKS[name](spec, out, x_star, seed)


def _copy_trace(trace):
    return replace(trace, limit=dict(trace.limit), records=list(trace.records))


@pytest.mark.parametrize("case", ["certify", "oracle", "bound"])
def test_checks_pass_on_the_real_outputs(case, request):
    data = request.getfixturevalue(case)
    assert _check(data, data[2]) == []


def test_certify_check_fails_on_shifted_limit_x(certify):
    out = dict(certify[2])
    out["trace"] = trace = _copy_trace(out["trace"])
    trace.limit["x"] = trace.limit["x"] + np.array([1e-2, -1e-2])
    fails = _check(certify, out)
    assert any("not within 1e-2" in f for f in fails)
    assert any("dense lower solution" in f for f in fails)


def test_certify_check_fails_on_a_level_gap_above_eps(certify):
    _, spec, out, _, _ = certify
    out = dict(out)
    out["trace"] = trace = _copy_trace(out["trace"])
    k = 30
    rec = trace.records[k]
    # move the control at level k and its state consistently, so that only
    # the level's optimal-value gap is wrong
    du = np.full(spec.grid.n_nodes, 1e-3)
    relaxed = replace(rec.relaxed, u=rec.relaxed.u + du,
                      y=rec.relaxed.y + DenseReference(spec).S @ du)
    trace.records[k] = replace(rec, relaxed=relaxed)
    fails = _check(certify, out)
    assert len(fails) == 1 and fails[0].startswith(f"level {k}:")


def test_oracle_check_fails_on_one_perturbed_lattice_value(oracle):
    _, _, out, _, seed = oracle
    grid = out["grid"]
    samples = grid.samples.copy()
    row = oracle_rows(seed)[0]
    samples[row, 2] += 1e-6
    fails = _check(oracle, {"grid": replace(grid, samples=samples)})
    assert any("closed-form" in f for f in fails)
    assert any(f"lattice row {row}" in f for f in fails)


def test_bound_check_fails_on_shifted_limit_x(bound):
    out = dict(bound[2])
    out["trace"] = trace = _copy_trace(out["trace"])
    trace.limit["x"] = trace.limit["x"] + np.array([1e-2, -1e-2])
    assert any("dense" in f for f in _check(bound, out))


def test_bound_check_fails_without_a_binding_node(bound):
    out = dict(bound[2])
    out["trace"] = trace = _copy_trace(out["trace"])
    trace.limit["u"] = np.minimum(trace.limit["u"], bound[1].bounds.ub - 1e-3)
    assert any("upper bound" in f for f in _check(bound, out))


# --- whole runs of run.py ------------------------------------------------

def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )
    return proc


def _traced(workload):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_traced_counts_repeat_and_every_lower_solve_goes_through_value():
    first, second = _traced("certify_deep"), _traced("certify_deep")
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["lower.calls"] == first["value.misses"] > 0
    assert first["oracle.points"] == (W.RESOLUTION + 1)
    bound = _traced("path_bound")
    assert bound["lower.calls"] == bound["value.misses"] > 0
    assert bound["oracle.points"] == 0 and bound["path.levels"] == 21


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "certify_deep", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
