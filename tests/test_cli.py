"""Command-line behavior: output files, manifests, determinism, exit codes.

Everything runs in-process through cli.main except the entry-point check:
it starts the target that pyproject.toml declares for the `invoc` script in
its own interpreter, as the generated console-script wrapper does, and also
runs the installed `invoc` script when one is on PATH.
"""

import argparse
import csv
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

import numpy as np
import pytest
from numpy.testing import assert_allclose

import invoc
import invoc.path
from invoc import cli, load_problem, save_problem, solve_lower, value_sample
from invoc.errors import ConvergenceError
from invoc.model import _numpy_to_json

from conftest import make_generated_spec


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _encoded(payload):
    """payload as the result files hold it: through write_json's encoder and back."""
    return json.loads(json.dumps(payload, default=_numpy_to_json))


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def problem_file(unit_spec, tmp_path_factory):
    path = tmp_path_factory.mktemp("prob") / "unit.json"
    save_problem(unit_spec, path)
    return str(path)


@pytest.fixture(scope="module")
def tilted_problem_file(tilted_spec, tmp_path_factory):
    path = tmp_path_factory.mktemp("prob") / "tilted.json"
    save_problem(tilted_spec, path)
    return str(path)


@pytest.fixture(scope="module")
def bounded_problem_file(bounded_spec, tmp_path_factory):
    path = tmp_path_factory.mktemp("prob") / "bounded.json"
    save_problem(bounded_spec, path)
    return str(path)


def _declared_entry_point(name):
    """The console script `name` as the project declares it.

    Read from pyproject.toml in a checkout; otherwise (Python 3.10, or no
    checkout) from the installed distribution's console_scripts metadata.
    """
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    if tomllib is not None and pyproject.is_file():
        with open(pyproject, "rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert name in scripts, f"pyproject.toml declares no {name!r} script"
        return importlib.metadata.EntryPoint(name, scripts[name], "console_scripts")
    found = importlib.metadata.entry_points(group="console_scripts", name=name)
    assert found, f"no {name!r} console script is declared or installed"
    return next(iter(found))


def test_installed_entry_point_reports_version(tmp_path):
    ep = _declared_entry_point("invoc")
    # the body of the wrapper script that pip generates for the entry point
    wrapper = (
        "import sys\n"
        f"from {ep.module} import {ep.attr.split('.')[0]}\n"
        "sys.argv[0] = 'invoc'\n"
        f"sys.exit({ep.attr}())\n"
    )
    # the child imports the same invoc that this test imported
    src = str(Path(invoc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    runs = [([sys.executable, "-c", wrapper, "--version"], env)]
    installed = shutil.which("invoc")
    if installed is not None:
        runs.append(([installed, "--version"], None))
    for command, run_env in runs:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=60,
            cwd=tmp_path, env=run_env,
        )
        assert proc.returncode == 0, (command, proc.stderr)
        assert proc.stdout.strip() == invoc.__version__, command


def test_make_default_writes_problem_and_manifest(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["make-default", "--out", str(out)]) == 0
    spec = load_problem(out / "default_problem.json")
    assert spec.metadata["x_star"] == [0.3, 0.7]
    manifest = _read_json(out / "manifest.json")
    assert manifest["command"] == "make-default"
    assert manifest["outputs"] == ["default_problem.json"]
    assert manifest["tool_version"] == invoc.__version__
    assert manifest["seed"] is None  # only value takes --seed
    assert len(manifest["problem_digest"]) == 64
    import hashlib
    digest = hashlib.sha256((out / "default_problem.json").read_bytes()).hexdigest()
    assert manifest["problem_digest"] == digest
    assert "timestamp" in manifest


def test_make_default_box_variant(tmp_path):
    assert cli.main(["make-default", "--out", str(tmp_path), "--variant", "box"]) == 0
    spec = load_problem(tmp_path / "box_problem.json")
    assert spec.x_set.kind == "box"


def test_lower_command_output(problem_file, unit_spec, tmp_path):
    rc = cli.main([
        "lower", "--problem", problem_file, "--out", str(tmp_path),
        "--x", "0.5,0.5",
    ])
    assert rc == 0
    sol = _read_json(tmp_path / "lower_solution.json")
    assert sol["kkt_residual"] <= 1e-9
    ref = solve_lower(unit_spec, np.array([0.5, 0.5]))
    assert_allclose(sol["u"], ref.u, rtol=0, atol=0)
    assert_allclose(sol["p"], ref.p, rtol=0, atol=0)
    manifest = _read_json(tmp_path / "manifest.json")
    assert manifest["overrides"]["x"] == "0.5,0.5"
    assert manifest["outputs"] == ["lower_solution.json"]


def test_value_single_point_slice(problem_file, unit_spec, tmp_path):
    rc = cli.main([
        "value", "--problem", problem_file, "--out", str(tmp_path),
        "--x", "0.5,0.5",
    ])
    assert rc == 0
    rows = _read_csv(tmp_path / "value_slice.csv")
    assert rows[0] == ["t", "x1", "x2", "phi", "dphi1", "dphi2"]
    assert len(rows) == 2  # degenerate slice collapses to one sample
    assert float(rows[1][0]) == 0.0
    ref = value_sample(unit_spec, np.array([0.5, 0.5]))
    assert float(rows[1][3]) == pytest.approx(ref.phi, rel=1e-12)


def test_value_segment_row_count(problem_file, tmp_path):
    rc = cli.main([
        "value", "--problem", problem_file, "--out", str(tmp_path),
        "--x", "1,0;0,1", "--resolution", "5",
    ])
    assert rc == 0
    rows = _read_csv(tmp_path / "value_slice.csv")
    assert len(rows) == 6
    assert [float(r[0]) for r in rows[1:]] == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_value_random_samples_deterministic(problem_file, tmp_path):
    out = [tmp_path / f"r{i}" for i in range(3)]
    for d in out[:2]:
        rc = cli.main([
            "value", "--problem", problem_file, "--out", str(d),
            "--samples", "4", "--seed", "3",
        ])
        assert rc == 0
    rc = cli.main([
        "value", "--problem", problem_file, "--out", str(out[2]),
        "--samples", "4", "--seed", "4",
    ])
    assert rc == 0
    first = (out[0] / "value_slice.csv").read_bytes()
    assert first == (out[1] / "value_slice.csv").read_bytes()
    assert first != (out[2] / "value_slice.csv").read_bytes()
    assert len(_read_csv(out[0] / "value_slice.csv")) == 5


@pytest.mark.parametrize("extra", [["--x", "0.5,0.5"], ["--resolution", "5"]])
def test_value_samples_with_slice_options_exits_2(problem_file, tmp_path, extra):
    # random samples read neither the slice endpoints nor the slice length
    rc = cli.main([
        "value", "--problem", problem_file, "--out", str(tmp_path),
        "--samples", "4", *extra,
    ])
    assert rc == 2
    err = _read_json(tmp_path / "error.json")
    assert err["error"] == "ValidationError" and "--samples takes neither" in err["message"]
    assert not (tmp_path / "value_slice.csv").exists()


def test_relax_command_output(problem_file, tmp_path):
    rc = cli.main([
        "relax", "--problem", problem_file, "--out", str(tmp_path),
        "--eps0", "1e-3",
    ])
    assert rc == 0
    sol = _read_json(tmp_path / "relaxed_solution.json")
    assert sol["eps"] == 1e-3
    assert sol["converged"] is True
    assert sol["gap"] <= 1e-3 + 1e-8
    assert len(sol["u"]) == 16


def test_path_then_certify_round_trip(problem_file, tmp_path):
    run = tmp_path / "path"
    rc = cli.main([
        "path", "--problem", problem_file, "--out", str(run),
        "--eps0", "1e-2", "--steps", "6",
    ])
    assert rc == 0
    rows = _read_csv(run / "path_trace.csv")
    assert len(rows) == 8
    # the per-level counts match an in-process run of the same path, whose
    # level 0 solves every later one: those are carried, with no work
    trace = invoc.run_path(load_problem(problem_file), eps0=1e-2, steps=6)
    header = rows[0]
    limit = _read_json(run / "limit.json")
    for name in ("inner_iterations", "value_iterations", "outer_iterations"):
        column = [int(row[header.index(name)]) for row in rows[1:]]
        assert column == [getattr(trace.records[0].relaxed, name)] + 6 * [0]
        assert limit["work"][name] == sum(column)
    assert [row[header.index("start")] for row in rows[1:]] == ["cold"] + 6 * ["carried"]
    assert limit["completed"] == 7
    assert limit["failure"] is None
    assert limit["limit"]
    manifest = _read_json(run / "manifest.json")
    assert manifest["outputs"] == [
        "path_trace.csv", "limit.json",
        "candidate_point.json", "candidate_multipliers.json",
    ]

    cert_dir = tmp_path / "cert"
    rc = cli.main([
        "certify", "--problem", problem_file, "--out", str(cert_dir),
        "--point", str(run / "candidate_point.json"),
        "--multipliers", str(run / "candidate_multipliers.json"),
    ])
    assert rc == 0
    cert = _read_json(cert_dir / "certificate.json")
    assert cert["classification"] in ("none", "W", "C", "S")
    assert cert["tol"] == 1e-5
    assert len(cert["residuals"]) == 12


_RESULT_KEYS = {
    "lower_solution.json": {"x", "y", "u", "p", "lam", "kkt_residual", "iterations"},
    "relaxed_solution.json": {
        "eps", "x", "y", "u", "alpha", "z", "p", "lam", "upper_value", "gap",
        "inner_iterations", "outer_iterations", "value_iterations", "converged", "residuals",
    },
    "limit.json": {
        "eps0", "ratio", "steps", "completed", "deep_enough", "multiplier_sup",
        "multipliers_bounded", "warnings", "failure", "limit", "work",
    },
    "certificate.json": {"residuals", "classification", "tol", "active_sets"},
    "oracle.json": {"best_x", "best_value", "sample_count", "resolution", "lattice"},
}


def test_result_files_hold_exactly_their_keys(problem_file, tmp_path):
    # each JSON result file is its result type's fields; a new field changes
    # a file's format only together with this list
    common = ["--problem", problem_file, "--out", str(tmp_path)]
    assert cli.main(["lower", *common, "--x", "0.5,0.5"]) == 0
    assert cli.main(["relax", *common, "--eps0", "1e-2"]) == 0
    assert cli.main(["path", *common, "--eps0", "1e-2", "--steps", "2"]) == 0
    assert cli.main(["certify", *common, "--point", str(tmp_path / "candidate_point.json"),
                     "--multipliers", str(tmp_path / "candidate_multipliers.json")]) == 0
    assert cli.main(["oracle", *common, "--resolution", "4"]) == 0
    for name, keys in _RESULT_KEYS.items():
        assert set(_read_json(tmp_path / name)) == keys, name
    active = _read_json(tmp_path / "certificate.json")["active_sets"]
    assert set(active) == {"i_a_plus", "i_b_minus", "biactive_a", "biactive_b", "inactive", "tol_act"}
    assert all(isinstance(i, int) for key in set(active) - {"tol_act"} for i in active[key])


def _tols(tol):
    return {"feas_tol": tol, "stat_tol": tol, "comp_tol": tol}


def test_path_trace_records_each_level_start(tilted_problem_file, tmp_path):
    # the unplanted path binds from level 4 on, so from level 6 on each
    # level starts from the extrapolation of the two before it
    rc = cli.main([
        "path", "--problem", tilted_problem_file, "--out", str(tmp_path), "--steps", "8",
    ])
    assert rc == 0
    rows = _read_csv(tmp_path / "path_trace.csv")
    column = [row[rows[0].index("start")] for row in rows[1:]]
    trace = invoc.run_path(load_problem(tilted_problem_file), steps=8)
    assert column == [r.start for r in trace.records]
    assert column[0] == "cold" and column[-3:] == 3 * ["predicted"]


# at tol 1e-2 both results differ from those at the default tolerances
@pytest.mark.parametrize("tol", [1e-6, 1e-2])
def test_path_tol_reaches_the_solver(problem_file, tmp_path, tol):
    rc = cli.main(["path", "--problem", problem_file, "--out", str(tmp_path), "--tol", str(tol)])
    assert rc == 0
    trace = invoc.run_path(load_problem(problem_file), **_tols(tol))
    point, multipliers = invoc.extract_candidate(trace)
    assert _read_json(tmp_path / "candidate_point.json") == _encoded(point)
    assert _read_json(tmp_path / "candidate_multipliers.json") == _encoded(multipliers)


@pytest.mark.parametrize("tol", [1e-6, 1e-2])
def test_relax_tol_reaches_the_solver(tmp_path, tol):
    problem = tmp_path / "gamma.json"
    save_problem(make_generated_spec(16, (0.25, 0.75), gamma=1e-2), problem)
    out = tmp_path / "out"
    rc = cli.main(["relax", "--problem", str(problem), "--out", str(out),
                   "--eps0", "1e-2", "--tol", str(tol)])
    assert rc == 0
    sol = invoc.solve_relaxed(load_problem(problem), 1e-2, **_tols(tol))
    assert _read_json(out / "relaxed_solution.json") == _encoded(cli._fields(sol, "sample", "step", "member"))


def test_result_files_bit_identical_across_runs(problem_file, tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        rc = cli.main([
            "path", "--problem", problem_file, "--out", str(d),
            "--eps0", "1e-2", "--steps", "4",
        ])
        assert rc == 0
    for name in ("path_trace.csv", "limit.json",
                 "candidate_point.json", "candidate_multipliers.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
    # manifests carry the only timestamp and match once it is stripped
    manifests = [_read_json(d / "manifest.json") for d in dirs]
    assert manifests[0] != manifests[1] or (
        manifests[0]["timestamp"] == manifests[1]["timestamp"]
    )
    for m in manifests:
        del m["timestamp"]
    assert manifests[0] == manifests[1]


def test_missing_problem_file_exits_2(tmp_path):
    rc = cli.main([
        "lower", "--problem", str(tmp_path / "nope.json"),
        "--out", str(tmp_path), "--x", "0.5,0.5",
    ])
    assert rc == 2
    err = _read_json(tmp_path / "error.json")
    assert err["exit_code"] == 2
    assert err["error"]


def _candidate_files(tmp_path, **fields):
    """--point and --multipliers of the zero candidate at x = (0.5, 0.5) on
    16 nodes, with the given fields replaced."""
    data = {"x": [0.5, 0.5], "u": [0.0] * 16, "z": [0.0] * 2,
            **{key: [0.0] * 16 for key in ("mu", "w", "rho", "xi")}, **fields}
    args = []
    for name, keys in (("point", ("x", "u")), ("multipliers", ("z", "mu", "w", "rho", "xi"))):
        (tmp_path / f"{name}.json").write_text(json.dumps({key: data[key] for key in keys}))
        args += [f"--{name}", str(tmp_path / f"{name}.json")]
    return args


def test_malformed_problem_field_exits_2(unit_spec, tmp_path):
    data = invoc.problem_to_dict(unit_spec)
    data["grid"]["N"] = "abc"
    problem = tmp_path / "bad.json"
    problem.write_text(json.dumps(data))
    out = tmp_path / "out"
    rc = cli.main(["lower", "--problem", str(problem), "--out", str(out), "--x", "0.5,0.5"])
    assert rc == 2
    err = _read_json(out / "error.json")
    assert err["error"] == "ValidationError" and err["exit_code"] == 2
    assert "grid.N must be an integer" in err["message"]


def test_missing_point_file_exits_2(problem_file, tmp_path):
    missing = str(tmp_path / "nope.json")
    rc = cli.main([
        "certify", "--problem", problem_file, "--out", str(tmp_path),
        "--point", missing, "--multipliers", missing,
    ])
    assert rc == 2
    err = _read_json(tmp_path / "error.json")
    assert err["error"] == "FileNotFoundError" and err["exit_code"] == 2


@pytest.fixture
def umask_027():
    old = os.umask(0o027)
    yield
    os.umask(old)


def test_every_output_gets_the_mode_open_gives(problem_file, tmp_path, umask_027):
    reference = tmp_path / "reference"
    with open(reference, "w"):
        pass
    mode = reference.stat().st_mode & 0o777
    assert mode == 0o640
    runs = [
        ["make-default"],
        ["lower", "--problem", problem_file, "--x", "0.5,0.5"],
        ["value", "--problem", problem_file, "--x", "0.5,0.5"],
        ["path", "--problem", problem_file, "--eps0", "1e-2", "--steps", "2"],
        ["oracle", "--problem", problem_file, "--resolution", "4", "--landscape"],
        ["lower", "--problem", str(tmp_path / "nope.json"), "--x", "0.5,0.5"],
    ]
    for i, run in enumerate(runs):
        cli.main([*run, "--out", str(tmp_path / f"run{i}")])
    files = sorted(tmp_path.glob("run*/*"))
    assert {f.name for f in files} >= {
        "default_problem.json", "manifest.json", "lower_solution.json",
        "value_slice.csv", "path_trace.csv", "limit.json", "candidate_point.json",
        "oracle.json", "landscape.csv", "error.json",
    }
    modes = {str(f.relative_to(tmp_path)): f.stat().st_mode & 0o777 for f in files}
    assert modes == dict.fromkeys(modes, mode)


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["lower", "relax", "path", "certify", "oracle"])
def test_non_positive_tol_exits_2(problem_file, tmp_path, command, tol):
    extra = {
        "lower": ["--x", "0.5,0.5"],
        "certify": _candidate_files(tmp_path),
        "oracle": ["--resolution", "4"],
    }.get(command, [])
    out = tmp_path / "out"
    rc = cli.main([command, "--problem", problem_file, "--out", str(out), "--tol", tol, *extra])
    assert rc == 2
    err = _read_json(out / "error.json")
    assert err["exit_code"] == 2 and "must be positive" in err["message"]


def test_unparsable_vector_exits_2(problem_file, tmp_path):
    rc = cli.main([
        "lower", "--problem", problem_file, "--out", str(tmp_path),
        "--x", "0.5,spam",
    ])
    assert rc == 2
    err = _read_json(tmp_path / "error.json")
    assert "cannot parse vector" in err["message"]


@pytest.mark.parametrize("text", ["nan,0.5", "inf,0.5"])
def test_non_finite_parameter_exits_2(problem_file, tmp_path, text):
    rc = cli.main([
        "lower", "--problem", problem_file, "--out", str(tmp_path), "--x", text,
    ])
    assert rc == 2
    err = _read_json(tmp_path / "error.json")
    assert err["error"] == "DomainError" and err["exit_code"] == 2


@pytest.mark.parametrize("args, message", [
    (["relax", "--eps0", "inf"], "relaxation parameter must be positive and finite"),
    (["path", "--eps0", "inf"], "eps0 must be positive and finite"),
    (["value", "--samples", "3", "--seed", "-1"], "--seed must be at least 0, got -1"),
], ids=["relax-eps0", "path-eps0", "value-seed"])
def test_infinite_or_negative_option_exits_2(problem_file, tmp_path, args, message):
    # each used to exit 1 with a traceback, leaving no error.json
    out = tmp_path / "out"
    rc = cli.main([*args, "--problem", problem_file, "--out", str(out)])
    assert rc == 2
    err = _read_json(out / "error.json")
    assert err["exit_code"] == 2 and message in err["message"]


@pytest.mark.parametrize("args, error, message", [
    (["--samples", "0"], "DomainError", "--samples must be at least 1, got 0"),
    ([], "ValidationError", "value requires --x (slice endpoints) or --samples"),
    (["--x", "a;b;c"], "ValidationError",
     "slice takes at most two endpoints separated by ';'"),
    (["--x", "0.2,0.8;0.6,0.4", "--resolution", "0"], "DomainError",
     "--resolution must be at least 1, got 0"),
], ids=["samples-0", "no-x-no-samples", "three-endpoints", "resolution-0"])
def test_value_refuses_malformed_options(problem_file, tmp_path, args, error, message):
    out = tmp_path / "out"
    rc = cli.main(["value", "--problem", problem_file, "--out", str(out), *args])
    assert rc == 2
    err = _read_json(out / "error.json")
    assert err["error"] == error and err["message"] == message


def test_lower_without_x_exits_2(problem_file, tmp_path):
    rc = cli.main(["lower", "--problem", problem_file, "--out", str(tmp_path)])
    assert rc == 2
    assert "requires --x" in _read_json(tmp_path / "error.json")["message"]


def test_negative_relaxation_exits_2(problem_file, tmp_path):
    rc = cli.main([
        "relax", "--problem", problem_file, "--out", str(tmp_path),
        "--eps0", "-1",
    ])
    assert rc == 2
    assert _read_json(tmp_path / "error.json")["exit_code"] == 2


def test_certify_missing_field_exits_2(problem_file, tmp_path):
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"x": [0.5, 0.5], "y": [0.0] * 16}))
    rc = cli.main([
        "certify", "--problem", problem_file, "--out", str(tmp_path),
        "--point", str(point), "--multipliers", str(point),
    ])
    assert rc == 2
    assert "missing field" in _read_json(tmp_path / "error.json")["message"]


@pytest.mark.parametrize("field", [None, "x", "u", "z", "mu", "w", "rho", "xi"])
def test_certify_truncated_field_exits_2(problem_file, unit_spec, tmp_path, field):
    sol = solve_lower(unit_spec, np.array([0.3, 0.7]))
    zeros = np.zeros(16)
    point = {"x": sol.x, "u": sol.u}
    multipliers = {"z": np.zeros(2), "mu": zeros, "w": zeros, "rho": zeros, "xi": zeros}
    if field is not None:
        data = point if field in point else multipliers
        data[field] = data[field][:-1]
    files = []
    for name, payload in (("point", point), ("multipliers", multipliers)):
        files += [f"--{name}", str(tmp_path / f"{name}.json")]
        (tmp_path / f"{name}.json").write_text(
            json.dumps({k: np.asarray(v).tolist() for k, v in payload.items()}))
    out = tmp_path / "out"
    rc = cli.main(["certify", "--problem", problem_file, "--out", str(out), *files])
    if field is None:
        assert rc == 0
        return
    assert rc == 2
    err = _read_json(out / "error.json")
    assert err["error"] == "DimensionError"
    assert repr(field) in err["message"]


@pytest.mark.parametrize("field, value", [("x", "ab"), ("mu", {"a": 1}), ("z", ["a", "b"])])
def test_certify_non_numeric_field_exits_2(problem_file, tmp_path, field, value):
    out = tmp_path / "out"
    files = _candidate_files(tmp_path, **{field: value})
    rc = cli.main(["certify", "--problem", problem_file, "--out", str(out), *files])
    assert rc == 2
    err = _read_json(out / "error.json")
    assert err["error"] == "ValidationError"
    assert f"field {field!r} is not an array of numbers" in err["message"]


def test_certify_infinite_literal_exits_2(problem_file, tmp_path):
    # json.dumps writes inf as Infinity, which the reader refuses
    out = tmp_path / "out"
    files = _candidate_files(tmp_path, z=[float("inf"), 0.0])
    assert "Infinity" in (tmp_path / "multipliers.json").read_text()
    rc = cli.main(["certify", "--problem", problem_file, "--out", str(out), *files])
    assert rc == 2
    err = _read_json(out / "error.json")
    assert err["error"] == "ValidationError"
    assert "multipliers.json is not valid JSON: Infinity is not a JSON number" in err["message"]
    assert not (out / "certificate.json").exists()


# every option each subcommand accepts; each one is read by its command
_OPTIONS = {
    "lower": {"--problem", "--out", "--tol", "--x"},
    "value": {"--problem", "--out", "--seed", "--x", "--samples", "--resolution"},
    "relax": {"--problem", "--out", "--tol", "--eps0"},
    "path": {"--problem", "--out", "--tol", "--eps0", "--ratio", "--steps"},
    "certify": {"--problem", "--out", "--tol", "--point", "--multipliers"},
    "oracle": {"--problem", "--out", "--tol", "--resolution", "--landscape"},
    "make-default": {"--out", "--variant"},
}


def test_each_subcommand_takes_only_the_options_it_reads():
    parser = cli._build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {
        name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert found == _OPTIONS


def test_path_failure_exits_3_without_candidate(tilted_problem_file, tmp_path, monkeypatch):
    real = invoc.path.solve_relaxed

    def flaky(spec, eps, **kwargs):
        if eps < 6e-3:
            raise ConvergenceError("forced failure", residuals={"x": 1.0})
        return real(spec, eps, **kwargs)

    monkeypatch.setattr(invoc.path, "solve_relaxed", flaky)
    # the tilted path binds from level 0 on, so level 1 is solved and fails
    rc = cli.main([
        "path", "--problem", tilted_problem_file, "--out", str(tmp_path),
        "--eps0", "1e-2", "--ratio", "0.25", "--steps", "4",
    ])
    assert rc == 3
    err = _read_json(tmp_path / "error.json")
    assert err["exit_code"] == 3
    assert err["residuals"] == {"x": 1.0}
    # partial trace persists, candidate and manifest must not
    limit = _read_json(tmp_path / "limit.json")
    assert limit["failure"]["k"] == 1
    assert not (tmp_path / "candidate_point.json").exists()
    assert not (tmp_path / "manifest.json").exists()


def test_oracle_failure_exits_3(bounded_problem_file, tmp_path, monkeypatch):
    # the bound binds at some lattice rows, which a kernel allowed no band
    # solve cannot solve
    import invoc.lower

    monkeypatch.setattr(invoc.lower, "_MAX_SOLVES", 0)
    rc = cli.main([
        "oracle", "--problem", bounded_problem_file, "--out", str(tmp_path),
        "--resolution", "5",
    ])
    assert rc == 3
    err = _read_json(tmp_path / "error.json")
    assert err["exit_code"] == 3
    assert err["residuals"]["fixed_point"] > 0


def test_oracle_tol_reaches_the_check(problem_file, tmp_path):
    rc = cli.main([
        "oracle", "--problem", problem_file, "--out", str(tmp_path),
        "--resolution", "5", "--tol", "1e-300",
    ])
    assert rc == 3
    err = _read_json(tmp_path / "error.json")
    assert err["exit_code"] == 3
    assert err["residuals"]["fixed_point"] > 0


def test_oracle_landscape_files(problem_file, tmp_path):
    rc = cli.main([
        "oracle", "--problem", problem_file, "--out", str(tmp_path),
        "--resolution", "10", "--landscape",
    ])
    assert rc == 0
    info = _read_json(tmp_path / "oracle.json")
    assert info["sample_count"] == 11
    assert_allclose(info["best_x"], [0.3, 0.7], atol=1e-12)
    rows = _read_csv(tmp_path / "landscape.csv")
    assert rows[0] == ["x1", "x2", "value"]
    assert len(rows) == 12


def test_out_under_a_regular_file_exits_2(problem_file, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = cli.main(["lower", "--problem", problem_file, "--out", str(blocker / "out"),
                   "--x", "0.5,0.5"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: cannot create output directory")
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == ""


def test_invalid_usage_raises_system_exit(problem_file, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["bogus-command"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["lower", "--problem", problem_file])  # no --out
    assert excinfo.value.code == 2
