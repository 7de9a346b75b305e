"""Command-line front end.

One command per process: main loads the problem file once, for every
command but make-default, runs the requested solve or probe on it, and
persists results as JSON/CSV through model.write_file, which
replaces each file atomically and gives it the mode open() would.  Every
run writes a manifest recording the command, the problem digest,
overrides, and the produced files; the manifest is the only output
containing a timestamp, so result files are bit-identical across identical
runs.

Exit codes: 0 success, 2 validation or file errors (ValidationError,
OSError), 3 numerical failures (ConvergenceError, InsufficientPathError).
Failures leave a machine-readable error.json in the output directory,
unless that directory cannot be created.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import hashlib
import io
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConvergenceError, InsufficientPathError, ValidationError, _integer
from .lower import solve_lower
from .model import load_problem, read_json, save_problem, write_file, write_json
from .oracle import grid_search
from .path import extract_candidate, run_path, trace_rows
from .presets import make_box_variant, make_default_problem
from .relax import solve_relaxed
from .stationarity import classify
from .value import sample_segment, value_sample


def _fields(result, *skip) -> dict:
    """A result dataclass's fields but skip, by name: the payload of its JSON file."""
    return {f.name: getattr(result, f.name) for f in dataclasses.fields(result) if f.name not in skip}


def _write_json(out: Path, name: str, payload) -> str:
    write_json(out / name, payload)
    return name


def _write_csv(out: Path, name: str, header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_file(out / name, buf.getvalue())
    return name


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError as err:
        raise ValidationError(f"cannot parse vector {text!r}: {err}") from None


def _tol(args, *names) -> dict:
    """--tol under each keyword of names when given; otherwise the library's defaults hold."""
    return {} if args.tol is None else dict.fromkeys(names, args.tol)


# ---------------------------------------------------------------- commands


def _cmd_lower(args, spec, out: Path) -> list[str]:
    if args.x is None:
        raise ValidationError("lower requires --x")
    sol = solve_lower(spec, _parse_vector(args.x), **_tol(args, "tol"))
    return [_write_json(out, "lower_solution.json", _fields(sol, "qp"))]


def _value_rows(spec, args):
    if args.samples is not None:
        count = _integer(args.samples, "--samples", 1)
        rng = np.random.default_rng(_integer(args.seed, "--seed", 0))
        if args.x is not None or args.resolution is not None:
            raise ValidationError("--samples takes neither --x nor --resolution")
        points = [spec.x_set.sample(rng) for _ in range(count)]
        ts = [float(i) for i in range(len(points))]
        samples = [value_sample(spec, x) for x in points]
        return ts, samples
    if args.x is None:
        raise ValidationError("value requires --x (slice endpoints) or --samples")
    parts = args.x.split(";")
    if len(parts) > 2:
        raise ValidationError("slice takes at most two endpoints separated by ';'")
    x0, x1 = _parse_vector(parts[0]), _parse_vector(parts[-1])
    count = 21 if args.resolution is None else _integer(args.resolution, "--resolution", 1)
    samples = sample_segment(spec, x0, x1, count)
    return list(np.linspace(0.0, 1.0, len(samples))), samples


def _cmd_value(args, spec, out: Path) -> list[str]:
    ts, samples = _value_rows(spec, args)
    n = spec.n
    header = (
        ["t"] + [f"x{i + 1}" for i in range(n)] + ["phi"]
        + [f"dphi{i + 1}" for i in range(n)]
    )
    rows = [
        [t, *map(float, s.x), s.phi, *map(float, s.grad_phi)]
        for t, s in zip(ts, samples)
    ]
    return [_write_csv(out, "value_slice.csv", header, rows)]


def _cmd_relax(args, spec, out: Path) -> list[str]:
    sol = solve_relaxed(spec, args.eps0, **_tol(args, "feas_tol", "stat_tol", "comp_tol"))
    return [_write_json(out, "relaxed_solution.json", _fields(sol, "sample", "step", "member"))]


def _cmd_path(args, spec, out: Path) -> list[str]:
    trace = run_path(spec, eps0=args.eps0, ratio=args.ratio, steps=args.steps,
                     **_tol(args, "feas_tol", "stat_tol", "comp_tol"))
    outputs = []
    rows = trace_rows(trace)
    if rows:
        header = list(rows[0].keys())
        outputs.append(_write_csv(
            out, "path_trace.csv", header,
            [[row[k] for k in header] for row in rows],
        ))
    summary = {**_fields(trace, "records"), "completed": len(trace.records)}
    outputs.append(_write_json(out, "limit.json", summary))
    if trace.failure is not None:
        raise ConvergenceError(
            f"path failed at step {trace.failure['k']} "
            f"(eps {trace.failure['eps']:.3e}): {trace.failure['message']}",
            residuals=trace.failure["residuals"],
        )
    point, multipliers = extract_candidate(trace)
    outputs.append(_write_json(out, "candidate_point.json", point))
    outputs.append(_write_json(out, "candidate_multipliers.json", multipliers))
    return outputs


def _cmd_certify(args, spec, out: Path) -> list[str]:
    point = read_json(args.point)
    multipliers = read_json(args.multipliers)
    cert = classify(spec, point, multipliers, **_tol(args, "tol"))
    payload = {**_fields(cert, "active"), "active_sets": _fields(cert.active)}
    return [_write_json(out, "certificate.json", payload)]


def _cmd_oracle(args, spec, out: Path) -> list[str]:
    result = grid_search(spec, args.resolution, keep_samples=args.landscape, **_tol(args, "tol"))
    outputs = [_write_json(out, "oracle.json", _fields(result, "samples"))]
    if result.samples is not None:
        n = spec.n
        header = [f"x{i + 1}" for i in range(n)] + ["value"]
        rows = [list(map(float, row)) for row in result.samples]
        outputs.append(_write_csv(out, "landscape.csv", header, rows))
    return outputs


def _cmd_make_default(args, spec, out: Path) -> list[str]:
    name = f"{args.variant}_problem.json"
    save_problem(make_box_variant() if args.variant == "box" else make_default_problem(), out / name)
    return [name]


# ---------------------------------------------------------------- plumbing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invoc",
        description=(
            "Inverse-optimal-control toolkit: parametric lower-level solves, "
            "value-function probes, relaxed programs, relaxation paths, "
            "stationarity certification, and brute-force verification."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, problem=True, tol=True):
        if problem:
            p.add_argument("--problem", required=True, help="problem JSON file")
        p.add_argument("--out", required=True, help="output directory")
        if tol:
            p.add_argument("--tol", type=float, default=None, help=(
                "verification threshold: lower or oracle fixed-point residual, "
                "relax/path tolerances, or certificate residual tolerance"))

    p = sub.add_parser("lower", help="solve the lower-level problem at one parameter")
    common(p)
    p.add_argument("--x", help="parameter, comma separated")
    p.set_defaults(handler=_cmd_lower)

    p = sub.add_parser("value", help="sample the optimal-value function")
    common(p, tol=False)
    p.add_argument("--seed", type=int, default=0, help="RNG seed of --samples")
    p.add_argument("--x", help="slice endpoints 'a,b;c,d' (or one point)")
    p.add_argument("--samples", type=int, default=None, help="random sample count")
    p.add_argument("--resolution", type=int, default=None, help="points per slice")
    p.set_defaults(handler=_cmd_value)

    p = sub.add_parser("relax", help="solve one relaxed program")
    common(p)
    p.add_argument("--eps0", type=float, default=1e-3, help="relaxation level")
    p.set_defaults(handler=_cmd_relax)

    p = sub.add_parser("path", help="run the relaxation path and extract a candidate")
    common(p)
    p.add_argument("--eps0", type=float, default=1.0, help="initial relaxation")
    p.add_argument("--ratio", type=float, default=0.5, help="geometric decrease")
    p.add_argument("--steps", type=int, default=20, help="number of decreases")
    p.set_defaults(handler=_cmd_path)

    p = sub.add_parser("certify", help="classify a candidate point")
    common(p)
    p.add_argument("--point", required=True, help="candidate point JSON")
    p.add_argument("--multipliers", required=True, help="multiplier JSON")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("oracle", help="brute-force search of the reduced objective")
    common(p)
    p.add_argument("--resolution", type=int, default=200, help="lattice resolution")
    p.add_argument(
        "--landscape", action="store_true",
        help="also export every sampled value as CSV",
    )
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("make-default", help="write the constructed default instance")
    common(p, problem=False, tol=False)
    p.add_argument(
        "--variant", choices=("default", "box"), default="default",
        help="which shipped instance to write",
    )
    p.set_defaults(handler=_cmd_make_default)

    return parser


def _write_manifest(out: Path, args, outputs: list[str]) -> None:
    skip = {"handler", "command", "out"}
    overrides = {
        k: v for k, v in sorted(vars(args).items())
        if k not in skip and v is not None
    }
    if "problem" in overrides:
        overrides["problem"] = str(overrides["problem"])
    digest = None
    if getattr(args, "problem", None):
        digest = _digest(Path(args.problem))
    elif args.command == "make-default" and outputs:
        digest = _digest(out / outputs[0])
    manifest = {
        "command": args.command,
        "problem_digest": digest,
        "overrides": overrides,
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": getattr(args, "seed", None),
        "outputs": outputs,
    }
    _write_json(out, "manifest.json", manifest)


def _write_error(out: Path, err: Exception, code: int) -> None:
    payload = {
        "error": type(err).__name__,
        "message": str(err),
        "exit_code": code,
    }
    residuals = getattr(err, "residuals", None)
    if residuals:
        payload["residuals"] = residuals
    try:
        _write_json(out, "error.json", payload)
    except OSError:
        pass


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"error: cannot create output directory: {err}", file=sys.stderr)
        return 2
    try:
        problem = getattr(args, "problem", None)
        spec = None if problem is None else load_problem(problem)
        outputs = args.handler(args, spec, out)
    except (ConvergenceError, InsufficientPathError, ValidationError, OSError) as err:
        code = 3 if isinstance(err, (ConvergenceError, InsufficientPathError)) else 2
        print(f"error: {err}", file=sys.stderr)
        _write_error(out, err, code)
        return code
    _write_manifest(out, args, outputs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
