"""Run one benchmark workload and print its result as the last line of stdout.

    python3 bench/run.py --workload certify_deep --seed 0 --seconds 1 --trace 0

Run from the root of a checkout; the package is imported from `src/`.  The
workload runs in this single process with BLAS pinned to one thread.  With
`--trace 0` the timed rounds run untraced and the end-to-end metrics are
printed; their times are scaled to a fixed host speed by `hostspeed.py`.
With `--trace 1` one untraced round is followed by one traced round, whose
spans go to `bench/out/` and give the per-layer metrics.  The outputs of
every round are checked against the dense reference in `dense.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hostspeed import Sampler  # noqa: E402  (after the BLAS pinning)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
IMPORT_REPEATS = 7
BUILD_REPEATS = 5
IMPORT_INTERVAL = 0.02  # seconds between host-speed samples during an import
ROUND_INTERVAL = 0.05   # and during a build or a timed round
# times `import invoc` in a fresh interpreter, which inherits the pinned BLAS
IMPORT_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; from hostspeed import Sampler\n"
                f"s = Sampler('python', {IMPORT_INTERVAL})\n"
                "with s: import invoc\n"
                "print(s.ref_s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify_deep", "oracle_box200", "path_bound"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="keep starting rounds until this much time has been measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    with Sampler("python", IMPORT_INTERVAL) as first_import:
        import invoc  # noqa: F401  (timed: part of set-up)

    from tracing import UNITS, Tracer, layer_metrics
    from workloads import WORKLOADS

    work = WORKLOADS[args.workload]
    x_star = work.x_star(args.seed)

    # set-up: import plus the instance build, each repeated for a steady
    # median; this process's own import is one of the import samples
    import_s = [first_import.ref_s]
    for _ in range(IMPORT_REPEATS - 1):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=120)
        import_s.append(float(probe.stdout))
    specs = []
    with Sampler("small", ROUND_INTERVAL) as builds:
        for _ in range(BUILD_REPEATS):
            specs.append(work.build(x_star))

    # each round gets a fresh instance, so no round reuses another's cache
    wall, ref, attempted, failed, out, spec = [], [], 0, 0, None, None
    while not wall or sum(wall) < args.seconds:
        spec = specs.pop() if specs else work.build(x_star)
        with Sampler(work.chunk, ROUND_INTERVAL) as timed:
            out, a, f = work.run(spec)
        wall.append(timed.wall_s)
        ref.append(timed.ref_s)
        attempted += a
        failed += f
        if args.trace:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # the checks load scipy.optimize, so they are imported after the peak
    # memory has been read
    from checks import CHECKS

    check = CHECKS[args.workload]
    fails = check(spec, out, x_star, args.seed)
    if args.trace:
        traced_spec = specs.pop() if specs else work.build(x_star)
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            traced_out, a, f = work.run(traced_spec)
            traced_s = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        attempted += a
        failed += f
        fails += ["traced round: " + msg
                  for msg in check(traced_spec, traced_out, x_star, args.seed)]
        tracer.save(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.npz")
        values = layer_metrics(tracer.arrays())
        values["presets.build_s"] = builds.wall_s / BUILD_REPEATS
        values["trace.overhead_s"] = traced_s - wall[0]
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    else:
        metrics = {
            "run_s": {"value": statistics.median(ref), "unit": "s"},
            "setup_s": {"value": statistics.median(import_s) + builds.ref_s / BUILD_REPEATS,
                        "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }

    for msg in fails:
        print("CHECK FAILED:", msg)
    print(f"{args.workload} seed {args.seed} x*={x_star.tolist()}: {len(wall)} round(s), "
          f"median wall time {statistics.median(wall):.3f} s, "
          f"checks {'failed' if fails else 'passed'}")
    print(json.dumps({"correct": not fails, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
