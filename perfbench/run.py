"""Benchmark of ddebound: the bound, region, reduction and linear pipelines.

    python3 perfbench/run.py --workload fig1|region|reduce|linear --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
One process, single-threaded (BLAS pinned to one thread).  The workload's
rounds repeat until ``S`` seconds have passed (at least two rounds).  Set-up
is measured apart, in fresh interpreters.  With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the calls into each ddebound module are traced and the object
holds the per-layer metrics, and the spans go to ``perfbench/out/``.
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

# pin BLAS before numpy is first imported, by the modules below
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

from tracer import Tracer               # noqa: E402
from workloads import WORKLOADS         # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
MIN_ROUNDS = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import ddebound from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ddebound" / "__init__.py").is_file():
        raise SystemExit(f"error: no ddebound sources under {src}")
    sys.path.insert(0, str(src))
    import ddebound
    import ddebound.cli
    if Path(ddebound.__file__).resolve().parent != (src / "ddebound").resolve():
        raise SystemExit(f"error: imported ddebound from {ddebound.__file__}, not {src}")
    return ddebound


def measure_setup(config_paths) -> dict[str, float]:
    """Median set-up over fresh interpreters: start, import, config loading."""
    runs = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(ROOT),
                               *map(str, config_paths)],
                              capture_output=True, text=True, timeout=60, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append((probe["ready"] - start, probe["import_s"], probe["load_s"]))
    return {"setup_s": statistics.median(r[0] for r in runs),
            "ddebound.import_s": statistics.median(r[1] for r in runs),
            "config.load_s": statistics.median(r[2] for r in runs)}


def main(argv=None) -> int:
    args = parse_args(argv)
    dd = import_program()

    workload = WORKLOADS[args.workload](dd, ROOT, args.seed, OUT / args.workload)
    setup = measure_setup(workload.config_files())
    workload.load()

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(dd)
    times: list[float] = []
    attempted = failed = 0
    began = time.perf_counter()
    while len(times) < MIN_ROUNDS or time.perf_counter() - began < args.seconds:
        mark = tracer.mark() if tracer is not None else 0
        start = time.perf_counter()
        outcomes, outputs = workload.round()
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.rounds.append((mark, tracer.mark()))
        workload.after_round(outputs, outcomes)
        attempted += len(outcomes)
        failed += sum(1 for ok in outcomes.values() if not ok)
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = workload.check()
    if tracer is not None:
        metrics, unsteady = per_layer(tracer, times, setup)
        checks.append(("per-layer counts repeat in every round", not unsteady,
                       ", ".join(unsteady)))
    correct = all(ok for _name, ok, _detail in checks)
    print(f"workload {args.workload}, seed {args.seed}: {workload.inputs()}")
    print(f"{len(times)} rounds, round times " + ", ".join(f"{t:.3f}" for t in times) + " s")
    for name, ok, detail in checks:
        print(f"[{'ok' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    for note in workload.notes:
        print(f"note: {note}")
    if "error" in workload.first:
        print(f"first failure: {workload.first['error']}")

    if tracer is None:
        metrics = {"wall_s": (statistics.median(times), "s"),
                   "setup_s": (setup["setup_s"], "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        path = OUT / f"trace_{args.workload}.npz"
        tracer.save(path)
        print(f"wrote {len(tracer.starts)} spans to {path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


UNITS = {"_s": "s", ".s": "s", "_ms": "ms", "us_per_step": "us", "rhs_per_step": "1/step"}


def per_layer(tracer, times, setup):
    """Per-round figures: counts from the first round, times as the median
    over rounds.  Also returns the names of counts that differ between rounds."""
    rounds = [tracer.round_metrics(lo, hi) for lo, hi in tracer.rounds]
    metrics = {"ddebound.import_s": (setup["ddebound.import_s"], "s"),
               "config.load_s": (setup["config.load_s"], "s"),
               "trace.wall_s": (statistics.median(times), "s")}
    unsteady = []
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        unit = next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")
        if unit in ("count", "1/step"):
            if len(set(values)) != 1:
                unsteady.append(f"{name} {values}")
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    return metrics, unsteady


if __name__ == "__main__":
    sys.exit(main())
