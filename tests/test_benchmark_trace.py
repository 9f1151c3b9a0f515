"""Two traced rounds of the ``reduce``, ``linear`` and ``region`` benchmark
workloads, in this process: every per-layer count (calls, steps, probes,
right-side evaluations, ...) must be the same in both rounds, as the
benchmark's traced run checks.  A count that differs means a round does work
that depends on an earlier round, such as a cache the second round hits."""

import os
import sys
from pathlib import Path
from unittest import mock

import pytest

import ddebound
import ddebound.cli  # noqa: F401  (the workloads read ``dd.cli``)

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
ROUNDS = 2


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``run``, ``tracer`` and ``workloads`` modules."""
    if str(PERFBENCH) not in sys.path:
        sys.path.append(str(PERFBENCH))
    # `run` pins the BLAS threads in the environment when it is imported
    with mock.patch.dict(os.environ):
        import run
        import tracer
        import workloads
    return run, tracer, workloads


@pytest.mark.parametrize("name", ["reduce", "linear", "region"])
def test_traced_counts_repeat(bench, name, tmp_path):
    run, tracer_module, workloads = bench
    workload = workloads.WORKLOADS[name](ddebound, ROOT, 1, tmp_path / name)
    workload.load()
    tracer = tracer_module.Tracer()
    tracer.install(ddebound)
    try:
        for _ in range(ROUNDS):
            mark = tracer.mark()
            outcomes, outputs = workload.round()
            tracer.rounds.append((mark, tracer.mark()))
            assert all(outcomes.values()), outputs.get("error")
    finally:
        tracer.uninstall()
    setup = {"ddebound.import_s": 0.0, "config.load_s": 0.0}
    metrics, unsteady = run.per_layer(tracer, [0.0] * ROUNDS, setup)
    assert metrics["dde_core.integrate_calls"][0] > 0
    assert not unsteady
