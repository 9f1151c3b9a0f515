"""The benchmark reaches the program only through attributes of the
``ddebound`` package (``dd.integrate``, ``dd.cli.fig2_protocol``, ...), read
at call time.  Every such attribute chain in its workloads must resolve, so
that moving or renaming one of them fails here and not in a benchmark run."""

import ast
from pathlib import Path

import pytest

import ddebound
import ddebound.cli  # noqa: F401  (the workloads read ``dd.cli``)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _chains() -> set[tuple[str, ...]]:
    """Each attribute chain read from ``dd`` or ``self.dd`` in the workloads,
    the names after ``dd``, outermost chains only."""
    chains: set[tuple[str, ...]] = set()
    inner: set[int] = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
            inner.add(id(node))
        names.reverse()
        if isinstance(node, ast.Name) and node.id == "dd":
            chains.add(tuple(names))
        elif isinstance(node, ast.Name) and node.id == "self" and names[0] == "dd":
            chains.add(tuple(names[1:]))
    return {chain for chain in chains if chain}


CHAINS = sorted(_chains())


def test_the_workloads_call_the_program():
    assert ("cli", "build_linear_chain") in CHAINS
    assert ("cli", "fig2_protocol") in CHAINS
    assert ("integrate",) in CHAINS


@pytest.mark.parametrize("chain", CHAINS, ids=".".join)
def test_every_name_the_workloads_read_exists(chain):
    target = ddebound
    for name in chain:
        assert hasattr(target, name), f"dd.{'.'.join(chain)} does not exist"
        target = getattr(target, name)
