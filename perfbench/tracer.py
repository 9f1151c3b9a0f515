"""Spans around the calls into each ddebound module, recorded from outside.

`Tracer.install` wraps the public functions of every ddebound module and the
public methods (and ``__call__``) of every class the package defines, by
rebinding module and class attributes in this process.  Each call records a
span: name, start, end and the span that was open when it began.  Spans stay
in memory in flat arrays and are written out once, by `Tracer.save`.

Left unwrapped are `ConstantFn` and the last-value memo of ``timefn``: each of
their calls reads one coefficient value inside a right side, and a span there
would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

SKIP_CLASSES = {("ddebound.timefn", "ConstantFn"), ("ddebound.timefn", "_MemoLast")}

EVAL_METHODS = ("Trajectory.eval", "Trajectory.norm_at", "Trajectory.eval_grid",
                "Trajectory.norm_grid")
PROBE_ROOTS = ("analysis.estimate_vector_region", "analysis.estimate_scalar_radius")
MODULES = ("cli", "config", "expressions", "dde_core", "analysis", "reduction",
           "linear_aux", "majorant", "vectorfield", "linalg", "timefn", "plotting")


class Tracer:
    """Records spans for the calls into the ddebound package."""

    def __init__(self):
        self.names: list[str] = []              # "module.qualname"
        self.name_module: list[int] = []
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.outer = array("b")                 # first open span of its module
        self.info: dict[int, object] = {}       # span -> value seen by an observer
        self.stack = [-1]
        self.depth = [0] * len(MODULES)
        self.rounds: list[tuple[int, int]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _wrap(self, fn, qualified: str, module_id: int, observer):
        name_id = len(self.names)
        self.names.append(qualified)
        self.name_module.append(module_id)
        stack, depth = self.stack, self.depth
        starts, ends, parents, ids, outer = (self.starts, self.ends, self.parents,
                                             self.name_ids, self.outer)
        info = self.info

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1])
            ids.append(name_id)
            outer.append(depth[module_id] == 0)
            ends.append(0.0)
            stack.append(idx)
            depth[module_id] += 1
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                depth[module_id] -= 1
                stack.pop()
            if observer is not None:
                info[idx] = observer(args, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap the package's functions and methods in place."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith(package.__name__ + ".") and mod is not None}
        wrapped: dict[int, object] = {}        # id(original function) -> wrapper;
                                               # the wrapper keeps the original alive

        def wrapper_for(fn, qualified, module_id):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(fn, qualified, module_id,
                                             OBSERVERS.get(qualified))
            return wrapped[id(fn)]

        for mod_name, mod in sorted(modules.items()):
            short = mod_name.rsplit(".", 1)[1]
            if short not in MODULES:
                continue
            module_id = MODULES.index(short)
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value.__module__ == mod_name \
                        and not attr.startswith("_"):
                    wrapper_for(value, f"{short}.{value.__qualname__}", module_id)
                elif inspect.isclass(value) and value.__module__ == mod_name \
                        and (mod_name, attr) not in SKIP_CLASSES:
                    self._install_class(value, short, module_id, wrapper_for)
        # `from .dde_core import integrate` copies the function into the importing
        # module, so every module attribute that is a wrapped function is rebound
        for mod in [package, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    self._set(mod, attr, wrapped[id(value)])

    def _install_class(self, cls, short, module_id, wrapper_for) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            qualified = f"{short}.{cls.__qualname__}.{attr}"
            if inspect.isfunction(value):
                qualified = f"{short}.{value.__qualname__}"
                self._set(cls, attr, wrapper_for(value, qualified, module_id))
            elif isinstance(value, (classmethod, staticmethod)):
                inner = wrapper_for(value.__func__, qualified, module_id)
                self._set(cls, attr, type(value)(inner))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def mark(self) -> int:
        return len(self.starts)

    # -- per-round figures -------------------------------------------------
    def round_metrics(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer figures of the spans recorded in ``[lo, hi)``."""
        n = hi - lo
        names = np.array(self.name_ids[lo:hi], dtype=np.int64)
        parents = np.array(self.parents[lo:hi], dtype=np.int64)
        dur = np.array(self.ends[lo:hi]) - np.array(self.starts[lo:hi])
        outer = np.array(self.outer[lo:hi], dtype=bool)
        local_parent = np.where(parents >= lo, parents - lo, -1)
        has_parent = local_parent >= 0
        child_time = np.bincount(local_parent[has_parent], weights=dur[has_parent],
                                 minlength=n)
        self_time = dur - child_time
        module_of = np.array(self.name_module, dtype=np.int64)[names]
        name_index = {name: k for k, name in enumerate(self.names)}

        def ids(*qualified):
            return np.array([name_index[q] for q in qualified if q in name_index], dtype=np.int64)

        def mask(*qualified):
            return np.isin(names, ids(*qualified))

        def total(m):
            return float(np.sum(dur[m]))

        def count(m):
            return int(np.count_nonzero(m))

        def ancestor_in(span, targets):
            span = int(local_parent[span])
            while span >= 0:
                if names[span] in targets:
                    return True
                span = int(local_parent[span])
            return False

        out: dict[str, float] = {}
        m_assemble = mask("cli.assemble_pipeline")
        out["cli.assemble_s"] = total(m_assemble)

        m_int = mask("dde_core.integrate")
        int_spans = np.nonzero(m_int)[0]
        # an integration that raised has no statistics; it counts as a call only
        stats = [self.info.get(lo + int(k), (0, 0, False, "")) for k in int_spans]
        steps = sum(s[0] for s in stats)
        out["dde_core.integrate_calls"] = count(m_int)
        out["dde_core.steps"] = steps
        out["dde_core.integrate_s"] = total(m_int)
        out["dde_core.us_per_step"] = 1e6 * total(m_int) / steps if steps else 0.0
        out["dde_core.node_floats"] = sum(2 * (s[0] + 1) * s[1] for s in stats)
        out["dde_core.blowups"] = sum(1 for s in stats if s[2])

        rhs_ids = ids(*[q for q in self.names if q.endswith(".rhs")])
        m_rhs = np.isin(names, rhs_ids)
        out["dde_core.rhs_evals"] = count(m_rhs)
        out["dde_core.rhs_per_step"] = count(m_rhs) / steps if steps else 0.0
        out["dde_core.rhs_s"] = total(m_rhs)

        eval_ids = ids(*[f"dde_core.{q}" for q in EVAL_METHODS])
        m_eval = np.isin(names, eval_ids)
        parent_eval = np.zeros(n, bool)
        parent_eval[has_parent] = m_eval[local_parent[has_parent]]
        m_eval_outer = m_eval & ~parent_eval
        points = 0
        for k in np.nonzero(m_eval_outer)[0]:
            points += self.info.get(lo + int(k), 1)
        out["dde_core.eval_points"] = points
        out["dde_core.eval_s"] = total(m_eval_outer)

        for short in ("vectorfield", "majorant"):
            m = outer & (module_of == MODULES.index(short))
            out[f"{short}.calls"] = count(m)
            out[f"{short}.s"] = total(m)
        out["linalg.spectral_norm_calls"] = count(mask("linalg.spectral_norm"))

        probe_ids = set(ids(*PROBE_ROOTS).tolist())
        probes = sum(1 for k in int_spans if ancestor_in(int(k), probe_ids))
        out["analysis.probes"] = probes
        region_spans = np.nonzero(mask("analysis.estimate_vector_region"))[0]
        out["analysis.max_probes_per_angle"] = max(
            [self.info.get(lo + int(k), 0) for k in region_spans], default=0)
        m_probe_roots = mask(*PROBE_ROOTS)
        out["analysis.probe_ms"] = 1e3 * total(m_probe_roots) / probes if probes else 0.0
        out["analysis.judge_s"] = total(mask("analysis.BoundednessCriterion.judge"))
        out["analysis.verify_s"] = total(mask("analysis.verify_pointwise_ordering"))

        fund_ids = set(ids("reduction.compute_fundamental_matrix").tolist())
        out["reduction.fundamental_s"] = total(mask("reduction.compute_fundamental_matrix"))
        out["reduction.fundamental_steps"] = sum(
            s[0] for k, s in zip(int_spans, stats) if ancestor_in(int(k), fund_ids))
        out["reduction.coefficients_s"] = total(mask("reduction.CoefficientPair.from_fundamental",
                                                     "reduction.CoefficientPair.closed_form"))
        m_svd = mask("linalg.singular_values")
        out["linalg.svd_calls"] = count(m_svd)
        out["linalg.svd_s"] = total(m_svd)
        out["reduction.autonomous_s"] = total(mask("reduction.build_autonomous_auxiliary"))
        m_sup = mask("timefn.grid_supremum")
        out["timefn.grid_supremum_calls"] = count(m_sup)
        out["timefn.grid_supremum_s"] = total(m_sup)

        out["linear_aux.chain_s"] = total(mask("cli.build_linear_chain"))
        out["linear_aux.superposition_s"] = total(mask("linear_aux.superposition_check"))
        out["linear_aux.integrations"] = sum(1 for s in stats if s[3] == "ddebound.linear_aux")

        out["plotting.emit_s"] = total(outer & (module_of == MODULES.index("plotting")))
        self_by_module = np.bincount(module_of, weights=self_time, minlength=len(MODULES))
        for k, short in enumerate(MODULES):
            out[f"{short}.self_s"] = float(self_by_module[k])
        out["trace.spans"] = n
        return out

    def save(self, path: Path) -> None:
        """Write every span: names, name ids, parents (-1 at the top), starts, ends."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as fh:
            np.savez(fh, names=np.array(json.dumps(self.names)),
                     name=np.array(self.name_ids, dtype=np.int16),
                     parent=np.array(self.parents, dtype=np.int32),
                     start=np.array(self.starts), end=np.array(self.ends),
                     rounds=np.array(self.rounds, dtype=np.int64).reshape(-1, 2))


def _integrate_stats(args, traj):
    system = args[0]
    return (len(traj.ts) - 1, traj.dim, bool(traj.blew_up), type(system).__module__)


OBSERVERS = {
    "dde_core.integrate": _integrate_stats,
    "dde_core.Trajectory.eval_grid": lambda args, result: len(args[1]),
    "dde_core.Trajectory.norm_grid": lambda args, result: len(args[1]),
    "analysis.estimate_vector_region":
        lambda args, result: max(len(r.probes) for r in result.radii),
}
