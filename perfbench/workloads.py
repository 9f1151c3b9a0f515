"""The four benchmark workloads: inputs, one round of work, and output checks.

A round is a fixed list of operations.  ``round()`` runs them and is the
timed body; it returns one outcome per operation and the outputs.  The
checks run outside the timed body: ``after_round`` on every round (the
outputs must equal the first round's, and some operations are judged by
their output), and ``check`` once, on the first round's outputs, against
the reference solver.

The program is reached only through module attributes (``cli.main``,
``ddebound.integrate``, ...) at call time, so a tracer that patches those
attributes sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

import reference as ref

HERE = Path(__file__).resolve().parent
REDUCE_CONFIG = HERE / "reduce.cfg"


def bundled(root: Path, case: str) -> Path:
    """Path of a config file bundled with the program."""
    return root / "src" / "ddebound" / "configs" / f"planar_case_{case}.cfg"


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], np.array(rows[1:], dtype=float)
    return {name: body[:, k] for k, name in enumerate(header)}


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def _quiet(fn, *args, **kwargs):
    """Call ``fn`` with its standard output captured; returns (result, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = fn(*args, **kwargs)
    return result, buf.getvalue()


def _series_error(program: np.ndarray, reference: np.ndarray, rtol: float) -> tuple[float, float]:
    """Largest gap and the allowance ``100 * rtol * max|reference|``.

    The program controls each step's local error to ``rtol`` of the state;
    on these dissipative systems the global error stays within a few times
    that, so a hundredfold margin separates a sound run from a wrong one
    while staying far below the gaps between the compared series.
    """
    gap = float(np.max(np.abs(program - reference)))
    return gap, 100.0 * rtol * float(np.max(np.abs(reference)))


class Workload:
    """Base: ``ops`` names the operations of one round, in order."""

    ops: tuple[str, ...] = ()

    def __init__(self, dd, root: Path, seed: int, out: Path):
        self.dd = dd
        self.root = root
        self.seed = seed
        self.out = out
        out.mkdir(parents=True, exist_ok=True)
        self.first = None
        self.first_digest = None
        self.digests_match = True
        self.notes: list[str] = []

    def config_files(self) -> list[Path]:
        """The config files a round reads; set-up time includes loading them."""
        return [bundled(self.root, "a")]

    def load(self) -> None:
        """Load the configs the benchmark passes to the program, before the rounds."""
        self.cfg = self.dd.load_config(self.config_files()[0])

    def round(self):
        raise NotImplementedError

    def after_round(self, outputs, outcomes: dict[str, bool]) -> None:
        """Keep the first round's outputs; compare later rounds with them."""
        digest = outputs.get("error") or self.digest(outputs)
        if self.first is None:
            self.first, self.first_digest = outputs, digest
        elif digest != self.first_digest:
            self.digests_match = False

    def digest(self, outputs) -> str:
        """A fingerprint of a completed round's outputs."""
        raise NotImplementedError

    def check(self) -> list[tuple[str, bool, str]]:
        """(name, passed, detail) for every check of the run."""
        results = [("every round repeats the first round's outputs", self.digests_match, "")]
        if "error" in self.first:
            return results + [("first round completed", False, self.first["error"])]
        return results + self.check_first(self.first)

    def check_first(self, first) -> list[tuple[str, bool, str]]:
        raise NotImplementedError

    def inputs(self) -> str:
        raise NotImplementedError


def run_ops(ops, steps) -> tuple[dict[str, bool], dict]:
    """Run ``steps`` (callables taking the shared state) in order.

    A step that raises fails, and so does every step after it, so each
    round attempts the same operations.
    """
    outcomes = {name: False for name in ops}
    state: dict = {}
    for name, step in zip(ops, steps):
        try:
            step(state)
        except Exception as exc:            # the program's failure is counted, not fatal
            state["error"] = f"{name}: {type(exc).__name__}: {exc}"
            break
        outcomes[name] = True
    return outcomes, state


# ---------------------------------------------------------------------------


class Fig1(Workload):
    """``reproduce-fig1 --case both`` through ``ddebound.cli.main``."""

    ops = ("reproduce-fig1",)

    def config_files(self):
        return [bundled(self.root, "a"), bundled(self.root, "b")]

    def load(self):
        """``reproduce-fig1`` loads its bundled configs itself."""

    def round(self):
        def call(state):
            status, text = _quiet(self.dd.cli.main, ["reproduce-fig1", "--case", "both",
                                                     "--out", str(self.out)])
            if status != 0:
                raise RuntimeError(f"exit status {status}: {text.strip()}")
        return run_ops(self.ops, [call])

    def digest(self, outputs):
        return _digest(self.out / "fig1_a.csv", self.out / "fig1_b.csv")

    def after_round(self, outputs, outcomes):
        if self.first is None and "error" not in outputs:
            outputs = dict(outputs, csv={case: _read_csv(self.out / f"fig1_{case}.csv")
                                         for case in "ab"})
        super().after_round(outputs, outcomes)

    def check_first(self, first):
        dd = self.dd
        rtol = 1e-6
        results = []
        for case in "ab":
            data = first["csv"][case]
            x, y, y_hat = data["x_norm"], data["y"], data["y_hat"]
            worst = float(max(np.max(x - y), np.max(y - y_hat)))
            results.append((f"case {case}: x_norm <= y <= y_hat within 1e-4", worst <= 1e-4,
                            f"max violation {worst:.2e}"))
        # the reference solve of one case takes seconds; the seed picks the case
        case, rate = (("a", ref.rate_a), ("b", ref.rate_b))[self.seed % 2]
        data = first["csv"][case]
        auto = dd.cli.assemble_pipeline(dd.load_config(bundled(self.root, case))).autonomous_system
        grid = data["t"]
        hist = ref.constant_history([math.hypot(*ref.HISTORY)])
        refs = {
            "x_norm": ref.solve_delay(ref.vector_rhs(ref.diagonal_a0(rate)),
                                      ref.constant_history(ref.HISTORY), ref.DELAY,
                                      0.0, 50.0).norm_on_grid(grid),
            "y": ref.solve_delay(ref.scalar_rhs(rate), hist, ref.DELAY, 0.0, 50.0,
                                 breaks=ref.forcing_kinks(0.0, 50.0)).norm_on_grid(grid),
            "y_hat": ref.solve_delay(_frozen_rhs(auto), hist, ref.DELAY, 0.0,
                                     50.0).norm_on_grid(grid),
        }
        for name, series in refs.items():
            gap, allowed = _series_error(data[name], series, rtol)
            results.append((f"case {case}: {name} matches the reference", gap <= allowed,
                            f"max gap {gap:.2e} (allowed {allowed:.2e})"))
        results.append(_frozen_dominates(auto, rate, 50.0))
        return results

    def inputs(self):
        return ("bundled cases a and b, rtol 1e-6, horizon 50, 2000-point CSV grid; the "
                f"seed only picks the case checked against the reference: {'ab'[self.seed % 2]}")


def _frozen_rhs(auto):
    """Reference right side of the autonomous system, with its frozen constants."""
    coeffs = {term.exponents: term.coeff.value for term in auto.majorant.terms}
    return ref.frozen_scalar_rhs(auto.p.value, auto.c.value, coeffs[(1, 0)], coeffs[(0, 1)],
                                 coeffs[(0, 3)], auto.forcing.value)


def _frozen_dominates(auto, rate, horizon):
    """The frozen constants are at least the sampled suprema of what they freeze."""
    t = np.linspace(0.0, horizon, 200_001)
    rates = np.array([rate(float(s)) for s in t[::20]])
    w = 1.0 + 0.1 * np.sin(t) + 0.1 * np.sin(3.14 * t)
    norm_a1 = float(np.max(np.maximum(1.0, np.abs(w))))
    coeffs = {term.exponents: term.coeff.value for term in auto.majorant.terms}
    ok = (auto.p.value >= float(np.max(rates)) and auto.c.value >= 1.0
          and coeffs[(1, 0)] >= norm_a1 and coeffs[(0, 1)] >= 0.5 * norm_a1
          and coeffs[(0, 3)] >= 0.1 and auto.forcing.value >= ref.FORCING)
    return ("frozen constants dominate the sampled suprema", ok,
            f"p_hat {auto.p.value:.6g}, |A1| sup {norm_a1:.6g}")


class Region(Workload):
    """``fig2_protocol`` on case a with a fixed set of evenly spaced angles."""

    ops = ("fig2_protocol",)
    ANGLES = 5          # odd, so no two angles are mirror images under x -> -x

    def round(self):
        def call(state):
            state["result"] = self.dd.cli.fig2_protocol(self.cfg, angle_count=self.ANGLES)
        return run_ops(self.ops, [call])

    def digest(self, outputs):
        boundary, scalar, auto, inclusion = outputs["result"]
        return repr(([(r.lo, r.hi, len(r.probes)) for r in boundary.radii],
                     scalar.value, auto.value, inclusion))

    def check_first(self, first):
        boundary, scalar, auto, inclusion = first["result"]
        cfg = self.cfg
        min_r = boundary.min_radius()
        slack = 2.0 * cfg.analysis.bisect_tol * max(1.0, min_r)
        results = []
        results.append(("scalar and autonomous radii inside the vector region",
                        inclusion and scalar.value <= min_r + slack
                        and auto.value <= min_r + slack,
                        f"scalar {scalar.value:.5g}, autonomous {auto.value:.5g}, "
                        f"min vector {min_r:.5g} + {slack:.1e}"))
        probes = [len(r.probes) for r in boundary.radii]
        results.append(("every angle bracketed with at most 42 probes",
                        all(r.status == "bracketed" for r in boundary.radii)
                        and max(probes) <= 42, f"probes per angle {probes}"))
        rhs = ref.vector_rhs(ref.diagonal_a0(ref.rate_a), forcing=0.0)
        cap = cfg.solver.cap
        picked = np.random.default_rng(self.seed).choice(self.ANGLES, 2, replace=False)
        for k in sorted(picked):
            angle, est = boundary.angles[k], boundary.radii[k]
            direction = np.array([math.cos(float(angle)), math.sin(float(angle))])
            lo = ref.solve_delay(rhs, ref.constant_history(est.lo * direction), ref.DELAY,
                                 0.0, 50.0, cap=cap)
            hi = ref.solve_delay(rhs, ref.constant_history(est.hi * direction), ref.DELAY,
                                 0.0, 50.0, cap=cap)
            results.append((f"angle {float(angle):.4f}: reference confirms the bracket",
                            not lo.reached_cap and hi.reached_cap,
                            f"[{est.lo:.6g}, {est.hi:.6g}], cap reached from hi at "
                            f"t={hi.t_end:.3g}"))
        dd = self.dd
        cubic = dd.ScalarDelaySystem(
            p=-2.0, c=1.0, majorant=dd.PolynomialMajorant((dd.PolynomialTerm(1.0, (3,)),), 1),
            forcing=0.0, delays=dd.DelaySpec.none(),
            history=dd.HistoryFunction.constant([0.1]), t0=0.0)
        estimate = dd.estimate_scalar_radius(
            cubic, dd.BoundednessCriterion(kind="bounded_on_horizon", cap=1e6), 3.0,
            bisect_tol=1e-4, horizon=50.0,
            tol=dd.ToleranceSettings(rtol=1e-4, atol=1e-8, cap=1e6))
        err = abs(estimate.value - math.sqrt(2.0))
        results.append(("y' = -2y + y^3 radius is sqrt(2) within 1e-3", err < 1e-3,
                        f"radius {estimate.value:.6f}"))
        return results

    def inputs(self):
        return (f"bundled case a, {self.ANGLES} angles k*2pi/{self.ANGLES}, probe_rtol 1e-4, "
                "horizon 50, r_max 50, q_max 20, bisect_tol 1e-3; the seed only picks the two "
                "angles whose brackets the reference solver confirms")


class Reduce(Workload):
    """The numerical reduction: ``ddebound reduce`` and the fig1 protocol on
    a benchmark-owned planar config with a non-normal, time-varying A0."""

    ops = ("reduce", "fig1_protocol")
    reference = None            # (p, c) on the reduce.csv grid, made once

    def config_files(self):
        return [REDUCE_CONFIG]

    def round(self):
        def reduce(state):
            status, _text = _quiet(self.dd.cli.main, ["reduce", "--config", str(REDUCE_CONFIG),
                                                      "--out", str(self.out)])
            if status != 0:
                raise RuntimeError(f"exit status {status}")

        def fig1(state):
            state["fig1"] = self.dd.cli.fig1_protocol(self.cfg)

        return run_ops(self.ops, [reduce, fig1])

    @staticmethod
    def a0(t: float) -> np.ndarray:
        return np.array([[-3.0 + 0.1 * math.sin(5.0 * t), 0.5 * math.cos(t)],
                         [0.0, -3.0 + math.exp(-t)]])

    def coefficient_gaps(self) -> tuple[float, float, float]:
        """Largest |p - p_ref| and relative c gap over reduce.csv, and the
        first time where either exceeds 1e-5.

        The program takes ``p`` from a finite difference and a spline and ``c``
        from the SVD; 1e-5 covers the difference stencil (~3e-7) and rtol 1e-8
        of its matrix solve.
        """
        data = _read_csv(self.out / "reduce.csv")
        if self.reference is None:
            w = ref.fundamental_matrix(self.a0, 0.0, 50.0)
            pairs = [ref.rate_and_condition(self.a0(float(t)), w(float(t)).reshape(2, 2))
                     for t in data["t"]]
            self.reference = np.array(pairs)
        p_gap = np.abs(data["p"] - self.reference[:, 0])
        c_gap = np.abs(data["c"] - self.reference[:, 1]) / self.reference[:, 1]
        bad = np.nonzero((p_gap > 1e-5) | (c_gap > 1e-5))[0]
        first_bad = float(data["t"][bad[0]]) if bad.size else math.nan
        return float(np.max(p_gap)), float(np.max(c_gap)), first_bad

    def after_round(self, outputs, outcomes):
        if outcomes["reduce"]:
            p_gap, c_gap, first_bad = self.coefficient_gaps()
            outputs["coefficients"] = (p_gap, c_gap, first_bad)
            outcomes["reduce"] = p_gap <= 1e-5 and c_gap <= 1e-5
        super().after_round(outputs, outcomes)

    def digest(self, outputs):
        report, _pipe = outputs["fig1"]
        return _digest(self.out / "reduce.csv") + repr(
            (report.vector_norms.tolist(), [s.tolist() for s in report.scalar_bounds]))

    def check_first(self, first):
        results = []
        if "coefficients" in first:
            p_gap, c_gap, first_bad = first["coefficients"]
            self.notes.append(f"reduce operation, p and c against the reference: max |p gap| "
                              f"{p_gap:.2e}, max relative c gap {c_gap:.2e}, first beyond "
                              f"1e-5 at t={first_bad:.4g}")
        report, _pipe = first["fig1"]
        results.append(("x_norm <= y <= y_hat within 1e-4", report.holds,
                        f"max violation {report.max_violation:.2e} on the shared domain "
                        f"[0, {report.grid[-1]:.4g}]"))
        x = ref.solve_delay(ref.vector_rhs(self.a0),
                            ref.constant_history(ref.HISTORY), ref.DELAY, 0.0, 50.0)
        gap, allowed = _series_error(report.vector_norms, x.norm_on_grid(report.grid), 1e-6)
        results.append(("x_norm matches the reference", gap <= allowed,
                        f"max gap {gap:.2e} (allowed {allowed:.2e})"))
        return results

    def inputs(self):
        return ("perfbench/reduce.cfg (case a with A0 1 2 = 0.5*cos(t), A0 2 2 = -3 + exp(-t), "
                "no closed-form p/c): `ddebound reduce`, then the fig1 protocol at rtol 1e-6; "
                "the seed is not used")


class Linear(Workload):
    """``build_linear_chain`` on case a, superposition checks for seeded
    (history, amplitude) pairs, and the ``y <= u <= U`` chain."""

    PAIRS = 3
    SUPERPOSITION_HORIZON = 20.0
    CHAIN_HISTORY = 0.05

    @property
    def ops(self):
        return (("build_linear_chain",)
                + tuple(f"superposition_{k}" for k in range(self.PAIRS)) + ("chain",))

    def load(self):
        super().load()
        rng = np.random.default_rng(self.seed)
        self.pairs = [(float(rng.uniform(0.0, 0.2)), float(rng.uniform(0.0, 1.0)))
                      for _ in range(self.PAIRS)]
        self.tol = self.dd.ToleranceSettings(rtol=1e-6, atol=1e-9)

    def round(self):
        dd = self.dd

        def build(state):
            pipe = dd.cli.assemble_pipeline(self.cfg)
            state["pipe"] = pipe
            state["linear"], state["constant"] = dd.cli.build_linear_chain(pipe)
            state["residuals"] = []

        def superposition(phi, amplitude):
            def step(state):
                state["residuals"].append(dd.superposition_check(
                    state["linear"], dd.HistoryFunction.constant([phi]), amplitude,
                    self.SUPERPOSITION_HORIZON, self.tol))
            return step

        def chain(state):
            hist = dd.HistoryFunction.constant([self.CHAIN_HISTORY])
            horizon = state["pipe"].horizon
            y = dd.integrate(state["pipe"].scalar_system.homogeneous().with_history(hist),
                             horizon, self.tol)
            u = dd.integrate(replace(state["linear"], history=hist, forcing_amplitude=0.0),
                             horizon, self.tol)
            upper = dd.integrate(replace(state["constant"], history=hist,
                                         forcing_amplitude=0.0), horizon, self.tol)
            state["chain"] = dd.verify_pointwise_ordering([y, u, upper], grid=2000, tol=1e-4)

        steps = [build] + [superposition(*pair) for pair in self.pairs] + [chain]
        return run_ops(self.ops, steps)

    def after_round(self, outputs, outcomes):
        outputs.pop("pipe", None)
        outputs.pop("linear", None)
        super().after_round(outputs, outcomes)

    def digest(self, outputs):
        report = outputs["chain"]
        return repr((outputs["residuals"], [s.tolist() for s in report.scalar_bounds]))

    def check_first(self, first):
        results = []
        worst = max(first["residuals"])
        results.append(("superposition residuals below 1e-4", worst < 1e-4,
                        f"max residual {worst:.2e} over {self.pairs}"))
        report = first["chain"]
        results.append(("y <= u <= U within 1e-4", report.holds,
                        f"max violation {report.max_violation:.2e}"))
        constant = first["constant"]
        (delay,) = [float(h(0.0)) for h in constant.delays.delays]
        upper = ref.solve_delay(ref.linear_rhs(constant.rate.value,
                                               constant.delayed_coeffs[0].value),
                                ref.constant_history([self.CHAIN_HISTORY]), delay, 0.0,
                                float(report.grid[-1])).norm_on_grid(report.grid)
        gap, allowed = _series_error(report.scalar_bounds[1], upper, self.tol.rtol)
        results.append(("U matches the reference", gap <= allowed,
                        f"max gap {gap:.2e} (allowed {allowed:.2e})"))
        return results

    def inputs(self):
        return (f"bundled case a; {self.PAIRS} superposition pairs (phi, F0) drawn with "
                f"numpy default_rng(seed) from U(0, 0.2) x U(0, 1) on [0, "
                f"{self.SUPERPOSITION_HORIZON:g}]: {self.pairs}; chain history "
                f"{self.CHAIN_HISTORY} on [0, 50]; rtol 1e-6")


WORKLOADS = {"fig1": Fig1, "region": Region, "reduce": Reduce, "linear": Linear}
