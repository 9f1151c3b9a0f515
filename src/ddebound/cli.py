"""Command-line interface.

Commands: ``simulate``, ``reduce``, ``verify``, ``radius``, ``region``,
``robust``, ``fts``, ``reproduce-fig1``, ``reproduce-fig2``, dispatched from
one table, ``_COMMANDS``, of each command and the flags it reads.  Exit
codes: 0 success / check holds, 1 check failed, 2 usage or config error,
3 numerical hard error.  Importing this module loads no scipy: the one
scipy routine, ``CubicSpline``, is imported by a numerical reduction, where
it runs.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .analysis import (BoundednessCriterion, classify_fts, estimate_scalar_radius,
                       estimate_vector_region, frozen_scalar_radius,
                       robust_stability_check, verify_pointwise_ordering)
from .config import ConfigError, RunConfig, load_config, load_config_text
from .dde_core import IntegrationError, ScalarDelaySystem, ToleranceSettings, integrate
from .linear_aux import build_linear_chain  # noqa: F401  (perfbench reads it here)
from .majorant import PolynomialMajorant
from .plotting import Curve, emit_csv, emit_region_svg, emit_svg
from .reduction import (CoefficientPair, IllConditionedError, build_autonomous_auxiliary,
                        build_scalar_auxiliary, coefficients_of)
from .timefn import grid_values

__all__ = ["main", "run_command", "UsageError", "assemble_pipeline",
           "fig1_protocol", "fig2_protocol"]

_BUNDLED = {"a": "planar_case_a.cfg", "b": "planar_case_b.cfg"}


class UsageError(ValueError):
    """Command invoked on an unsuitable configuration."""


@dataclass
class Pipeline:
    """The scalar side of one config, for the analysis commands.

    Each stage is built the first time it is read and kept: the reduction's
    coefficients, read off ``A0``, the scalar comparison system and its
    frozen autonomous variant.  The vector system is the config's own
    (``config.system``), so a command that reads only that builds no
    reduction.
    """

    config: RunConfig
    horizon: float
    tol: ToleranceSettings

    @cached_property
    def coefficients(self) -> CoefficientPair:
        return coefficients_of(self.config.a0, self.config.system.t0, self.horizon)

    @cached_property
    def scalar_system(self) -> ScalarDelaySystem:
        vs = self.config.system
        if vs.f is not None:
            majorant = vs.f.majorize()
        else:
            majorant = PolynomialMajorant.zero(vs.delays.count + 1)
        return build_scalar_auxiliary(vs, self.config.a1, self.coefficients, majorant)

    @cached_property
    def autonomous_system(self) -> ScalarDelaySystem:
        return build_autonomous_auxiliary(self.scalar_system, self.horizon,
                                          self.config.reduction.margin)


def assemble_pipeline(cfg: RunConfig, horizon: float | None = None,
                      rtol: float | None = None, cap: float | None = None) -> Pipeline:
    """The pipeline of a run configuration, with the horizon, relative
    tolerance and cap overridden where given; its stages are built on
    first read.  A horizon that is not finite is refused here, before any
    stage samples a coefficient on it."""
    if horizon is not None and not math.isfinite(horizon):
        raise UsageError(f"--horizon must be finite, not {horizon!r}")
    tol = cfg.solver
    if rtol is not None:
        tol = replace(tol, rtol=rtol)
    if cap is not None:
        tol = replace(tol, cap=cap)
    return Pipeline(cfg, cfg.horizon if horizon is None else horizon, tol)


def fig1_protocol(cfg: RunConfig, horizon: float | None = None,
                  rtol: float | None = None, grid: int | None = None):
    """Integrate the vector system and both scalar bounds, check the ordering.

    Returns ``(report, pipeline)``; the report's series are the vector norm,
    the scalar bound and the autonomous bound on the shared grid.
    """
    pipe = assemble_pipeline(cfg, horizon=horizon, rtol=rtol)
    points = grid if grid is not None else cfg.output.grid
    systems = (cfg.system, pipe.scalar_system, pipe.autonomous_system)
    report = verify_pointwise_ordering([integrate(s, pipe.horizon, pipe.tol) for s in systems],
                                       grid=points, tol=1e-4)
    return report, pipe


def fig2_protocol(cfg: RunConfig, horizon: float | None = None,
                  angle_count: int = 200):
    """Stability-region protocol: polar sweep of the homogeneous vector system
    against the scalar radii of its comparison systems (the frozen one exact).

    The frozen radius comes first.  For the ``bounded`` criterion a positive
    frozen radius, a float where the frozen right side reads below 0
    (`frozen_scalar_radius`), is a trap (`ToleranceSettings.trap`):
    the frozen suprema dominate ``p``, ``c`` and ``L`` on the horizon, so a
    scalar solution whose delay window lies in that ball stays there, and
    so, by the comparison theorem, does the norm of a vector solution.  The
    scalar search always gets the trap; the vector sweep only for a
    closed-form reduction (``A0 = a(t) I``, ``c = 1``), whose ``p`` and ``c``
    are the same when the reduction restarts at the entry time, so a
    numerical reduction such as ``perfbench/reduce.cfg`` probes in full.  A
    trapped probe is good, as its full run would be, so the estimates do
    not change.  The ``radius`` and ``region`` commands pass no trap.

    Returns ``(boundary, scalar_estimate, autonomous_estimate, inclusion_ok)``.
    """
    pipe = assemble_pipeline(cfg, horizon=horizon)
    homogeneous = replace(cfg.system, forcing_amplitude=0.0, forcing_shape=None)
    scalar = pipe.scalar_system.homogeneous()
    autonomous = pipe.autonomous_system.homogeneous()
    a_cfg = cfg.analysis
    criterion, probe_tol, duration = _search_settings(pipe)
    autonomous_estimate = frozen_scalar_radius(autonomous, criterion, a_cfg.q_max, duration)
    scalar_tol = vector_tol = probe_tol
    if criterion.kind == "bounded_on_horizon":
        trap = autonomous_estimate.value
        if 0.0 < trap < probe_tol.cap:
            scalar_tol = replace(probe_tol, trap=trap)
            if pipe.coefficients.provenance == "closed_form":
                vector_tol = scalar_tol
    boundary = estimate_vector_region(homogeneous, criterion, a_cfg.r_max,
                                      a_cfg.bisect_tol, duration, vector_tol,
                                      angle_count=angle_count)
    scalar_estimate = estimate_scalar_radius(scalar, criterion, a_cfg.q_max,
                                             a_cfg.bisect_tol, duration, scalar_tol)
    slack = 2.0 * a_cfg.bisect_tol * max(1.0, boundary.min_radius())
    inclusion = (scalar_estimate.value <= boundary.min_radius() + slack
                 and autonomous_estimate.value <= boundary.min_radius() + slack)
    return boundary, scalar_estimate, autonomous_estimate, inclusion


# ---------------------------------------------------------------------------
# commands


def _load(args) -> RunConfig:
    if args.config is None:
        raise UsageError("--config is required for this command")
    return load_config(args.config)


def _bundled_config(case: str) -> RunConfig:
    if case not in _BUNDLED:
        raise UsageError(f"unknown bundled case {case!r}; available: a, b")
    text = resources.files("ddebound").joinpath(f"configs/{_BUNDLED[case]}").read_text()
    return load_config_text(text, f"<bundled:{case}>")


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    pipe = assemble_pipeline(cfg, args.horizon, args.rtol, args.cap)
    traj = integrate(cfg.system, pipe.horizon, pipe.tol)
    grid = np.linspace(traj.t_start, traj.t_end, cfg.output.grid)
    states = traj.eval_grid(grid)
    columns = [("t", grid)]
    for j in range(states.shape[1]):
        columns.append((f"x{j + 1}", states[:, j]))
    norms = traj.norm_grid(grid)
    columns.append(("x_norm", norms))
    out = _out_dir(args)
    emit_csv(columns, out / "simulate.csv")
    if args.svg:
        curves = [Curve(f"x{j + 1}", grid, states[:, j]) for j in range(states.shape[1])]
        curves.append(Curve("|x|", grid, norms))
        emit_svg(curves, out / "simulate.svg", title="state evolution")
    print(f"simulated to t={traj.t_end:g} ({traj.termination}); "
          f"wrote {out / 'simulate.csv'}")
    return 0


def _cmd_reduce(args) -> int:
    cfg = _load(args)
    pipe = assemble_pipeline(cfg, args.horizon)
    scalar = pipe.scalar_system
    grid = np.linspace(scalar.t0, pipe.horizon, cfg.output.grid)
    p_vals, c_vals = grid_values([pipe.coefficients.p, pipe.coefficients.c], grid)
    out = _out_dir(args)
    emit_csv([("t", grid), ("p", p_vals), ("c", c_vals)], out / "reduce.csv")
    auto = pipe.autonomous_system
    print(f"reduction ({pipe.coefficients.provenance}): "
          f"sup p = {auto.p(0.0):.6g}, sup c = {auto.c(0.0):.6g}")
    for k, term in enumerate(auto.majorant.terms):
        print(f"  term {k + 1}: coeff sup {term.coeff(0.0):.6g}, "
              f"exponents {term.exponents}")
    print(f"wrote {out / 'reduce.csv'}")
    return 0


def _cmd_verify(args) -> int:
    cfg = _load(args)
    report, _pipe = fig1_protocol(cfg, args.horizon, args.rtol)
    out = _out_dir(args)
    _emit_chain(report, out, "verify", args.svg, "norm bound chain")
    status = "holds" if report.holds else "VIOLATED"
    print(f"bound ordering {status}: max violation {report.max_violation:.3e} "
          f"(tolerance {report.tolerance:g})")
    if report.first_violation_time is not None:
        print(f"first violation at t={report.first_violation_time:g}")
    print(f"wrote {out / 'verify.csv'}")
    return 0 if report.holds else 1


def _emit_chain(report, out: Path, stem: str, svg: bool, title: str) -> None:
    """Write the series ``|x| <= y <= y_hat`` of a fig1 report to
    ``<stem>.csv`` and, with ``svg``, plot them to ``<stem>.svg``."""
    series = (report.vector_norms, *report.scalar_bounds)
    emit_csv([("t", report.grid), *zip(("x_norm", "y", "y_hat"), series)],
             out / f"{stem}.csv")
    if svg:
        curves = [Curve(label, report.grid, values)
                  for label, values in zip(("|x|", "y", "y_hat"), series)]
        emit_svg(curves, out / f"{stem}.svg", title=title, ylabel="norm / bound")


def _search_settings(pipe: Pipeline):
    """``(criterion, probe tolerances, duration)`` of the radius and region
    searches, from the pipeline's config, cap and horizon."""
    cfg = pipe.config
    a = cfg.analysis
    kind = "bounded_on_horizon" if a.criterion == "bounded" else "decaying_tail"
    criterion = BoundednessCriterion(kind=kind, cap=pipe.tol.cap,
                                     tail_fraction=a.tail_fraction,
                                     decay_ratio=a.decay_ratio)
    probe_tol = ToleranceSettings(rtol=a.probe_rtol, atol=1e-8, cap=pipe.tol.cap)
    return criterion, probe_tol, pipe.horizon - cfg.system.t0


def _cmd_radius(args) -> int:
    cfg = _load(args)
    pipe = assemble_pipeline(cfg, args.horizon, cap=args.cap)
    criterion, probe_tol, duration = _search_settings(pipe)
    estimate = estimate_scalar_radius(pipe.scalar_system, criterion,
                                      cfg.analysis.q_max, cfg.analysis.bisect_tol,
                                      duration, probe_tol)
    out = _out_dir(args)
    probes = estimate.probes
    emit_csv([("q", [p[0] for p in probes]),
              ("good", [1.0 if p[1] else 0.0 for p in probes])],
             out / "radius.csv")
    print(f"scalar radius ({estimate.criterion.kind}, horizon {duration:g}): "
          f"{estimate.value:.6g}  bracket [{estimate.lo:.6g}, {estimate.hi:.6g}] "
          f"status {estimate.status}")
    print(f"wrote {out / 'radius.csv'}")
    return 0


def _cmd_region(args) -> int:
    cfg = _load(args)
    if cfg.system.dim != 2:
        raise UsageError("the polar region sweep requires a 2-dimensional system")
    pipe = assemble_pipeline(cfg, args.horizon, cap=args.cap)
    criterion, probe_tol, duration = _search_settings(pipe)
    boundary = estimate_vector_region(cfg.system, criterion,
                                      cfg.analysis.r_max, cfg.analysis.bisect_tol,
                                      duration, probe_tol)
    out = _out_dir(args)
    emit_csv([("angle", boundary.angles),
              ("radius", boundary.radius_values()),
              ("lo", [r.lo for r in boundary.radii]),
              ("hi", [min(r.hi, 1e308) for r in boundary.radii])],
             out / "region.csv")
    if args.svg:
        emit_region_svg([("region", boundary.angles,
                          np.maximum(boundary.radius_values(), 1e-12))],
                        out / "region.svg", title="region boundary (ln radius)")
    print(f"region sweep over {len(boundary.angles)} angles: min radius "
          f"{boundary.min_radius():.6g}")
    print(f"wrote {out / 'region.csv'}")
    return 0


def _cmd_robust(args) -> int:
    auto = assemble_pipeline(_load(args)).autonomous_system
    report = robust_stability_check(auto.p.value, auto.c.value, auto.majorant)
    print(f"y_plus = {report.y_plus:.6g}")
    print(f"holds = {report.holds}")
    return 0 if report.holds else 1


def _cmd_fts(args) -> int:
    cfg = _load(args)
    a = cfg.analysis
    if a.alpha is None or a.beta is None or a.T is None:
        raise UsageError("the fts command needs alpha, beta and T in [analysis]")
    pipe = assemble_pipeline(cfg, rtol=args.rtol, cap=args.cap)
    traj = integrate(cfg.system, cfg.system.t0 + a.T, pipe.tol)
    report = classify_fts(traj, a.alpha, a.beta, a.T, a.gamma)
    print(f"FTS = {report.fts} (sup |x| = {report.sup_value:.6g})")
    if report.beta_crossing_time is not None:
        print(f"beta crossed at t = {report.beta_crossing_time:.6g}")
    if a.gamma is not None:
        print(f"FTCS = {report.ftcs}" + (f", t1 = {report.t1:.6g}"
                                         if report.t1 is not None else ""))
    ok = report.fts and (a.gamma is None or bool(report.ftcs))
    return 0 if ok else 1


def _reproduce_configs(args, default: str) -> list[tuple[str, RunConfig]]:
    """``(case, config)`` of each run of a reproduce command: ``custom`` for
    ``--config``, else the bundled ``--case`` (``both``: a and b) or ``default``."""
    if args.config is not None:
        if args.case is not None:
            raise UsageError("--case picks a bundled case; it cannot be combined with --config")
        return [("custom", load_config(args.config))]
    case = args.case or default
    return [(c, _bundled_config(c)) for c in (("a", "b") if case == "both" else (case,))]


def _cmd_reproduce_fig1(args) -> int:
    runs = _reproduce_configs(args, "both")
    out = _out_dir(args)
    all_hold = True
    for case, cfg in runs:
        report, _pipe = fig1_protocol(cfg, args.horizon, args.rtol)
        _emit_chain(report, out, f"fig1_{case}", args.svg, f"norm bound chain, case {case}")
        status = "holds" if report.holds else "VIOLATED"
        print(f"case {case}: ordering {status} "
              f"(max violation {report.max_violation:.3e})")
        all_hold = all_hold and report.holds
    return 0 if all_hold else 1


def _cmd_reproduce_fig2(args) -> int:
    ((_case, cfg),) = _reproduce_configs(args, "a")
    boundary, scalar_est, auto_est, inclusion = fig2_protocol(cfg, args.horizon)
    out = _out_dir(args)
    n = len(boundary.angles)
    emit_csv([("angle", boundary.angles),
              ("vector_radius", boundary.radius_values()),
              ("scalar_radius", [scalar_est.value] * n),
              ("autonomous_radius", [auto_est.value] * n)],
             out / "fig2.csv")
    if args.svg:
        emit_region_svg(
            [("vector region", boundary.angles, boundary.radius_values()),
             ("scalar radius", boundary.angles, np.full(n, max(scalar_est.value, 1e-12))),
             ("autonomous radius", boundary.angles, np.full(n, max(auto_est.value, 1e-12)))],
            out / "fig2.svg", title="stability region boundaries (ln radius)")
    print(f"vector region: min radius {boundary.min_radius():.6g}")
    print(f"scalar radius {scalar_est.value:.6g} ({scalar_est.status}), "
          f"autonomous radius {auto_est.value:.6g} ({auto_est.status})")
    print(f"disk inclusion {'holds' if inclusion else 'VIOLATED'}")
    print(f"wrote {out / 'fig2.csv'}")
    return 0 if inclusion else 1


def _case(*choices):
    return ("--case", {"default": None, "choices": choices, "help": "bundled parameter case"})


_OUT = ("--out", {"default": None, "help": "output directory"})
_SVG = ("--svg", {"action": "store_true", "help": "also write SVG plots"})
_HORIZON = ("--horizon", {"type": float, "default": None,
                          "help": "end time (default: the [solver] horizon)"})
_RTOL = ("--rtol", {"type": float, "default": None,
                    "help": "relative tolerance of the integrations"})
_CAP = ("--cap", {"type": float, "default": None, "help": "blow-up cap"})

# each command with the flags it reads; every command also takes --config
_COMMANDS = {
    "simulate": (_cmd_simulate, (_OUT, _SVG, _HORIZON, _RTOL, _CAP)),
    "reduce": (_cmd_reduce, (_OUT, _HORIZON)),
    "verify": (_cmd_verify, (_OUT, _SVG, _HORIZON, _RTOL)),
    "radius": (_cmd_radius, (_OUT, _HORIZON, _CAP)),
    "region": (_cmd_region, (_OUT, _SVG, _HORIZON, _CAP)),
    "robust": (_cmd_robust, ()),
    "fts": (_cmd_fts, (_RTOL, _CAP)),
    "reproduce-fig1": (_cmd_reproduce_fig1, (_case("a", "b", "both"), _OUT, _SVG,
                                             _HORIZON, _RTOL)),
    "reproduce-fig2": (_cmd_reproduce_fig2, (_case("a", "b"), _OUT, _SVG, _HORIZON)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddebound",
        description="Scalar comparison bounds and region estimates for delay systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_run, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="run configuration file")
        for flag, spec in flags:
            cmd.add_argument(flag, **spec)
    return parser


def run_command(command: str, args) -> int:
    """Dispatch a parsed command; returns the process exit status."""
    try:
        return _COMMANDS[command][0](args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, IllConditionedError, OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return run_command(args.command, args)


if __name__ == "__main__":
    sys.exit(main())
