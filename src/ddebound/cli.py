"""Command-line interface.

Commands: ``simulate``, ``reduce``, ``verify``, ``radius``, ``region``,
``robust``, ``fts``, ``reproduce-fig1``, ``reproduce-fig2``.  Exit codes:
0 success / check holds, 1 check failed, 2 usage or config error,
3 numerical hard error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .analysis import (BoundednessCriterion, classify_fts, estimate_scalar_radius,
                       estimate_vector_region, frozen_scalar_radius,
                       robust_stability_check, verify_pointwise_ordering)
from .config import ConfigError, RunConfig, load_config, load_config_text
from .dde_core import IntegrationError, ToleranceSettings, integrate
from .expressions import EvaluationError
from .linear_aux import build_linear_auxiliary
from .majorant import PolynomialMajorant, linearize_majorant
from .plotting import Curve, emit_csv, emit_region_svg, emit_svg
from .reduction import (CoefficientPair, IllConditionedError, build_autonomous_auxiliary,
                        build_scalar_auxiliary, compute_fundamental_matrix)
from .timefn import ConstantFn, grid_supremum, grid_values

__all__ = ["main", "run_command", "UsageError", "assemble_pipeline",
           "fig1_protocol", "fig2_protocol"]

_BUNDLED = {"a": "planar_case_a.cfg", "b": "planar_case_b.cfg"}


class UsageError(ValueError):
    """Command invoked on an unsuitable configuration."""


@dataclass
class Pipeline:
    """Everything the analysis commands need, assembled from one config."""

    config: RunConfig
    horizon: float
    tol: ToleranceSettings
    vector_system: object
    coefficients: CoefficientPair
    majorant: PolynomialMajorant
    scalar_system: object
    autonomous_system: object


def assemble_pipeline(cfg: RunConfig, horizon: float | None = None,
                      rtol: float | None = None, cap: float | None = None) -> Pipeline:
    """Build the vector system, its scalar comparison system and the frozen
    autonomous variant from a run configuration."""
    horizon = cfg.horizon if horizon is None else horizon
    tol = cfg.solver
    if rtol is not None:
        tol = replace(tol, rtol=rtol)
    if cap is not None:
        tol = replace(tol, cap=cap)
    a1 = cfg.a1_matrix()
    vs = cfg.build_vector_system(a1)
    if cfg.reduction.p_expr is not None:
        coeffs = CoefficientPair.closed_form(cfg.reduction.p_expr, cfg.reduction.c_expr)
    else:
        fundamental = compute_fundamental_matrix(
            cfg.a0_matrix(), vs.t0, horizon,
            ToleranceSettings(rtol=1e-8, atol=1e-12, cap=math.inf))
        coeffs = CoefficientPair.from_fundamental(fundamental)
    if vs.f is not None:
        majorant = vs.f.majorize()
    else:
        majorant = PolynomialMajorant.zero(vs.delays.count + 1)
    scalar = build_scalar_auxiliary(vs, a1, coeffs, majorant)
    autonomous = build_autonomous_auxiliary(scalar, horizon, cfg.reduction.margin)
    return Pipeline(cfg, horizon, tol, vs, coeffs, majorant, scalar, autonomous)


def fig1_protocol(cfg: RunConfig, horizon: float | None = None,
                  rtol: float | None = None, grid: int | None = None):
    """Integrate the vector system and both scalar bounds, check the ordering.

    Returns ``(report, pipeline)``; the report's series are the vector norm,
    the scalar bound and the autonomous bound on the shared grid.
    """
    pipe = assemble_pipeline(cfg, horizon=horizon, rtol=rtol)
    points = grid if grid is not None else cfg.output.grid
    traj_x = integrate(pipe.vector_system, pipe.horizon, pipe.tol)
    traj_y = integrate(pipe.scalar_system, pipe.horizon, pipe.tol)
    traj_hat = integrate(pipe.autonomous_system, pipe.horizon, pipe.tol)
    report = verify_pointwise_ordering([traj_x, traj_y, traj_hat],
                                       grid=points, tol=1e-4)
    return report, pipe


def fig2_protocol(cfg: RunConfig, horizon: float | None = None,
                  angle_count: int = 200):
    """Stability-region protocol: polar sweep of the homogeneous vector system
    against the scalar radii of its comparison systems (the frozen one exact).

    Returns ``(boundary, scalar_estimate, autonomous_estimate, inclusion_ok)``.
    """
    pipe = assemble_pipeline(cfg, horizon=horizon)
    homogeneous = replace(pipe.vector_system, forcing_amplitude=0.0, forcing_shape=None)
    scalar = pipe.scalar_system.homogeneous()
    a_cfg = cfg.analysis
    criterion, probe_tol, duration = _search_settings(pipe)
    boundary = estimate_vector_region(homogeneous, criterion, a_cfg.r_max,
                                      a_cfg.bisect_tol, duration, probe_tol,
                                      angle_count=angle_count)
    scalar_estimate = estimate_scalar_radius(scalar, criterion, a_cfg.q_max,
                                             a_cfg.bisect_tol, duration, probe_tol)
    autonomous_estimate = frozen_scalar_radius(pipe.autonomous_system.homogeneous(),
                                               criterion, a_cfg.q_max, duration)
    slack = 2.0 * a_cfg.bisect_tol * max(1.0, boundary.min_radius())
    inclusion = (scalar_estimate.value <= boundary.min_radius() + slack
                 and autonomous_estimate.value <= boundary.min_radius() + slack)
    return boundary, scalar_estimate, autonomous_estimate, inclusion


def build_linear_chain(pipe: Pipeline):
    """The time-varying linearization u of the scalar system and the
    constant-coefficient U, the same linearization of its frozen variant,
    for the chain and superposition commands/tests."""
    cfg = pipe.config
    scalar = pipe.scalar_system
    auto = pipe.autonomous_system
    zt = cfg.reduction.zeta_tilde
    vs = pipe.vector_system
    forcing_norm = vs.forcing_norm if vs.forcing_amplitude > 0 else ConstantFn(0.0)
    linear = build_linear_auxiliary(pipe.coefficients, linearize_majorant(scalar.majorant, zt),
                                    scalar.delays, forcing_norm, vs.forcing_amplitude,
                                    scalar.history, scalar.t0)
    (forcing_norm_hat,) = grid_supremum([forcing_norm], scalar.t0, pipe.horizon,
                                        cfg.reduction.margin)
    constant = build_linear_auxiliary(CoefficientPair.closed_form(auto.p, auto.c),
                                      linearize_majorant(auto.majorant, zt),
                                      scalar.delays, ConstantFn(forcing_norm_hat),
                                      vs.forcing_amplitude, scalar.history, scalar.t0)
    return linear, constant


# ---------------------------------------------------------------------------
# commands


def _load(args) -> RunConfig:
    if args.config is not None:
        return load_config(args.config)
    if getattr(args, "case", None):
        return _bundled_config(args.case)
    raise UsageError("--config is required for this command")


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
    traj = integrate(pipe.vector_system, pipe.horizon, pipe.tol)
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
    pipe = assemble_pipeline(cfg, args.horizon, args.rtol, args.cap)
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
    pipe = assemble_pipeline(cfg, args.horizon, args.rtol, args.cap)
    criterion, probe_tol, duration = _search_settings(pipe)
    estimate = estimate_scalar_radius(pipe.scalar_system, criterion,
                                      cfg.analysis.q_max, cfg.analysis.bisect_tol,
                                      duration, probe_tol)
    out = _out_dir(args)
    probes = estimate.probes
    emit_csv([("q", [p[0] for p in probes]),
              ("good", [1.0 if p[1] else 0.0 for p in probes])],
             out / "radius.csv")
    print(f"scalar radius ({estimate.criterion}, horizon {duration:g}): "
          f"{estimate.value:.6g}  bracket [{estimate.lo:.6g}, {estimate.hi:.6g}] "
          f"status {estimate.status}")
    print(f"wrote {out / 'radius.csv'}")
    return 0


def _cmd_region(args) -> int:
    cfg = _load(args)
    if cfg.system.dim != 2:
        raise UsageError("the polar region sweep requires a 2-dimensional system")
    pipe = assemble_pipeline(cfg, args.horizon, args.rtol, args.cap)
    criterion, probe_tol, duration = _search_settings(pipe)
    boundary = estimate_vector_region(pipe.vector_system, criterion,
                                      cfg.analysis.r_max, cfg.analysis.bisect_tol,
                                      duration, probe_tol)
    out = _out_dir(args)
    emit_csv([("angle", boundary.angles),
              ("radius", boundary.radius_values()),
              ("lo", [r.lo for r in boundary.radii]),
              ("hi", [min(r.hi, 1e308) for r in boundary.radii])],
             out / "region.csv")
    if args.svg:
        emit_region_svg([("region", boundary.angles, boundary.radius_values())],
                        out / "region.svg", title="region boundary (ln radius)")
    print(f"region sweep over {len(boundary.angles)} angles: min radius "
          f"{boundary.min_radius():.6g}")
    print(f"wrote {out / 'region.csv'}")
    return 0


def _cmd_robust(args) -> int:
    cfg = _load(args)
    a = cfg.analysis
    if a.p_hat is None or a.c_hat is None or not a.l_hat_terms:
        raise UsageError("the robust command needs p_hat, c_hat and L_hat terms "
                         "in the [analysis] section")
    report = robust_stability_check(a.p_hat, a.c_hat, cfg.l_hat_majorant())
    print(f"y_plus = {report.y_plus:.6g}")
    print(f"holds = {report.holds}")
    return 0 if report.holds else 1


def _cmd_fts(args) -> int:
    cfg = _load(args)
    a = cfg.analysis
    if a.alpha is None or a.beta is None or a.T is None:
        raise UsageError("the fts command needs alpha, beta and T in [analysis]")
    pipe = assemble_pipeline(cfg, args.horizon, args.rtol, args.cap)
    traj = integrate(pipe.vector_system, cfg.system.t0 + a.T, pipe.tol)
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


_COMMANDS = {
    "simulate": _cmd_simulate,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
    "radius": _cmd_radius,
    "region": _cmd_region,
    "robust": _cmd_robust,
    "fts": _cmd_fts,
    "reproduce-fig1": _cmd_reproduce_fig1,
    "reproduce-fig2": _cmd_reproduce_fig2,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddebound",
        description="Scalar comparison bounds and region estimates for delay systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="run configuration file")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--svg", action="store_true", help="also write SVG plots")
        cmd.add_argument("--horizon", type=float, default=None)
        cmd.add_argument("--rtol", type=float, default=None)
        cmd.add_argument("--cap", type=float, default=None)
        if name.startswith("reproduce"):
            cases = ("a", "b", "both") if name == "reproduce-fig1" else ("a", "b")
            cmd.add_argument("--case", default=None, choices=cases,
                             help="bundled parameter case")
    return parser


def run_command(command: str, args) -> int:
    """Dispatch a parsed command; returns the process exit status."""
    try:
        return _COMMANDS[command](args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, IllConditionedError, EvaluationError,
            OverflowError) as exc:
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
