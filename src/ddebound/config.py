"""Plain-text run configuration: grammar, loading and system assembly.

Format: sectioned key-value text.  ``#`` starts a comment (full line or
trailing), section headers are ``[name]``, entries are ``key = value`` where
keys may carry indices (``A0 1 1``).  Indices are 1-based in files and
converted internally.  Grammar by section::

    [system]
      dim = 2                    # state dimension (required)
      t0 = 0
      A0 <i> <j> = <expr>        # linear part generating the reduction
      A1 <i> <j> = <expr>        # declared remainder matrix (optional)
      delay <k> = <expr>         # k-th delay h_k(t), k = 1..m
      A1_delayed <k> = <number>  # adds weight * A1(t) * x(t - h_k)
      f <i> = <coeff expr> ; <slot> <coord> <power> ; ...
                                 # monomial for coordinate i; slot 0 = current
      F0 = <number>              # forcing amplitude (>= 0)
      e <i> = <expr>             # forcing shape coordinate (sup norm 1)
      history = constant <v1> ... <vn>
      history <i> = <expr>       # per-coordinate form
      history sample = <t> <v1> ... <vn>   # repeated lines, increasing t

    [reduction]
      p = <expr>                 # closed-form coefficients (both or neither)
      c = <expr>
      zeta_tilde = <number>      # linearization radius
      margin = <number>          # relative inflation of sampled suprema

    [solver]
      rtol, atol, cap, horizon

    [analysis]
      criterion = bounded | decaying
      q_max, r_max, bisect_tol, probe_rtol, tail_fraction, decay_ratio
      alpha, beta, gamma, T      # finite-time classification
      p_hat, c_hat               # closed-form robust criterion
      L_hat = <coeff> ; <power>  # repeated, one-variable majorant terms

    [output]
      grid = <int>
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .dde_core import DelaySpec, HistoryFunction, ToleranceSettings, VectorDelaySystem
from .expressions import Expression, ExpressionSyntaxError, parse_expression
from .linalg import MatrixFunction, VectorFunction
from .majorant import PolynomialMajorant, PolynomialTerm
from .timefn import ConstantFn
from .vectorfield import DelayedMatrixTerm, NonlinearTerm, PolynomialVectorField

__all__ = ["ConfigError", "RunConfig", "load_config", "load_config_text"]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass
class SystemConfig:
    dim: int
    t0: float
    a0_entries: dict
    a1_entries: dict
    delay_exprs: list
    a1_delay_weights: list          # (slot, weight)
    f_monomials: list               # (coord, coeff expr, [(slot, coord, power)])
    forcing_amplitude: float
    e_entries: dict
    history_kind: str               # constant | expressions | samples
    history_data: object


@dataclass
class ReductionConfig:
    p_expr: Expression | None = None
    c_expr: Expression | None = None
    zeta_tilde: float = 0.5
    margin: float = 1e-3


@dataclass
class AnalysisConfig:
    criterion: str = "bounded"
    q_max: float = 20.0
    r_max: float = 20.0
    bisect_tol: float = 1e-3
    probe_rtol: float = 1e-4
    tail_fraction: float = 0.2
    decay_ratio: float = 0.5
    alpha: float | None = None
    beta: float | None = None
    gamma: float | None = None
    T: float | None = None
    p_hat: float | None = None
    c_hat: float | None = None
    l_hat_terms: list = field(default_factory=list)   # (coeff, power)


@dataclass
class OutputConfig:
    grid: int = 2000


@dataclass
class RunConfig:
    system: SystemConfig
    reduction: ReductionConfig
    solver: ToleranceSettings
    horizon: float
    analysis: AnalysisConfig
    output: OutputConfig
    source: str = "<memory>"

    # -- assembly helpers --------------------------------------------------
    def delay_spec(self) -> DelaySpec:
        sc = self.system
        return DelaySpec.from_functions(sc.delay_exprs, sc.t0, self.horizon)

    def a0_matrix(self) -> MatrixFunction:
        return MatrixFunction(self.system.dim, self.system.a0_entries)

    def a1_matrix(self) -> MatrixFunction | None:
        if not self.system.a1_entries and not self.system.a1_delay_weights:
            return None
        return MatrixFunction(self.system.dim, self.system.a1_entries)

    def history(self) -> HistoryFunction:
        sc = self.system
        if sc.history_kind == "constant":
            return HistoryFunction.constant(sc.history_data)
        if sc.history_kind == "expressions":
            return HistoryFunction.from_expressions(sc.history_data)
        times, values = sc.history_data
        return HistoryFunction.from_samples(times, values)

    def build_vector_system(self, a1: MatrixFunction | None = None) -> VectorDelaySystem:
        """The vector system; ``a1``, when given, is the remainder matrix
        function to use (so a caller can share it and its norm memo)."""
        sc = self.system
        delays = self.delay_spec()
        a0 = self.a0_matrix()
        if a1 is None:
            a1 = self.a1_matrix()
        a_full = a0 if a1 is None else a0.plus(a1)
        poly = None
        if sc.f_monomials:
            poly = PolynomialVectorField(sc.dim, delays.count, sc.f_monomials)
        matrix_terms = [DelayedMatrixTerm(slot, weight, a1)
                        for slot, weight in sc.a1_delay_weights]
        nonlinear = None
        if poly is not None or matrix_terms:
            nonlinear = NonlinearTerm(sc.dim, delays.count, poly, matrix_terms)
        # the shape's norm is compiled from the same expressions
        shape = VectorFunction(sc.dim, sc.e_entries) if sc.forcing_amplitude > 0 else None
        return VectorDelaySystem(
            dim=sc.dim, A=a_full, f=nonlinear,
            forcing_amplitude=sc.forcing_amplitude, forcing_shape=shape,
            delays=delays, history=self.history(), t0=sc.t0)

    def l_hat_majorant(self) -> PolynomialMajorant:
        terms = [PolynomialTerm(ConstantFn(coeff), (power,))
                 for coeff, power in self.analysis.l_hat_terms]
        return PolynomialMajorant(tuple(terms), 1)


# ---------------------------------------------------------------------------
# parsing


def _parse_entries(text: str, source: str):
    """Yield (section, key, value, line_number) tuples."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"{source}:{lineno}: malformed section header {raw!r}")
            section = line[1:-1].strip().lower()
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"{source}:{lineno}: entry before any [section]")
        key, value = line.split("=", 1)
        yield section, key.strip(), value.strip(), lineno


def _expr(value: str, where: str) -> Expression:
    try:
        return parse_expression(value)
    except ExpressionSyntaxError as exc:
        raise ConfigError(f"{where}: bad expression: {exc}") from exc


def _number(value: str, where: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected a number, got {value!r}") from exc


def _integer(value: str, where: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected an integer, got {value!r}") from exc


def load_config(path) -> RunConfig:
    """Load and validate a run configuration file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return load_config_text(text, str(path))


def load_config_text(text: str, source: str = "<memory>") -> RunConfig:
    dim: int | None = None
    t0 = 0.0
    a0_entries: dict = {}
    a1_entries: dict = {}
    delay_exprs: dict[int, Expression] = {}
    a1_delay_weights: list = []
    f_monomials: list = []
    forcing_amplitude = 0.0
    e_entries: dict = {}
    history_kind: str | None = None
    history_constant = None
    history_exprs: dict[int, Expression] = {}
    history_samples: list = []

    reduction = ReductionConfig()
    solver_fields = {"rtol": 1e-6, "atol": 1e-9, "cap": 1e6}
    horizon = 50.0
    analysis = AnalysisConfig()
    output = OutputConfig()

    matrix_targets = {"a0": a0_entries, "a1": a1_entries}

    for section, key, value, lineno in _parse_entries(text, source):
        where = f"{source}:{lineno}"
        parts = key.split()
        name = parts[0].lower()
        if section == "system":
            if name == "dim":
                dim = _integer(value, where)
            elif name == "t0":
                t0 = _number(value, where)
            elif name in matrix_targets:
                if len(parts) != 3:
                    raise ConfigError(f"{where}: matrix entries need 'A# row col = expr'")
                i = _integer(parts[1], where) - 1
                j = _integer(parts[2], where) - 1
                matrix_targets[name][(i, j)] = _expr(value, where)
            elif name == "delay":
                if len(parts) != 2:
                    raise ConfigError(f"{where}: delays are declared as 'delay k = expr'")
                delay_exprs[_integer(parts[1], where)] = _expr(value, where)
            elif name == "a1_delayed":
                if len(parts) != 2:
                    raise ConfigError(f"{where}: use 'A1_delayed k = weight'")
                a1_delay_weights.append((_integer(parts[1], where), _number(value, where)))
            elif name == "f":
                if len(parts) != 2:
                    raise ConfigError(f"{where}: monomials are declared as 'f i = ...'")
                coord = _integer(parts[1], where) - 1
                pieces = [p.strip() for p in value.split(";")]
                if len(pieces) < 2:
                    raise ConfigError(
                        f"{where}: a monomial needs a coefficient and at least one "
                        f"'slot coord power' factor")
                coeff = _expr(pieces[0], where)
                factors = []
                for piece in pieces[1:]:
                    nums = piece.split()
                    if len(nums) != 3:
                        raise ConfigError(
                            f"{where}: factor {piece!r} must be 'slot coord power'")
                    factors.append((_integer(nums[0], where),
                                    _integer(nums[1], where) - 1,
                                    _integer(nums[2], where)))
                f_monomials.append((coord, coeff, factors))
            elif name == "f0":
                forcing_amplitude = _number(value, where)
            elif name == "e":
                if len(parts) != 2:
                    raise ConfigError(f"{where}: forcing entries are 'e i = expr'")
                e_entries[_integer(parts[1], where) - 1] = _expr(value, where)
            elif name == "history":
                if len(parts) == 1:
                    tokens = value.split()
                    if not tokens or tokens[0] != "constant":
                        raise ConfigError(
                            f"{where}: bare 'history =' takes 'constant v1 ... vn'")
                    history_kind = "constant"
                    history_constant = [_number(v, where) for v in tokens[1:]]
                elif parts[1].lower() == "sample":
                    history_kind = "samples"
                    history_samples.append([_number(v, where) for v in value.split()])
                else:
                    history_kind = "expressions"
                    history_exprs[_integer(parts[1], where) - 1] = _expr(value, where)
            else:
                raise ConfigError(f"{where}: unknown [system] key {key!r}")
        elif section == "reduction":
            if name == "p":
                reduction.p_expr = _expr(value, where)
            elif name == "c":
                reduction.c_expr = _expr(value, where)
            elif name == "zeta_tilde":
                reduction.zeta_tilde = _number(value, where)
            elif name == "margin":
                reduction.margin = _number(value, where)
            else:
                raise ConfigError(f"{where}: unknown [reduction] key {key!r}")
        elif section == "solver":
            if name in solver_fields:
                solver_fields[name] = _number(value, where)
            elif name == "horizon":
                horizon = _number(value, where)
            else:
                raise ConfigError(f"{where}: unknown [solver] key {key!r}")
        elif section == "analysis":
            if name == "criterion":
                if value not in ("bounded", "decaying"):
                    raise ConfigError(f"{where}: criterion must be bounded|decaying")
                analysis.criterion = value
            elif name in ("q_max", "r_max", "bisect_tol", "probe_rtol",
                          "tail_fraction", "decay_ratio", "alpha", "beta",
                          "gamma", "p_hat", "c_hat"):
                setattr(analysis, name, _number(value, where))
            elif name in ("t",):
                analysis.T = _number(value, where)
            elif name == "l_hat":
                pieces = [p.strip() for p in value.split(";")]
                if len(pieces) != 2:
                    raise ConfigError(f"{where}: L_hat terms are 'coeff ; power'")
                analysis.l_hat_terms.append(
                    (_number(pieces[0], where), _integer(pieces[1], where)))
            else:
                raise ConfigError(f"{where}: unknown [analysis] key {key!r}")
        elif section == "output":
            if name == "grid":
                output.grid = _integer(value, where)
            else:
                raise ConfigError(f"{where}: unknown [output] key {key!r}")
        else:
            raise ConfigError(f"{where}: unknown section [{section}]")

    # -- validation ---------------------------------------------------------
    if dim is None:
        raise ConfigError(f"{source}: missing required field 'dim' in [system]")
    if dim < 1:
        raise ConfigError(f"{source}: 'dim' must be positive")
    delay_count = len(delay_exprs)
    if delay_exprs and sorted(delay_exprs) != list(range(1, delay_count + 1)):
        raise ConfigError(f"{source}: delays must be numbered 1..m without gaps")
    for (i, j) in list(a0_entries) + list(a1_entries):
        if not (0 <= i < dim and 0 <= j < dim):
            raise ConfigError(
                f"{source}: matrix index ({i + 1}, {j + 1}) outside a {dim}x{dim} matrix")
    for slot, _w in a1_delay_weights:
        if not 1 <= slot <= delay_count:
            raise ConfigError(
                f"{source}: 'A1_delayed {slot}' references a missing delay slot "
                f"(system has {delay_count})")
    if a1_delay_weights and not a1_entries:
        raise ConfigError(f"{source}: 'A1_delayed' requires A1 entries")
    for coord, _c, factors in f_monomials:
        if not 0 <= coord < dim:
            raise ConfigError(f"{source}: 'f {coord + 1}' outside the state dimension")
        for slot, fc, power in factors:
            if not 0 <= slot <= delay_count:
                raise ConfigError(
                    f"{source}: monomial references delay slot {slot} of a "
                    f"{delay_count}-delay system")
            if not 0 <= fc < dim:
                raise ConfigError(f"{source}: monomial coordinate {fc + 1} outside 1..{dim}")
            if power < 1:
                raise ConfigError(f"{source}: monomial powers must be positive")
    if forcing_amplitude < 0:
        raise ConfigError(f"{source}: 'F0' must be nonnegative")
    if forcing_amplitude > 0 and not e_entries:
        raise ConfigError(f"{source}: 'F0 > 0' requires forcing shape entries 'e i'")
    for i in e_entries:
        if not 0 <= i < dim:
            raise ConfigError(f"{source}: forcing entry 'e {i + 1}' outside the dimension")

    if history_kind is None:
        raise ConfigError(f"{source}: missing history specification in [system]")
    if history_kind == "constant":
        if len(history_constant) != dim:
            raise ConfigError(
                f"{source}: constant history needs {dim} values, got "
                f"{len(history_constant)}")
        history_data: object = history_constant
    elif history_kind == "expressions":
        if sorted(history_exprs) != list(range(dim)):
            raise ConfigError(
                f"{source}: per-coordinate history must cover coordinates 1..{dim}")
        history_data = [history_exprs[i] for i in range(dim)]
    else:
        if len(history_samples) < 2:
            raise ConfigError(f"{source}: sampled history needs at least 2 lines")
        for row in history_samples:
            if len(row) != dim + 1:
                raise ConfigError(
                    f"{source}: each history sample needs a time and {dim} values")
        times = [row[0] for row in history_samples]
        values = [row[1:] for row in history_samples]
        history_data = (times, values)

    if (reduction.p_expr is None) != (reduction.c_expr is None):
        raise ConfigError(
            f"{source}: closed-form reduction needs both 'p' and 'c' (or neither)")
    if reduction.zeta_tilde <= 0:
        raise ConfigError(f"{source}: 'zeta_tilde' must be positive")
    if reduction.margin < 0:
        raise ConfigError(f"{source}: 'margin' must be nonnegative")

    try:
        solver = ToleranceSettings(rtol=solver_fields["rtol"],
                                   atol=solver_fields["atol"],
                                   cap=solver_fields["cap"])
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    if not math.isfinite(horizon) or horizon <= t0:
        raise ConfigError(f"{source}: 'horizon' must be finite and exceed t0")

    system = SystemConfig(dim, t0, a0_entries, a1_entries,
                          [delay_exprs[k] for k in sorted(delay_exprs)],
                          a1_delay_weights, f_monomials, forcing_amplitude,
                          e_entries, history_kind, history_data)
    cfg = RunConfig(system, reduction, solver, horizon, analysis, output, source)

    # history coverage check needs the resolved delays
    try:
        spec = cfg.delay_spec()
    except ValueError as exc:
        raise ConfigError(f"{source}: bad delays: {exc}") from exc
    try:
        history = cfg.history()
    except ValueError as exc:
        raise ConfigError(f"{source}: bad history: {exc}") from exc
    if history.dim != dim:
        raise ConfigError(f"{source}: history dimension {history.dim} != dim {dim}")
    if not history.covers(t0 - spec.h_bar, t0):
        raise ConfigError(
            f"{source}: history must cover [{t0 - spec.h_bar}, {t0}] "
            f"(it covers [{history.t_min}, {history.t_max}])")
    return cfg
