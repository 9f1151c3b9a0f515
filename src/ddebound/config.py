"""Plain-text run configuration: grammar, loading and system assembly.

Format: sectioned key-value text.  ``#`` starts a comment (full line or
trailing), section headers are ``[name]``, entries are ``key = value`` where
keys may carry indices (``A0 1 1``).  Indices are 1-based in files and
converted internally.  Every number is finite, except that ``cap = inf``
means no cap.  A key names one value and is given once; only the lines
``f <i>``, ``A1_delayed <k>`` and ``history sample`` repeat.
Grammar by section::

    [system]
      dim = 2                    # state dimension (required)
      t0 = 0
      A0 <i> <j> = <expr>        # linear part generating the reduction
      A1 <i> <j> = <expr>        # declared remainder matrix (optional)
      delay <k> = <expr>         # k-th delay h_k(t), k = 1..m
      A1_delayed <k> = <number>  # adds weight * A1(t) * x(t - h_k); repeats
      f <i> = <coeff expr> ; <slot> <coord> <power> ; ...
                                 # monomial for coordinate i; slot 0 = current;
                                 # repeats
      F0 = <number>              # forcing amplitude (>= 0)
      e <i> = <expr>             # forcing shape coordinate (sup norm 1)
      history = constant <v1> ... <vn>     # the history takes one of
      history <i> = <expr>                 # these three forms; sample
      history sample = <t> <v1> ... <vn>   # lines repeat, increasing t

    [reduction]
      zeta_tilde = <number>      # linearization radius of the linear chain
                                 # u, U; read only through the library
                                 # (linear_aux.build_linear_chain)
      margin = <number>          # relative inflation of sampled suprema

    [solver]
      rtol, atol, cap, horizon

    [analysis]
      criterion = bounded | decaying
      q_max, r_max, bisect_tol, probe_rtol, tail_fraction, decay_ratio
      alpha, beta, gamma, T      # finite-time classification

    [output]
      grid = <int>               # points of the output grid, at least 2

Loading builds the vector system once.  Its constructors check what they
hold; the loader checks only what needs the file's terms, such as its
1-based indices and the history's coverage of the delay band.  What the
system fixes is not a key: the reduction's rate ``p`` and condition number
``c`` come from ``A0`` (`reduction.coefficients_of`), and the robust
criterion reads the suprema of the frozen scalar system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .dde_core import DelaySpec, HistoryFunction, ToleranceSettings, VectorDelaySystem
from .expressions import EvaluationError, ExpressionSyntaxError, parse_expression
from .linalg import MatrixFunction, VectorFunction
from .timefn import TimeFunction
from .vectorfield import DelayedMatrixTerm, NonlinearTerm, PolynomialVectorField

__all__ = ["ConfigError", "RunConfig", "load_config", "load_config_text"]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass
class ReductionConfig:
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


@dataclass
class OutputConfig:
    grid: int = 2000


@dataclass
class RunConfig:
    """A loaded configuration: the vector system, the matrices it is built
    from and the settings.  ``a1`` (None without ``A1`` entries) is one object,
    shared by the system's delayed couplings and the scalar majorant's
    ``|A1|`` term, so generated code that reads its norm in both reads it once.
    """

    system: VectorDelaySystem
    a0: MatrixFunction
    a1: MatrixFunction | None
    reduction: ReductionConfig
    solver: ToleranceSettings
    horizon: float
    analysis: AnalysisConfig
    output: OutputConfig
    source: str = "<memory>"


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
        key, equals, value = line.partition("=")
        if not equals or not key.strip():
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"{source}:{lineno}: entry before any [section]")
        yield section, key.strip(), value.strip(), lineno


def _expr(value: str, where: str) -> TimeFunction:
    try:
        return parse_expression(value)
    except (ExpressionSyntaxError, EvaluationError) as exc:
        raise ConfigError(f"{where}: bad expression: {exc}") from exc


def _number(value: str, where: str, inf_ok: bool = False) -> float:
    try:
        number = float(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected a number, got {value!r}") from exc
    if math.isnan(number) or (math.isinf(number) and not inf_ok):
        raise ConfigError(f"{where}: expected a finite number{' or inf' if inf_ok else ''}, "
                          f"got {value!r}")
    return number


def _integer(value: str, where: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected an integer, got {value!r}") from exc


def _grid(value: str, where: str) -> int:
    points = _integer(value, where)
    if points < 2:
        raise ConfigError(f"{where}: 'grid' needs at least 2 points, got {points}")
    return points


def _probe_rtol(value: str, where: str) -> float:
    rtol = _number(value, where)
    if rtol <= 0:
        raise ConfigError(f"{where}: 'probe_rtol' must be positive, got {value!r}")
    return rtol


def _bisect_tol(value: str, where: str) -> float:
    tol = _number(value, where)
    if not 0 < tol < 1:
        raise ConfigError(f"{where}: 'bisect_tol' must lie in (0, 1), got {value!r}")
    return tol


def _criterion(value: str, where: str) -> str:
    if value not in ("bounded", "decaying"):
        raise ConfigError(f"{where}: criterion must be bounded|decaying")
    return value


def _constant_history(value: str, where: str) -> list[float]:
    kind, *values = value.split() or [""]
    if kind != "constant":
        raise ConfigError(f"{where}: bare 'history =' takes 'constant v1 ... vn'")
    return [_number(v, where) for v in values]


def _sample(value: str, where: str) -> list[float]:
    return [_number(v, where) for v in value.split()]


def _monomial(value: str, where: str):
    """``(coeff, [(slot, coord, power), ...])``, the coordinates 1-based."""
    coeff, *factors = (p.strip() for p in value.split(";"))
    if not factors:
        raise ConfigError(f"{where}: a monomial needs a coefficient and at least one "
                          f"'slot coord power' factor")
    parsed = []
    for piece in factors:
        numbers = piece.split()
        if len(numbers) != 3:
            raise ConfigError(f"{where}: factor {piece!r} must be 'slot coord power'")
        parsed.append(tuple(_integer(n, where) for n in numbers))
    return _expr(coeff, where), parsed


# the keys without indices: section -> key (lower case) -> (parser, field); the
# [solver] fields but horizon are `ToleranceSettings` arguments, those of
# [reduction], [analysis] and [output] the arguments of their config classes
_KEYS = {
    "system": {"dim": (_integer, "dim"), "t0": (_number, "t0"),
               "f0": (_number, "forcing_amplitude"),
               "history": (_constant_history, "history"),
               "history sample": (_sample, "samples")},
    "reduction": {"zeta_tilde": (_number, "zeta_tilde"), "margin": (_number, "margin")},
    "solver": {"rtol": (_number, "rtol"), "atol": (_number, "atol"),
               "cap": (partial(_number, inf_ok=True), "cap"), "horizon": (_number, "horizon")},
    "analysis": {"criterion": (_criterion, "criterion"), "t": (_number, "T"),
                 "probe_rtol": (_probe_rtol, "probe_rtol"),
                 "bisect_tol": (_bisect_tol, "bisect_tol"),
                 **{name: (_number, name) for name in (
                     "q_max", "r_max", "tail_fraction", "decay_ratio",
                     "alpha", "beta", "gamma")}},
    "output": {"grid": (_grid, "grid")},
}

# the [system] keys with indices: key -> (index count, parser, form of the line)
_INDEXED = {
    "a0": (2, _expr, "A0 row col = expr"),
    "a1": (2, _expr, "A1 row col = expr"),
    "delay": (1, _expr, "delay k = expr"),
    "a1_delayed": (1, _number, "A1_delayed k = weight"),
    "f": (1, _monomial, "f i = coeff ; slot coord power ; ..."),
    "e": (1, _expr, "e i = expr"),
    "history": (1, _expr, "history i = expr"),
}

# the keys whose lines repeat, each line adding to a list; every other key
# names one value
_REPEATED = {"history sample", "a1_delayed", "f"}


def load_config(path) -> RunConfig:
    """Load and validate a run configuration file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return load_config_text(text, str(path))


def load_config_text(text: str, source: str = "<memory>") -> RunConfig:
    """Parse a run configuration and build its vector system.

    Every refusal is a `ConfigError` that names the source, and the line
    where one line is at fault: a bad expression, an unknown key, a
    repeated key, a history in two forms, a number that is not finite, an
    output ``grid`` below 2 points, a ``probe_rtol`` that is not positive or
    an index outside ``1..dim``.  The keys without indices are read through
    one table, ``_KEYS``, of ``section -> key -> (parser, field)``.
    """
    fields: dict[str, dict] = {section: {} for section in _KEYS}
    # 1-based index -> value; a list of (index, value, line) for a key that repeats
    indexed: dict = {name: [] if name in _REPEATED else {} for name in _INDEXED}
    lines: dict[tuple, int] = {}          # a key that names one value -> its line
    history_forms: dict[str, int] = {}    # form -> its first line

    for section, key, value, lineno in _parse_entries(text, source):
        where = f"{source}:{lineno}"
        words = key.lower().split()
        name = " ".join(words)
        if section not in _KEYS:
            raise ConfigError(f"{where}: unknown section [{section}]")
        if section == "system" and words[0] == "history":
            form = ("constant" if len(words) == 1 else
                    "sampled" if words[1] == "sample" else "per-coordinate")
            history_forms.setdefault(form, lineno)
            if len(history_forms) > 1:
                raise ConfigError(f"{where}: a {form} history after the history of line "
                                  f"{min(history_forms.values())}; the history takes one form")
        if name in _KEYS[section]:
            parser, target = _KEYS[section][name]
            if name in _REPEATED:
                fields[section].setdefault(target, []).append(parser(value, where))
                continue
            store, at = fields[section], target
        elif section == "system" and words[0] in _INDEXED:
            name, (count, parser, usage) = words[0], _INDEXED[words[0]]
            if len(words) != count + 1:
                raise ConfigError(f"{where}: expected '{usage}'")
            at = tuple(_integer(w, where) for w in words[1:])
            if name in _REPEATED:
                indexed[name].append((at, parser(value, where), lineno))
                continue
            store = indexed[name]
        else:
            raise ConfigError(f"{where}: unknown [{section}] key {key!r}")
        if (name, at) in lines:
            raise ConfigError(f"{where}: {key!r} repeats line {lines[name, at]}")
        lines[name, at] = lineno
        store[at] = parser(value, where)

    system = fields["system"]
    if "dim" not in system:
        raise ConfigError(f"{source}: missing required field 'dim' in [system]")
    dim, t0 = system["dim"], system.get("t0", 0.0)
    horizon = fields["solver"].pop("horizon", 50.0)
    if horizon <= t0:
        raise ConfigError(f"{source}: 'horizon' must exceed t0")

    # -- the checks in the file's terms ------------------------------------
    for name in ("a0", "a1", "e", "history"):
        for index in indexed[name]:
            if not all(1 <= i <= dim for i in index):
                raise ConfigError(f"{source}:{lines[name, index]}: index outside 1..{dim}")
    for (coord,), (_coeff, factors), line in indexed["f"]:
        if not all(1 <= c <= dim for c in (coord, *(c for _s, c, _p in factors))):
            raise ConfigError(f"{source}:{line}: coordinate outside 1..{dim}")
    delay_count = len(indexed["delay"])
    if sorted(indexed["delay"]) != [(k,) for k in range(1, delay_count + 1)]:
        raise ConfigError(f"{source}: delays must be numbered 1..m without gaps")
    if indexed["a1_delayed"] and not indexed["a1"]:
        raise ConfigError(f"{source}: 'A1_delayed' requires A1 entries")
    if not history_forms:
        raise ConfigError(f"{source}: missing history specification in [system]")
    per_coordinate, samples = indexed["history"], system.get("samples", [])
    if per_coordinate and len(per_coordinate) != dim:
        raise ConfigError(f"{source}: per-coordinate history must cover coordinates 1..{dim}")
    if any(len(row) != dim + 1 for row in samples):
        raise ConfigError(f"{source}: each history sample needs a time and {dim} values")

    reduction = ReductionConfig(**fields["reduction"])
    if reduction.zeta_tilde <= 0:
        raise ConfigError(f"{source}: 'zeta_tilde' must be positive")
    if reduction.margin < 0:
        raise ConfigError(f"{source}: 'margin' must be nonnegative")

    # -- the objects, whose constructors check the rest --------------------
    try:
        a0 = MatrixFunction(dim, {(i - 1, j - 1): v for (i, j), v in indexed["a0"].items()})
        a1 = (MatrixFunction(dim, {(i - 1, j - 1): v for (i, j), v in indexed["a1"].items()})
              if indexed["a1"] else None)
        delays = DelaySpec.from_functions([indexed["delay"][(k,)]
                                           for k in range(1, delay_count + 1)])
        monomials = [(coord - 1, coeff, [(slot, c - 1, power) for slot, c, power in factors])
                     for (coord,), (coeff, factors), _line in indexed["f"]]
        poly = PolynomialVectorField(dim, delay_count, monomials) if monomials else None
        couplings = [DelayedMatrixTerm(slot, weight, a1)
                     for (slot,), weight, _line in indexed["a1_delayed"]]
        if "history" in system:
            history = HistoryFunction.constant(system["history"])
        elif per_coordinate:
            history = HistoryFunction.from_expressions(
                [per_coordinate[(i,)] for i in range(1, dim + 1)])
        else:
            history = HistoryFunction.from_samples([row[0] for row in samples],
                                                   [row[1:] for row in samples])
        vector_system = VectorDelaySystem(
            dim=dim, A=a0 if a1 is None else a0.plus(a1),
            f=NonlinearTerm(dim, delay_count, poly, couplings) if poly or couplings else None,
            forcing_amplitude=system.get("forcing_amplitude", 0.0),
            forcing_shape=(VectorFunction(dim, {i - 1: v for (i,), v in indexed["e"].items()})
                           if indexed["e"] else None),
            delays=delays, history=history, t0=t0)
        tolerances = ToleranceSettings(**fields["solver"])
        h_bar, _h_under = delays.bounds(t0, horizon)
    except (ValueError, ArithmeticError) as exc:
        # ArithmeticError: a delay that overflows where its band is sampled
        raise ConfigError(f"{source}: {exc}") from exc
    if not history.covers(t0 - h_bar, t0):
        raise ConfigError(
            f"{source}: history must cover [{t0 - h_bar}, {t0}] "
            f"(it covers [{history.t_min}, {history.t_max}])")
    return RunConfig(vector_system, a0, a1, reduction, tolerances, horizon,
                     AnalysisConfig(**fields["analysis"]), OutputConfig(**fields["output"]),
                     source)
