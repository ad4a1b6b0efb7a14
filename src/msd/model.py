"""Linear SDE models with expression-valued coefficients.

A system is du = A(t) u dt + G(t) u dw with A, G square matrices of
expressions in ``t`` and named parameters, driven by a scalar Brownian
motion. The adjoint system (whose fundamental matrix is the transposed
inverse of the original one) is built symbolically, so it can be fed back
into every engine unchanged.

The gallery collects the worked systems used across the test-suite and CLI:
geometric Brownian motion, the log-time Perron-type diagonal systems (plain,
stochastic, and with the destabilizing one-sided coupling), and small
constant systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .numerics import MsdError, check_dim


class ModelError(MsdError):
    """Invalid model construction or use."""


Matrix = tuple[tuple[ex.Expr, ...], ...]

# Times at which a below-diagonal entry that is not structurally zero must
# evaluate to exactly zero for the system to count as upper triangular.
_TRIANGULAR_SAMPLES = np.geomspace(0.05, 100.0, 7)


@dataclass(frozen=True)
class Projector:
    """Canonical coordinate projector diag(Id_rank, 0)."""

    dim: int
    rank: int

    def __post_init__(self):
        check_dim(self.dim)
        if not 0 <= self.rank <= self.dim:
            raise ModelError(f"rank {self.rank} outside [0, {self.dim}]")

    @property
    def matrix(self) -> np.ndarray:
        d = np.zeros(self.dim)
        d[: self.rank] = 1.0
        return np.diag(d)

    @property
    def complement_matrix(self) -> np.ndarray:
        return np.eye(self.dim) - self.matrix


def make_projector(dim: int, rank: int) -> Projector:
    return Projector(dim, rank)


def _parse_matrix(dim: int, rows, what: str) -> Matrix:
    if (not isinstance(rows, (list, tuple)) or len(rows) != dim
            or any(not isinstance(row, (list, tuple)) or len(row) != dim for row in rows)):
        raise ModelError(f"{what} must be {dim}x{dim}, given as a list of rows")
    return tuple(tuple(_parse_entry(entry, f"{what} entry") for entry in row) for row in rows)


def _parse_entry(entry, what: str) -> ex.Expr:
    """An expression from its source text, an expression, or a finite number."""
    if isinstance(entry, str):
        return ex.parse(entry)
    if isinstance(entry, ex.Expr):
        return entry
    return ex.Num(_finite_number(entry, what))


def _finite_number(value, what: str) -> float:
    """float(value) for a number or a numeric string; a bool, any other
    type and a non-finite value raise ModelError naming ``what``."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ModelError(f"{what} must be a finite number, got {value!r}")
    return number


@dataclass(frozen=True)
class LinearSde:
    """du = A(t) u dt + G(t) u dw, scalar driving noise."""

    dim: int
    drift: Matrix
    diffusion: Matrix
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        check_dim(self.dim)
        bound = set(self.params) | {"t"}
        for what, matrix in (("drift", self.drift), ("diffusion", self.diffusion)):
            if len(matrix) != self.dim or any(len(r) != self.dim for r in matrix):
                raise ModelError(f"{what} must be {self.dim}x{self.dim}")
            for row in matrix:
                for entry in row:
                    free = ex.free_names(entry) - bound
                    if free:
                        raise ModelError(
                            f"unbound parameter(s) {sorted(free)} in {what} entry "
                            f"'{ex.serialize(entry)}'"
                        )
        for name, value in self.params.items():
            if not isinstance(value, (int, float)) or not np.isfinite(value):
                raise ModelError(f"parameter '{name}' must be a finite number")

    @classmethod
    def from_strings(cls, dim, drift, diffusion, params=None) -> "LinearSde":
        params = {k: float(v) for k, v in (params or {}).items()}
        return cls(
            dim=dim,
            drift=_parse_matrix(dim, drift, "drift"),
            diffusion=_parse_matrix(dim, diffusion, "diffusion"),
            params=params,
        )

    def with_params(self, **overrides) -> "LinearSde":
        unknown = set(overrides) - set(self.params)
        if unknown:
            raise ModelError(f"unknown parameter(s) {sorted(unknown)}")
        merged = {**self.params, **{k: float(v) for k, v in overrides.items()}}
        return LinearSde(self.dim, self.drift, self.diffusion, merged)

    def _eval_matrix(self, matrix: Matrix, t) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty((len(ts), self.dim, self.dim))
        for i, row in enumerate(matrix):
            for j, entry in enumerate(row):
                value = ex.evaluate(entry, ts, self.params)
                out[:, i, j] = value
        if np.ndim(t) == 0:
            return out[0]
        return out

    def drift_at(self, t) -> np.ndarray:
        """A(t); shape (n, n) for scalar t, (len(t), n, n) for arrays."""
        return self._eval_matrix(self.drift, t)

    def diffusion_at(self, t) -> np.ndarray:
        return self._eval_matrix(self.diffusion, t)

    def is_block_diagonal(self, rank: int) -> bool:
        """True if both matrices are structurally zero off the diag(rank, n-rank) blocks."""
        for matrix in (self.drift, self.diffusion):
            for i in range(self.dim):
                for j in range(self.dim):
                    inside = (i < rank) == (j < rank)
                    if not inside and not ex.is_zero(matrix[i][j]):
                        return False
        return True

    def is_upper_triangular(self) -> bool:
        """Strictly-below-diagonal entries are zero (structural or sampled exact)."""
        for matrix in (self.drift, self.diffusion):
            for i in range(self.dim):
                for j in range(i):
                    entry = matrix[i][j]
                    if ex.is_zero(entry):
                        continue
                    values = ex.evaluate(entry, _TRIANGULAR_SAMPLES, self.params)
                    if np.any(np.asarray(values) != 0.0):
                        return False
        return True


def adjoint(system: LinearSde) -> LinearSde:
    """System whose fundamental matrix is Phi^-T of the original.

    Drift (-A + G^2)^T and diffusion -G^T, built symbolically so parameters
    stay live.
    """
    n = system.dim
    a, g = system.drift, system.diffusion
    gg = [
        [_sum_products(g, g, i, j, n) for j in range(n)]
        for i in range(n)
    ]
    new_drift = tuple(
        tuple(ex.sub(gg[j][i], a[j][i]) for j in range(n))  # transposed indexing
        for i in range(n)
    )
    new_diff = tuple(tuple(ex.neg(g[j][i]) for j in range(n)) for i in range(n))
    return LinearSde(n, new_drift, new_diff, dict(system.params))


def _sum_products(left: Matrix, right: Matrix, i: int, j: int, n: int) -> ex.Expr:
    total = ex.ZERO
    for k in range(n):
        total = ex.add(total, ex.mul(left[i][k], right[k][j]))
    return total


# ---------------------------------------------------------------------------
# Perturbed systems


@dataclass(frozen=True)
class PerturbationSpec:
    """One nonlinear map (drift or diffusion perturbation).

    kind "power_clipped": u -> coef * u * min(||u||, clip)^(power-1), which
    vanishes at 0 and has globally bounded growth factor clip^(power-1).
    kind "expr": entrywise expressions in t and u1..un; must vanish at u = 0.
    """

    kind: str
    coef: float = 0.0
    power: float = 2.0
    clip: float = 1.0
    entries: tuple = ()

    def __post_init__(self):
        if self.kind not in ("power_clipped", "expr", "zero"):
            raise ModelError(f"unknown perturbation kind '{self.kind}'")
        # Written so that NaN fails every check.
        if self.kind == "power_clipped":
            if not math.isfinite(self.coef):
                raise ModelError("power_clipped coefficient must be finite")
            if not 2.0 <= self.power < math.inf:
                raise ModelError("power_clipped exponent must be >= 2 and finite")
            if not 0.0 < self.clip < math.inf:
                raise ModelError("clip radius must be positive and finite")

    @classmethod
    def zero(cls) -> "PerturbationSpec":
        return cls(kind="zero")

    @classmethod
    def power_clipped(cls, coef, power, clip) -> "PerturbationSpec":
        return cls(kind="power_clipped", coef=float(coef), power=float(power),
                   clip=float(clip))

    @classmethod
    def exprs(cls, entries) -> "PerturbationSpec":
        parsed = tuple(ex.parse(e) if isinstance(e, str) else e for e in entries)
        return cls(kind="expr", entries=parsed)


@dataclass(frozen=True)
class PerturbedSde:
    """Base linear system plus nonlinear drift/diffusion perturbations.

    ``c`` and ``q`` are the declared constants of the mean-square smallness
    condition the stability theory assumes; they are metadata checked by the
    falsifier, not enforced at construction.
    """

    base: LinearSde
    f: PerturbationSpec
    h: PerturbationSpec
    c: float
    q: float

    def __post_init__(self):
        if not 0.0 < self.c < math.inf:
            raise ModelError("declared constant c must be positive and finite")
        if not 1.0 < self.q < math.inf:
            raise ModelError("declared exponent q must exceed 1 and be finite")
        for spec in (self.f, self.h):
            if spec.kind == "expr":
                if len(spec.entries) != self.base.dim:
                    raise ModelError("perturbation needs one expression per component")
                self._check_vanishes_at_zero(spec)

    def _check_vanishes_at_zero(self, spec: PerturbationSpec) -> None:
        env = {**self.base.params, "t": 1.0}
        env.update({f"u{i + 1}": 0.0 for i in range(self.base.dim)})
        for entry in spec.entries:
            value = ex.evaluate_env(entry, env)
            if value != 0.0:
                raise ModelError(
                    f"perturbation entry '{ex.serialize(entry)}' does not vanish at u = 0"
                )


# ---------------------------------------------------------------------------
# Gallery

_PERRON_DOWN = "-a - b*(sin(log(t)) + cos(log(t)))"
_PERRON_UP = "-a + b*(sin(log(t)) + cos(log(t)))"

GALLERY_NAMES = (
    "gbm",
    "perron-ode",
    "perron-sde",
    "perron-sde-perturbed",
    "triangular-2x2",
    "diag-2x2",
)


def gallery(name: str, **overrides):
    """Build a named example system; keyword overrides replace parameters."""
    if name == "gbm":
        sys_ = LinearSde.from_strings(1, [["a"]], [["b"]], {"a": -1.0, "b": 0.5})
        return sys_.with_params(**overrides)
    if name == "perron-ode":
        sys_ = LinearSde.from_strings(
            2,
            [[_PERRON_DOWN, "0"], ["0", _PERRON_UP]],
            [["0", "0"], ["0", "0"]],
            {"a": 1.05, "b": 1.0},
        )
        return sys_.with_params(**overrides)
    if name == "perron-sde":
        sys_ = LinearSde.from_strings(
            2,
            [[_PERRON_DOWN, "0"], ["0", _PERRON_UP]],
            [["1/(lambda + 1)", "0"], ["0", "1"]],
            {"a": 1.05, "b": 1.0, "lambda": 1.0},
        )
        return sys_.with_params(**overrides)
    if name == "perron-sde-perturbed":
        base = gallery("perron-sde", **overrides)
        lam = base.params["lambda"]
        # Natural exponent of the coupling term is lambda; the declared q of
        # the smallness condition must exceed 1, so it is nominal here.
        return PerturbedSde(
            base=base,
            f=PerturbationSpec.exprs(["0", "u1^(lambda + 1)"]),
            h=PerturbationSpec.zero(),
            c=1.0,
            q=max(1.5, lam),
        )
    if name == "triangular-2x2":
        if overrides:
            raise ModelError("triangular-2x2 has no parameters")
        return LinearSde.from_strings(
            2, [["-1", "1"], ["0", "-2"]], [["0.5", "0"], ["0", "0.5"]], {}
        )
    if name == "diag-2x2":
        sys_ = LinearSde.from_strings(
            2,
            [["a1", "0"], ["0", "a2"]],
            [["g1", "0"], ["0", "g2"]],
            {"a1": -1.0, "a2": -2.0, "g1": 0.2, "g2": 0.3},
        )
        return sys_.with_params(**overrides)
    raise ModelError(f"unknown gallery system '{name}' (known: {', '.join(GALLERY_NAMES)})")


# ---------------------------------------------------------------------------
# JSON interchange


def _spec_to_dict(spec: PerturbationSpec) -> dict:
    if spec.kind == "power_clipped":
        return {"kind": spec.kind, "coef": spec.coef, "power": spec.power,
                "clip": spec.clip}
    if spec.kind == "expr":
        return {"kind": spec.kind, "entries": [ex.serialize(e) for e in spec.entries]}
    return {"kind": spec.kind}


def to_dict(system: LinearSde | PerturbedSde) -> dict:
    """The JSON object of a linear or perturbed system (``system.schema.json``)."""
    if isinstance(system, PerturbedSde):
        return {"base": to_dict(system.base), "c": system.c, "q": system.q,
                "f": _spec_to_dict(system.f), "h": _spec_to_dict(system.h)}
    return {
        "dim": system.dim,
        "params": {k: float(v) for k, v in sorted(system.params.items())},
        "A": [[ex.serialize(e) for e in row] for row in system.drift],
        "G": [[ex.serialize(e) for e in row] for row in system.diffusion],
    }


def _refuse_unknown_keys(data, known: tuple[str, ...], what: str) -> None:
    """Refuse the keys of ``data`` outside ``known``, which ``system.schema.json``
    lists for the object; a misspelt key would otherwise be dropped silently."""
    unknown = set(data) - set(known) if isinstance(data, dict) else ()
    if unknown:
        raise ModelError(f"{what} has unknown key(s) {sorted(unknown, key=str)}; "
                         f"known: {'/'.join(known)}")


def _linear_from_dict(data) -> LinearSde:
    try:
        dim = _finite_number(data["dim"], "dim")
        drift = data["A"]
        diffusion = data["G"]
        params = data.get("params", {})
    except (KeyError, TypeError) as exc:
        raise ModelError(f"system object needs dim/A/G: {exc}") from None
    _refuse_unknown_keys(data, ("dim", "params", "A", "G"), "system object")
    if dim != int(dim):
        raise ModelError(f"dim must be an integer, got {data['dim']!r}")
    if not isinstance(params, dict):
        raise ModelError(f"params must map names to numbers, got {params!r}")
    params = {name: _finite_number(value, f"parameter '{name}'")
              for name, value in params.items()}
    return LinearSde.from_strings(int(dim), drift, diffusion, params)


# The fields each perturbation kind reads besides "kind".
_SPEC_FIELDS = {"zero": (), "power_clipped": ("coef", "power", "clip"), "expr": ("entries",)}


def _spec_from_dict(data, what: str) -> PerturbationSpec:
    try:
        kind = data["kind"]
        if not isinstance(kind, str) or kind not in _SPEC_FIELDS:
            return PerturbationSpec(kind=kind)      # refused by its check
        _refuse_unknown_keys(data, ("kind", *_SPEC_FIELDS[kind]), f"{kind} perturbation {what}")
        if kind == "power_clipped":
            return PerturbationSpec.power_clipped(
                *(_finite_number(data[key], f"{what} {key}") for key in ("coef", "power", "clip")))
        if kind == "expr":
            entries = data["entries"]
            if not isinstance(entries, list):
                raise ModelError(f"{what} entries must be a list, got {entries!r}")
            return PerturbationSpec.exprs([_parse_entry(e, f"{what} entry") for e in entries])
    except (KeyError, TypeError) as exc:
        raise ModelError(f"perturbation {what} needs kind and its fields: {exc}") from None
    return PerturbationSpec.zero()


def from_dict(data: dict) -> LinearSde | PerturbedSde:
    """The system of a JSON object in the :func:`to_dict` format; a perturbed
    one has keys base/c/q/f/h, and its parts pass the constructors' checks."""
    if not (isinstance(data, dict) and "base" in data):
        return _linear_from_dict(data)
    try:
        base, c, q, f, h = (data[key] for key in ("base", "c", "q", "f", "h"))
    except KeyError as exc:
        raise ModelError(f"perturbed system object needs base/c/q/f/h: {exc}") from None
    _refuse_unknown_keys(data, ("base", "c", "q", "f", "h"), "perturbed system object")
    return PerturbedSde(_linear_from_dict(base), _spec_from_dict(f, "f"),
                        _spec_from_dict(h, "h"), c=_finite_number(c, "c"),
                        q=_finite_number(q, "q"))
