"""Asymptotic work-factor exponents for the decoding algorithms.

All quantities are per-coordinate exponents in base q ("q-ary"): an
algorithm with exponent t runs in time q^(t*n + o(n)).  The binary
exponent is t * log2(q).  Notation used throughout, relative to the block
lengths n, k = R*n, ell = L*n, p = P*n:

  pi1   log_q of the per-candidate success probability (<= 0),
  zeta  log_q of the number of candidates that survive the merge tree,
  tau   log_q of the time to build the candidate description,
  y     log_q of the candidate domain size,
  u/x   internal list-size and final-match sizes of the merge tree.

The classical model pays max(0, -pi1 - zeta) restarts times max(tau, y)
work per restart; the quantum model halves the restart exponent and
searches the candidate domain in y/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .weights import WeightFunction, entropy_crossings, normalized_weight, sphere_exponent_many

MODELS = ("classical", "quantum")
ALGORITHMS = ("prange", "dumer", "wagner")

_EPS = 1e-15
_PATTERN_TOL = 1e-5  # compass search stops once its step falls below this
_COARSE_STEP = 0.05  # rate grid of the hardest-instance scan


class InfeasibleParameterError(ValueError):
    """No admissible (L, P) point exists for the requested algorithm."""


@dataclass(frozen=True)
class CodeParams:
    """Problem family: weight function, rate R = k/n, relative weight omega = w/n."""

    wf: WeightFunction
    rate: float
    omega: float

    def __post_init__(self):
        if not 0.0 < self.rate < 1.0:
            raise ValueError("rate must lie in (0, 1)")
        if not -_EPS <= self.omega <= float(self.wf.max_weight) + _EPS:
            raise ValueError("omega outside the reachable weight range")

    @property
    def q(self) -> int:
        return self.wf.q

    @cached_property
    def s_omega(self) -> float:
        """Entropy exponent at the problem's own weight, shared by every point."""
        return float(sphere_exponent_many(self.wf, [self.omega])[0])


@dataclass(frozen=True)
class AlgoPoint:
    """Relative algorithm parameters: L = ell/n, P = p/n, levels a."""

    L: float
    P: float
    a: int

    def __post_init__(self):
        if isinstance(self.a, bool) or not isinstance(self.a, (int, np.integer)) or self.a < 1:
            raise ValueError(f"level count a must be an integer >= 1, not {self.a!r}")


@dataclass(frozen=True)
class WorkFactors:
    """Per-coordinate q-ary exponents of one algorithm at one point."""

    pi1: float
    zeta: float
    tau: float
    y: float
    u: float
    x: float
    s_omega0: float
    total_q: float
    total_bin: float
    point: AlgoPoint


def _feasible_P_range(cp: CodeParams, L):
    wmax = float(cp.wf.max_weight)
    lo = np.maximum(0.0, cp.omega - (1.0 - cp.rate - L) * wmax)
    hi = np.minimum(cp.omega, (cp.rate + L) * wmax)
    return lo, hi


def _check_point(cp: CodeParams, L: float, P: float) -> None:
    if not -_EPS <= L <= 1.0 - cp.rate + _EPS:
        raise InfeasibleParameterError(f"L={L} outside [0, 1-R]")
    lo, hi = _feasible_P_range(cp, L)
    if not lo - 1e-9 <= P <= hi + 1e-9:
        raise InfeasibleParameterError(f"P={P} outside [{lo}, {hi}] at L={L}")


def _factors(cp: CodeParams, model: str, L, P, a) -> dict:
    """Every exponent of the merge-tree attack at feasible points (L, P).

    The classical model uses the merge tree over 2^a blocks, the quantum
    model the checkable-function tree over 2^a + 1 units.  L, P and a
    broadcast together, so a column of level counts against rows of
    points costs no more entropy work than one level count.
    """
    R = cp.rate
    out_len = 1.0 - R - L
    s_out = sphere_exponent_many(cp.wf, (cp.omega - P) / np.maximum(out_len, _EPS))
    num = np.where(out_len > _EPS, out_len * s_out, 0.0)
    pi1 = np.minimum(0.0, num - np.maximum(0.0, np.minimum(cp.s_omega - L, out_len)))
    np_rel = R + L  # N' = R + L, the bottom part's relative length
    m0 = L / np_rel
    s0 = sphere_exponent_many(cp.wf, P / np_rel)
    quantum = model == "quantum"
    u = np.minimum(s0 / (2**a + quantum), m0 / a)
    x = m0 - (a - 1) * u
    zeta = np_rel * ((2 + quantum) * u - x)
    tau = np_rel * u
    y = (1 + quantum) * tau
    root = 1 + quantum  # the quantum model square-roots restarts and search
    total = np.maximum(0.0, -pi1 - zeta) / root + np.maximum(tau, y / root)
    return {"pi1": pi1, "zeta": zeta, "tau": tau, "y": y, "u": u, "x": x,
            "s_omega0": s0, "total": total}


def work_factors(cp: CodeParams, model: str, point: AlgoPoint) -> WorkFactors:
    """Every exponent of the attack at one feasible point under one cost model.

    The classical model pays restarts times per-restart work; the quantum
    model square-roots the restarts and the candidate search.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}")
    _check_point(cp, point.L, point.P)
    fac = {k: v.item() for k, v in _factors(cp, model, point.L, point.P, point.a).items()}
    total = fac.pop("total")
    return WorkFactors(**fac, total_q=total, total_bin=total * math.log2(cp.q), point=point)


# -- optimization over (L, P, a) --------------------------------------------


def _unit_to_LP(cp: CodeParams, fl, fp):
    """Map unit-box coordinates onto the feasible (L, P) region."""
    L = fl * (1.0 - cp.rate)
    lo, hi = _feasible_P_range(cp, L)
    return L, lo + fp * (hi - lo)


def _pattern_search(
    cp: CodeParams,
    model: str,
    a: int,
    L0: float,
    P0: float,
) -> tuple[float, float, float]:
    """Compass search in unit-box coordinates, step halved when stuck."""
    R = cp.rate

    def totals(fl, fp):
        return _factors(cp, model, *_unit_to_LP(cp, fl, fp), a)["total"]

    fl = min(max(L0 / (1.0 - R), 0.0), 1.0)
    lo, hi = _feasible_P_range(cp, fl * (1.0 - R))
    fp = 0.0 if hi - lo < _EPS else min(max((P0 - lo) / (hi - lo), 0.0), 1.0)
    cur = float(totals(np.array([fl]), np.array([fp]))[0])
    step = 1.0 / 63
    polls = 0
    while step > _PATTERN_TOL and polls < 400:
        polls += 1
        cand_f = np.clip(
            np.array(
                [[fl + step, fp], [fl - step, fp], [fl, fp + step], [fl, fp - step]]
            ),
            0.0,
            1.0,
        )
        vals = totals(cand_f[:, 0], cand_f[:, 1])
        i = int(np.argmin(vals))
        if vals[i] < cur - 1e-14:
            cur = float(vals[i])
            fl, fp = float(cand_f[i, 0]), float(cand_f[i, 1])
        else:
            step *= 0.5
    Ls, Ps = _unit_to_LP(cp, np.array([fl]), np.array([fp]))
    return cur, float(Ls[0]), float(Ps[0])


def optimize_point(
    cp: CodeParams, model: str = "classical", algorithm: str = "wagner", a_max: int = 10
) -> WorkFactors:
    """Best (L, P, a) for the given cost model, deterministically.

    A 64x64 grid over the feasible box seeds a compass refinement (step
    down to 1e-5) for the most promising level counts.  For "prange" the
    point is pinned to (0, 0); "dumer" fixes a = 1.
    """
    if a_max < 1:
        raise ValueError("a_max must be >= 1")
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}")
    if cp.omega <= _EPS or algorithm == "prange":  # (0, 0) is infeasible at large weight
        return work_factors(cp, model, AlgoPoint(0.0, 0.0, 1))

    a_values = np.arange(1, 2 if algorithm == "dumer" else a_max + 1)
    unit = np.linspace(0.0, 1.0, 64)
    L, P = _unit_to_LP(cp, np.repeat(unit, 64), np.tile(unit, 64))
    totals = _factors(cp, model, L, P, a_values[:, None])["total"]
    seeds = []
    for a, tot in zip(a_values, totals):
        i = int(np.argmin(tot))
        seeds.append((float(tot[i]), int(a), float(L[i]), float(P[i])))
    seeds.sort()
    best: tuple[float, AlgoPoint] | None = None
    for _, a, L0, P0 in seeds[:3]:
        v, Lr, Pr = _pattern_search(cp, model, a, L0, P0)
        if best is None or v < best[0] - 1e-13:
            best = (v, AlgoPoint(Lr, Pr, a))
    return work_factors(cp, model, best[1])


# -- weight landscape and hardest instances ----------------------------------


def local_maxima_weights(wf: WeightFunction, rate: float) -> tuple[float, float]:
    """The two candidate hardest weights at a given rate.

    Returns (omega_minus, omega_plus): the solutions of s(omega) = 1 - R
    below and above the mean weight; when the upper branch has no crossing
    (the entropy at maximal weight already exceeds 1 - R) the top of the
    weight range is returned for that branch.
    """
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must lie in (0, 1)")
    return entropy_crossings(wf, 1.0 - rate)


@dataclass(frozen=True)
class HardestResult:
    rate: float
    omega: float
    alpha: float
    alpha_hat: float
    factors: WorkFactors


def _hardness_at(wf: WeightFunction, rate: float, model: str, algorithm: str, a_max: int):
    best = None
    for omega in local_maxima_weights(wf, rate):
        try:
            f = optimize_point(CodeParams(wf, rate, omega), model, algorithm, a_max)
        except InfeasibleParameterError:
            continue
        if best is None or f.total_q > best[0].total_q:
            best = (f, omega)
    if best is None:
        raise InfeasibleParameterError(f"no admissible weight at rate {rate}")
    return best


def hardest_instance(
    wf: WeightFunction,
    model: str = "classical",
    algorithm: str = "wagner",
    a_max: int = 10,
) -> HardestResult:
    """Rate and weight maximizing the optimized exponent.

    Only the two candidate weights from local_maxima_weights are evaluated
    per rate; the rate search is a coarse scan refined by golden-section.
    """
    rates = np.arange(0.10, 0.90 + 1e-9, _COARSE_STEP)
    scored = []
    for r in rates:
        try:
            scored.append((_hardness_at(wf, float(r), model, algorithm, a_max), float(r)))
        except InfeasibleParameterError:
            continue
    if not scored:
        raise InfeasibleParameterError("algorithm infeasible across the whole rate range")
    (best_f, best_omega), best_r = max(scored, key=lambda t: t[0][0].total_q)

    a, b = max(0.01, best_r - _COARSE_STEP), min(0.99, best_r + _COARSE_STEP)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc = _hardness_at(wf, c, model, algorithm, a_max)
    fd = _hardness_at(wf, d, model, algorithm, a_max)
    for _ in range(12):
        if fc[0].total_q > fd[0].total_q:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = _hardness_at(wf, c, model, algorithm, a_max)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = _hardness_at(wf, d, model, algorithm, a_max)
    rate = 0.5 * (a + b)
    f, omega = _hardness_at(wf, rate, model, algorithm, a_max)
    if f.total_q < best_f.total_q:  # keep the coarse winner if refinement regressed
        rate, f, omega = best_r, best_f, best_omega
    return HardestResult(
        rate=rate, omega=omega, alpha=f.total_bin, alpha_hat=f.total_q, factors=f
    )


# -- weight sweeps ------------------------------------------------------------

SWEEP_COLUMNS = (
    ("classical", "prange"),
    ("classical", "dumer"),
    ("classical", "wagner"),
    ("quantum", "wagner"),
)


@dataclass(frozen=True)
class SweepRow:
    omega: float
    omega_normalized: float
    model: str
    algorithm: str
    factors: WorkFactors | None  # None when the algorithm is infeasible there


def sweep(
    wf: WeightFunction,
    rate: float,
    omegas,
    columns=SWEEP_COLUMNS,
    a_max: int = 10,
) -> list[SweepRow]:
    """Exponent curves over a weight grid, one row per (omega, model, algorithm)."""
    rows = []
    for om in map(float, omegas):
        for model, algorithm in columns:
            try:
                fac = optimize_point(CodeParams(wf, rate, om), model, algorithm, a_max)
            except InfeasibleParameterError:
                fac = None
            rows.append(SweepRow(om, normalized_weight(wf, om), model, algorithm, fac))
    return rows
