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
from functools import cached_property

import numpy as np

from .fieldlin import _Frozen, _to_int
from .weights import (
    WeightFunction,
    _entropy_bounds,
    entropy_crossings,
    normalized_weight,
    sphere_exponent_many,
)

MODELS = ("classical", "quantum")
ALGORITHMS = ("prange", "dumer", "wagner")

_EPS = 1e-15  # weights (omega, P and the P range) compare relative to the max weight
_PATTERN_TOL = 1e-5  # compass search stops once its step falls below this
_MAX_POLLS = 400  # or after this many polls
_COARSE_STEP = 0.05  # rate grid of the hardest-instance scan
# rounding slack of a grid total computed from entropy bound midpoints
_BOUND_MARGIN = 1e-12
# the most merge-tree levels a point or search may use: past 64 levels the
# list exponent u <= s0 / 2^a changes no total beyond rounding
MAX_LEVELS = 64


class InfeasibleParameterError(ValueError):
    """No admissible (L, P) point exists for the requested algorithm."""


class CodeParams(_Frozen):
    """Problem family: weight function, rate R = k/n, relative weight omega = w/n."""

    _fields = ("wf", "rate", "omega")

    def __init__(self, wf: WeightFunction, rate: float, omega: float):
        if not 0.0 < rate < 1.0:
            raise ValueError("rate must lie in (0, 1)")
        wmax = float(wf.max_weight)
        if not -_EPS * wmax <= omega <= (1.0 + _EPS) * wmax:
            raise ValueError("omega outside the reachable weight range")
        self._assign(wf=wf, rate=rate, omega=omega)

    @property
    def q(self) -> int:
        return self.wf.q

    @cached_property
    def s_omega(self) -> float:
        """Entropy exponent at the problem's own weight, shared by every point."""
        return float(sphere_exponent_many(self.wf, [self.omega])[0])


class AlgoPoint(_Frozen):
    """Relative algorithm parameters: L = ell/n, P = p/n, levels a."""

    _fields = ("L", "P", "a")

    def __init__(self, L: float, P: float, a: int):
        if isinstance(a, bool) or not isinstance(a, (int, np.integer)):
            raise ValueError(f"level count a must be an integer, not {a!r}")
        if not 1 <= a <= MAX_LEVELS:
            raise ValueError(f"level count a must lie in [1, {MAX_LEVELS}], not {a}")
        self._assign(L=L, P=P, a=a)


class WorkFactors(_Frozen):
    """Per-coordinate q-ary exponents of one algorithm at one point."""

    _fields = ("pi1", "zeta", "tau", "y", "u", "x", "s_omega0", "total_q", "total_bin", "point")

    def __init__(self, pi1, zeta, tau, y, u, x, s_omega0, total_q, total_bin, point: AlgoPoint):
        self._assign(pi1=pi1, zeta=zeta, tau=tau, y=y, u=u, x=x, s_omega0=s_omega0)
        self._assign(total_q=total_q, total_bin=total_bin, point=point)


def _feasible_P_range(wmax: float, rate, omega, L):
    lo = np.maximum(0.0, omega - (1.0 - rate - L) * wmax)
    hi = np.minimum(omega, (rate + L) * wmax)
    return lo, hi


def _check_point(cp: CodeParams, L: float, P: float) -> None:
    if not -_EPS <= L <= 1.0 - cp.rate + _EPS:
        raise InfeasibleParameterError(f"L={L} outside [0, 1-R]")
    wmax = float(cp.wf.max_weight)
    lo, hi = _feasible_P_range(wmax, cp.rate, cp.omega, L)
    if not lo - 1e-9 * wmax <= P <= hi + 1e-9 * wmax:
        raise InfeasibleParameterError(f"P={P} outside [{lo}, {hi}] at L={L}")


def _list_exponent(s0, m0, a, quantum):
    """u, the list-size exponent per merge level, relative to the bottom length N'.

    The base lists of the 2^a (classical) or 2^a + 1 (quantum) branches
    share the entropy s0 of the bottom weight, capped so that the a levels
    fit in the m0 = L / N' of syndrome they may constrain.
    """
    return np.minimum(s0 / (2.0**a + quantum), m0 / a)


def _entropy_targets(rate, omega, L, P) -> np.ndarray:
    """(2, ...) mean weights of _factors' two entropies: the outer part's, then the bottom's."""
    out_len = 1.0 - rate - L
    return np.stack(np.broadcast_arrays((omega - P) / np.maximum(out_len, _EPS), P / (rate + L)))


def _restarts(rate, s_omega, L, s_out):
    """(pi1, N', m0): the half of _factors' arithmetic that no level count enters."""
    out_len = 1.0 - rate - L
    np_rel = rate + L  # N' = R + L, the bottom part's relative length
    num = np.where(out_len > _EPS, out_len * s_out, 0.0)
    pi1 = np.minimum(0.0, num - np.maximum(0.0, np.minimum(s_omega - L, out_len)))
    return pi1, np_rel, L / np_rel


def _exponents(pi1, np_rel, m0, quantum, s0, a) -> dict:
    """_factors' exponents from _restarts and the bottom entropy s0.

    total is max(0, -pi1 - zeta) / root + tau, where pi1 moves with s_out
    by out_len <= 1 and zeta with s0 by at most N' (a + 1 + quantum) /
    (2^a + quantum) <= 1, so total moves by at most |ds_out| + 1.5 |ds0|
    when the two entropies move.
    """
    u = _list_exponent(s0, m0, a, quantum)
    x = m0 - (a - 1) * u
    zeta = np_rel * ((2 + quantum) * u - x)
    tau = np_rel * u
    y = (1 + quantum) * tau
    root = 1 + quantum  # the quantum model square-roots restarts and search
    total = np.maximum(0.0, -pi1 - zeta) / root + np.maximum(tau, y / root)
    return {"pi1": pi1, "zeta": zeta, "tau": tau, "y": y, "u": u, "x": x,
            "s_omega0": s0, "total": total}


def _factors(wf: WeightFunction, rate, omega, s_omega, quantum, L, P, a) -> dict:
    """Every exponent of the merge-tree attack at feasible points (L, P).

    The classical model (quantum false) uses the merge tree over 2^a
    blocks, the quantum model the checkable-function tree over 2^a + 1
    units.  Rate, omega, s_omega (the entropy exponent at omega), the
    model flag and a may differ per point, so one call can hold points of
    many problems on one weight function.  Every argument after wf
    broadcasts with the others: a column of level counts against rows of
    points costs no more entropy work than one level count.  Both
    entropies come from one solve.
    """
    s_out, s0 = sphere_exponent_many(wf, _entropy_targets(rate, omega, L, P))
    return _exponents(*_restarts(rate, s_omega, L, s_out), quantum, s0, a)


def work_factors(cp: CodeParams, model: str, point: AlgoPoint) -> WorkFactors:
    """Every exponent of the attack at one feasible point under one cost model.

    The classical model pays restarts times per-restart work; the quantum
    model square-roots the restarts and the candidate search.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}")
    _check_point(cp, point.L, point.P)
    family = (cp.rate, cp.omega, cp.s_omega, model == "quantum")
    fac = {k: v.item() for k, v in _factors(cp.wf, *family, point.L, point.P, point.a).items()}
    total = fac.pop("total")
    return WorkFactors(**fac, total_q=total, total_bin=total * math.log2(cp.q), point=point)


# -- optimization over (L, P, a) --------------------------------------------


def _unit_to_LP(wmax: float, rate, omega, fl, fp):
    """Map unit-box coordinates onto the feasible (L, P) region."""
    L = fl * (1.0 - rate)
    lo, hi = _feasible_P_range(wmax, rate, omega, L)
    return L, lo + fp * (hi - lo)


def _compass(wf: WeightFunction, rate, omega, s_omega, quantum, a, L0, P0):
    """Compass searches of many problems in lockstep, in unit-box coordinates.

    Every argument after wf is an array with one entry per problem.  Each
    problem starts at the unit-box image of (L0, P0) with step 1/63.  A
    poll tries +L, -L, +P, -P, clipped to the box; the problem moves to
    the first best of them if it beats its current value by more than
    1e-14, and halves its step otherwise.  It stops once its step falls
    below _PATTERN_TOL or after _MAX_POLLS polls.  The live problems
    share one _factors call per two polls: it prices the poll's 4 points
    and the 4 of each of its 5 outcomes (a move to one of the 4, or a
    halved step), and the first call prices the starts too.  No problem's
    path depends on the others.  Returns the final values, L and P.
    """
    wmax = float(wf.max_weight)

    def totals(k, fl, fp):  # k: the problem of each point
        L, P = _unit_to_LP(wmax, rate[k], omega[k], fl, fp)
        return _factors(wf, rate[k], omega[k], s_omega[k], quantum[k], L, P, a[k])["total"]

    def box(v):  # np.clip(v, 0, 1), without its call overhead
        return np.minimum(np.maximum(v, 0.0), 1.0)

    def poll(l, p, s):  # the 4 points of a poll from each (l, p, s), on a new last axis
        return (box(np.stack([l + s, l - s, l, l], axis=-1)),
                box(np.stack([p, p, p + s, p - s], axis=-1)))

    def settle(live, vals, cand_l, cand_p):  # one poll of the live problems, priced
        polls[live] += 1
        rows, i = np.arange(len(live)), vals.argmin(axis=1)
        moves = vals[rows, i] < cur[live] - 1e-14
        outcome = np.where(moves, i, 4)
        mv, rows, i = live[moves], rows[moves], i[moves]
        cur[mv], fl[mv], fp[mv] = vals[rows, i], cand_l[rows, i], cand_p[rows, i]
        step[live[~moves]] *= 0.5
        return outcome

    fl = box(L0 / (1.0 - rate))
    lo, hi = _feasible_P_range(wmax, rate, omega, fl * (1.0 - rate))
    flat = hi - lo < _EPS * wmax
    fp = np.where(flat, 0.0, box((P0 - lo) / np.where(flat, 1.0, hi - lo)))
    cur = np.empty(len(fl))  # priced by the first call
    step = np.full(len(fl), 1.0 / 63)
    polls = np.zeros(len(fl), dtype=int)
    first = True
    while (live := np.flatnonzero((step > _PATTERN_TOL) & (polls < _MAX_POLLS))).size:
        s, l, p = step[live], fl[live], fp[live]
        l1, p1 = poll(l, p, s)
        # the 5 outcomes of the first poll: a move to one of its points, or a halved step
        s1 = np.concatenate([np.repeat(s[:, None], 4, axis=1), 0.5 * s[:, None]], axis=1)
        l2, p2 = poll(np.concatenate([l1, l[:, None]], axis=1),
                      np.concatenate([p1, p[:, None]], axis=1), s1)
        skip = 0 if first else 1  # only the first call prices the starts
        pts_l = np.concatenate([l[:, None], l1, l2.reshape(len(live), 20)], axis=1)[:, skip:]
        pts_p = np.concatenate([p[:, None], p1, p2.reshape(len(live), 20)], axis=1)[:, skip:]
        vals = totals(np.repeat(live, pts_l.shape[1]), pts_l.ravel(), pts_p.ravel())
        vals = vals.reshape(len(live), -1)
        if first:
            cur[live], vals, first = vals[:, 0], vals[:, 1:], False
        outcome = settle(live, vals[:, :4], l1, p1)
        on = (step[live] > _PATTERN_TOL) & (polls[live] < _MAX_POLLS)
        rows, j = np.flatnonzero(on), outcome[on]
        cols = 4 + 4 * j[:, None] + np.arange(4)
        settle(live[on], vals[rows[:, None], cols], l2[rows, j], p2[rows, j])
    return (cur, *_unit_to_LP(wmax, rate, omega, fl, fp))


def _total_estimates(cp: CodeParams, quantum, L, P, a_values):
    """(estimates, err): the total at points (L, P) within err, with no entropy solve.

    estimates yields one row per level count of a_values: the totals at the
    midpoints of the two _entropy_bounds.  A total moves by at most |ds_out|
    + 1.5 |ds0| (see _exponents), so each exact total lies within err =
    h_out + 1.5 h0 + _BOUND_MARGIN of its estimate, h the half-widths of the
    bounds.  The level-free arithmetic is done once for all level counts.
    """
    lower, upper = _entropy_bounds(cp.wf, _entropy_targets(cp.rate, cp.omega, L, P))
    (mid_out, mid0), (h_out, h0) = 0.5 * (lower + upper), 0.5 * (upper - lower)
    restarts = _restarts(cp.rate, cp.s_omega, L, mid_out)
    estimates = (_exponents(*restarts, quantum, mid0, a)["total"] for a in a_values)
    return estimates, h_out + 1.5 * h0 + _BOUND_MARGIN


def _optimize_many(problems, a_max) -> list:
    """optimize_point for each (cp, model, algorithm) of one weight function.

    Each problem gets its WorkFactors, or the InfeasibleParameterError its
    point raised.  Every problem's grid is one _factors call, on only the
    points that _entropy_bounds cannot rule out as the minimum of some level
    count; then all of their compass searches run in one lockstep batch.
    """
    a_max = _to_int(a_max, "a_max")
    if not 1 <= a_max <= MAX_LEVELS:
        raise ValueError(f"a_max must lie in [1, {MAX_LEVELS}], got {a_max}")
    for _, model, algorithm in problems:
        if model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}")
        if algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")

    unit = np.linspace(0.0, 1.0, 64)
    starts = []  # each problem's 3 best level counts on its grid, with their search data
    for k, (cp, model, algorithm) in enumerate(problems):
        # (0, 0) is infeasible at large weight
        if cp.omega <= _EPS * float(cp.wf.max_weight) or algorithm == "prange":
            continue
        a_values = np.arange(1, 2 if algorithm == "dumer" else a_max + 1)
        L, P = _unit_to_LP(
            float(cp.wf.max_weight), cp.rate, cp.omega, np.repeat(unit, 64), np.tile(unit, 64)
        )
        quantum = model == "quantum"
        family = (cp.rate, cp.omega, cp.s_omega, quantum)
        # only the points whose total may be some level count's minimum get an
        # exact solve; every point of a tie at the minimum is kept
        estimates, err = _total_estimates(cp, quantum, L, P, a_values)
        keep = np.zeros(len(L), dtype=bool)
        for approx in estimates:
            keep |= approx - err <= np.min(approx + err)
        kept = np.flatnonzero(keep)
        totals = _factors(cp.wf, *family, L[kept], P[kept], a_values[:, None])["total"]
        seeds = []
        for a, tot in zip(a_values, totals):
            j = int(np.argmin(tot))
            i = kept[j]  # the first grid point at the minimum, since every tie is kept
            seeds.append((float(tot[j]), int(a), float(L[i]), float(P[i])))
        seeds.sort()
        starts += [(k, a, L0, P0, *family) for _, a, L0, P0 in seeds[:3]]

    best: dict[int, tuple[float, AlgoPoint]] = {}
    if starts:
        ks, a, L0, P0, *family = (np.array(c) for c in zip(*starts))
        vals, Ls, Ps = _compass(problems[0][0].wf, *family, a, L0, P0)
        for k, ak, v, Lr, Pr in zip(*(x.tolist() for x in (ks, a, vals, Ls, Ps))):
            if k not in best or v < best[k][0] - 1e-13:
                best[k] = (v, AlgoPoint(Lr, Pr, ak))

    out = []
    for k, (cp, model, _) in enumerate(problems):
        try:
            out.append(work_factors(cp, model, best[k][1] if k in best else AlgoPoint(0.0, 0.0, 1)))
        except InfeasibleParameterError as exc:
            out.append(exc)
    return out


def optimize_point(
    cp: CodeParams, model: str = "classical", algorithm: str = "wagner", a_max: int = 10
) -> WorkFactors:
    """Best (L, P, a) for the given cost model, deterministically.

    A 64x64 grid over the feasible box seeds a compass refinement (step
    down to 1e-5) for the three most promising level counts; the three
    searches run in lockstep.  Only the grid points that entropy bounds
    cannot rule out are solved exactly, so the seeds are the full grid's.
    For "prange" the point is pinned to (0, 0); "dumer" fixes a = 1.
    a_max lies in [1, MAX_LEVELS].
    """
    (res,) = _optimize_many([(cp, model, algorithm)], a_max)
    if isinstance(res, InfeasibleParameterError):
        raise res
    return res


# -- weight landscape and hardest instances ----------------------------------


def local_maxima_weights(wf: WeightFunction, rate: float) -> tuple[float, float]:
    """The two candidate hardest weights at a given rate.

    Returns (omega_minus, omega_plus), the solutions of s(omega) = 1 - R below
    and above the mean weight.  A branch whose extreme weight class alone has
    entropy >= 1 - R has no crossing and returns its end exactly: 0 or the top.
    """
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must lie in (0, 1)")
    return entropy_crossings(wf, 1.0 - rate)


class HardestResult(_Frozen):
    """The hardest point hardest_instance found: its rate and omega, the work
    factor's exponent per coordinate in bits as alpha (2^(alpha n)) and in
    log_q units as alpha_hat (q^(alpha_hat n)), and the factors it came from."""

    _fields = ("rate", "omega", "alpha", "alpha_hat", "factors")

    def __init__(self, rate: float, omega: float, alpha: float, alpha_hat: float, factors):
        self._assign(rate=rate, omega=omega, alpha=alpha, alpha_hat=alpha_hat, factors=factors)


def _hardness(wf: WeightFunction, rates, model: str, algorithm: str, a_max: int) -> list:
    """(WorkFactors, omega) of the harder candidate weight at each rate.

    None where both weights are infeasible.  Both weights of every rate
    are optimized in one batch.
    """
    problems = [
        (CodeParams(wf, rate, omega), model, algorithm)
        for rate in rates
        for omega in local_maxima_weights(wf, rate)
    ]
    results = _optimize_many(problems, a_max)
    out = []
    for i in range(0, len(problems), 2):
        pair = [
            (f, cp.omega)
            for (cp, _, _), f in zip(problems[i : i + 2], results[i : i + 2])
            if not isinstance(f, InfeasibleParameterError)
        ]
        out.append(max(pair, key=lambda t: t[0].total_q) if pair else None)
    return out


def _hardness_at(wf: WeightFunction, rates, model: str, algorithm: str, a_max: int) -> list:
    """_hardness at each rate, raising where both weights are infeasible."""
    found = _hardness(wf, rates, model, algorithm, a_max)
    for rate, best in zip(rates, found):
        if best is None:
            raise InfeasibleParameterError(f"no admissible weight at rate {rate}")
    return found


def hardest_instance(
    wf: WeightFunction,
    model: str = "classical",
    algorithm: str = "wagner",
    a_max: int = 10,
) -> HardestResult:
    """Rate and weight maximizing the optimized exponent.

    Only the two candidate weights from local_maxima_weights are evaluated
    per rate; the rate search is a coarse scan refined by golden-section.
    All rates of the coarse scan are optimized in one batch, and each
    golden-section step in one batch of its rate's two weights.

    Where the table has a symbol c with wt(c - x) = w_max - wt(x) for
    every x (q = 2 Hamming, q = 5 with (0, 1, 1, 1, 2)), the upper
    crossing is never harder than the lower one, but the prange column,
    Prange at P = 0, is brute force there and can pick it:
    hardest_instance(hamming(2), "classical", "prange") gives R 0.22705,
    omega 0.77288 and alpha_hat 0.77198 (quantum: 0.38599), where the
    lower crossing peaks at 0.1207 near R 0.454.  Lee at q >= 3 has no
    such c.
    """
    rates = [float(r) for r in np.arange(0.10, 0.90 + 1e-9, _COARSE_STEP)]
    found = _hardness(wf, rates, model, algorithm, a_max)
    scored = [(h, r) for h, r in zip(found, rates) if h is not None]
    if not scored:
        raise InfeasibleParameterError("algorithm infeasible across the whole rate range")
    (best_f, best_omega), best_r = max(scored, key=lambda t: t[0][0].total_q)

    a, b = max(0.01, best_r - _COARSE_STEP), min(0.99, best_r + _COARSE_STEP)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = _hardness_at(wf, [c, d], model, algorithm, a_max)
    for step in range(12):
        lower = fc[0].total_q > fd[0].total_q
        if lower:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
        # the last step's value is never read: it shares a batch with the midpoint
        mid = [0.5 * (a + b)] if step == 11 else []
        found = _hardness_at(wf, [c if lower else d, *mid], model, algorithm, a_max)
        if lower:
            fc = found[0]
        else:
            fd = found[0]
    rate = 0.5 * (a + b)
    f, omega = found[-1]
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


class SweepRow(_Frozen):
    """One row of sweep: the weight omega and omega_normalized (its fraction of
    the top weight), the model and algorithm of the column, and the factors
    of the optimized point, None when the algorithm is infeasible there."""

    _fields = ("omega", "omega_normalized", "model", "algorithm", "factors")

    def __init__(self, omega: float, omega_normalized: float, model: str, algorithm: str, factors):
        self._assign(omega=omega, omega_normalized=omega_normalized, model=model)
        self._assign(algorithm=algorithm, factors=factors)


def sweep(
    wf: WeightFunction,
    rate: float,
    omegas,
    columns=SWEEP_COLUMNS,
    a_max: int = 10,
) -> list[SweepRow]:
    """Exponent curves over a weight grid, one row per (omega, model, algorithm)."""
    columns = tuple(columns)  # read once per weight, so an iterator must not run dry
    problems = [
        (cp, model, algorithm)
        for cp in [CodeParams(wf, rate, om) for om in map(float, omegas)]
        for model, algorithm in columns
    ]
    return [
        SweepRow(
            cp.omega,
            normalized_weight(wf, cp.omega),
            model,
            algorithm,
            None if isinstance(fac, InfeasibleParameterError) else fac,
        )
        for (cp, model, algorithm), fac in zip(problems, _optimize_many(problems, a_max))
    ]
