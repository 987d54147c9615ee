"""Additive per-symbol weight functions and sphere geometry over F_q^n.

A weight function assigns each symbol x in {0, .., q-1} a nonnegative
rational cost with cost 0 for the zero symbol; the weight of a vector is
the sum of its per-symbol costs.  This module computes exact sphere
surface areas (number of vectors of a given weight), their asymptotic
per-coordinate exponents via maximum-entropy optimization, typical symbol
frequency patterns, and exactly uniform samples from a sphere.

Rational weights are handled by rescaling to a common integer denominator;
all counting is exact big-integer arithmetic.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .fieldlin import FqVector, validate_modulus

_WEIGHT_TOL = 1e-12


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**9)
    raise TypeError(f"cannot interpret {x!r} as a rational weight")


@dataclass(frozen=True)
class WeightFunction:
    """Per-symbol weight table wt with wt[0] = 0.

    The table fixes the metric: lee uses min(x, q - x), hamming charges 1
    for every nonzero symbol, and custom tables may hold any nonnegative
    rationals, at least one of them positive.  Derived views (the scaled
    integer table, the entropy solver's weight classes) are computed once
    per instance.
    """

    q: int
    table: tuple[Fraction, ...]
    name: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "q", validate_modulus(self.q))
        tab = tuple(_to_fraction(x) for x in self.table)
        if len(tab) != self.q:
            raise ValueError(f"table must have exactly q={self.q} entries")
        if tab[0] != 0:
            raise ValueError("weight of the zero symbol must be 0")
        if any(x < 0 for x in tab):
            raise ValueError("weights must be nonnegative")
        if not any(x > 0 for x in tab):
            raise ValueError("at least one symbol must have positive weight")
        object.__setattr__(self, "table", tab)

    @classmethod
    def lee(cls, q: int) -> "WeightFunction":
        return cls(q, tuple(Fraction(min(x, q - x)) for x in range(q)), name="lee")

    @classmethod
    def hamming(cls, q: int) -> "WeightFunction":
        return cls(q, (Fraction(0),) + (Fraction(1),) * (q - 1), name="hamming")

    @classmethod
    def from_json(cls, doc) -> "WeightFunction":
        """Load a custom table from a JSON document {"q": ..., "table": [...]}."""
        if isinstance(doc, (str, bytes)):
            doc = json.loads(doc)
        if not isinstance(doc, dict) or "q" not in doc or "table" not in doc:
            raise ValueError('weight JSON must be an object with "q" and "table"')
        return cls(int(doc["q"]), tuple(doc["table"]), name=str(doc.get("name", "custom")))

    @classmethod
    def from_spec(cls, q: int, spec) -> "WeightFunction":
        """"lee", "hamming", or a custom table document {"q": q, "table": [...]}."""
        if spec in ("lee", "hamming"):
            return getattr(cls, spec)(q)
        if not isinstance(spec, dict):
            raise ValueError(f"unknown weight spec {spec!r}")
        wf = cls.from_json(spec)
        if wf.q != q:
            raise ValueError(f"weight table is for q={wf.q}, not q={q}")
        return wf

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "table": [x.numerator if x.denominator == 1 else str(x) for x in self.table],
            "name": self.name,
        }

    # -- derived integer-scaled view -------------------------------------

    @cached_property
    def denominator(self) -> int:
        """Common denominator used to rescale the table to integers."""
        return math.lcm(*(x.denominator for x in self.table))

    @cached_property
    def int_table(self) -> tuple[int, ...]:
        return tuple(int(x * self.denominator) for x in self.table)

    @cached_property
    def _int_array(self) -> np.ndarray:
        arr = np.asarray(self.int_table, dtype=np.int64)
        arr.setflags(write=False)
        return arr

    def int_table_array(self) -> np.ndarray:
        """The scaled table as a read-only int64 array, shared by every caller."""
        return self._int_array

    @cached_property
    def max_weight(self) -> Fraction:
        return max(self.table)

    @property
    def average_weight(self) -> Fraction:
        """Mean weight of a uniformly random symbol; for lee, (q^2-1)/(4q)."""
        return sum(self.table, Fraction(0)) / self.q

    def weight_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """(distinct weights as floats, multiplicities) for entropy solves."""
        d = self._dual_solver
        return d.w, d.mult

    def scaled(self, w) -> int | None:
        """Weight value in integer-scaled units, or None if not representable."""
        f = _to_fraction(w) * self.denominator
        if f.denominator != 1:
            return None
        return int(f)

    @cached_property
    def _dual_solver(self) -> "_Dual":
        """Weight classes of the table and the bracket of its entropy solver.

        At beta = +-beta_max the class next to an extreme weight carries at
        most e^-60 times its multiplicity ratio of the extreme class's mass,
        so the bracket holds every mean-weight target that is not within
        about that fraction of either end.  It follows the table's own
        scale: multiplying every weight by c divides beta_max by c, and so
        does the solver's start table, built on the first entropy query.
        """
        uniq, inv = np.unique([float(x) for x in self.table], return_inverse=True)
        mult = np.bincount(inv).astype(float)
        uniq.setflags(write=False)
        mult.setflags(write=False)
        lnq = math.log(self.q)
        end_gap = min(uniq[1] - uniq[0], uniq[-1] - uniq[-2])
        return _Dual(uniq, mult, lnq, 60.0 / (float(end_gap) * lnq))


def vector_weight(v: FqVector, wf: WeightFunction) -> Fraction:
    """Sum of per-symbol weights of v."""
    if v.q != wf.q:
        raise ValueError(f"modulus mismatch: vector q={v.q}, weight table q={wf.q}")
    total = int(wf.int_table_array()[v.values].sum())
    return Fraction(total, wf.denominator)


# -- exact sphere counting ------------------------------------------------


def _kronecker_slots(int_table: tuple[int, ...], n: int) -> tuple[int, int]:
    """(packed weight enumerator, bytes per slot) for powers up to n.

    Exact counts come from the coefficient lists of (sum_x z^{wt_x})^i by
    Kronecker substitution: the polynomial is packed into one big integer
    with byte-aligned slots wide enough that coefficients (all <= q^n)
    never carry across slots, and powers are taken on the integer.
    """
    slot_bytes = (n * max(1, len(int_table).bit_length()) + 8) // 8
    return sum(1 << (w * 8 * slot_bytes) for w in int_table), slot_bytes


def _unpack(val: int, nslots: int, slot_bytes: int) -> tuple[int, ...]:
    raw = val.to_bytes(nslots * slot_bytes, "little")
    return tuple(
        int.from_bytes(raw[j * slot_bytes : (j + 1) * slot_bytes], "little")
        for j in range(nslots)
    )


@lru_cache(maxsize=32)
def _count_row(int_table: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Counts of vectors of each scaled weight 0..n*max, length-n, exact."""
    base, slot_bytes = _kronecker_slots(int_table, n)
    return _unpack(base**n, n * max(int_table) + 1, slot_bytes)


def sphere_counts_all(wf: WeightFunction, n: int) -> tuple[int, ...]:
    """Exact counts indexed by integer-scaled weight; sums to q**n."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    return _count_row(wf.int_table, n)


def sphere_count_exact(wf: WeightFunction, n: int, w) -> int:
    """Number of vectors in F_q^n of weight exactly w (0 if unreachable)."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    ws = wf.scaled(w)
    if ws is None or ws < 0:
        return 0
    row = _count_row(wf.int_table, n)
    if ws >= len(row):
        return 0
    return row[ws]


# -- sphere enumeration, ranking and sampling ------------------------------


@lru_cache(maxsize=64)
def _count_rows(int_table: tuple[int, ...], n: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..n of the suffix-count table: row[i][j] = #length-i vectors of weight j.

    The same Kronecker counts as _count_row, one multiplication per row.
    """
    base, slot_bytes = _kronecker_slots(int_table, n)
    rows, val = [(1,)], 1
    for i in range(1, n + 1):
        val *= base
        rows.append(_unpack(val, i * max(int_table) + 1, slot_bytes))
    return tuple(rows)


class SphereEnumerator:
    """Rank/unrank interface to {v in F_q^n : wt(v) = w}.

    Vectors are ordered by reading coordinates left to right with symbols
    in increasing order, so rank 0 is the lexicographically smallest
    element of the sphere.
    """

    def __init__(self, wf: WeightFunction, n: int, w):
        self.wf = wf
        self.n = n
        ws = wf.scaled(w)
        self.w_scaled = -1 if ws is None or ws < 0 else ws
        self._rows = _count_rows(wf.int_table, n)
        self._tab = wf.int_table

    @property
    def count(self) -> int:
        if self.w_scaled < 0 or self.w_scaled >= len(self._rows[self.n]):
            return 0
        return self._rows[self.n][self.w_scaled]

    def unrank(self, r: int) -> np.ndarray:
        if not 0 <= r < self.count:
            raise IndexError(f"rank {r} out of range for sphere of size {self.count}")
        out = np.zeros(self.n, dtype=np.int64)
        budget = self.w_scaled
        for i in range(self.n):
            rem = self.n - i - 1
            row = self._rows[rem]
            for x in range(self.wf.q):
                left = budget - self._tab[x]
                c = row[left] if 0 <= left < len(row) else 0
                if r < c:
                    out[i] = x
                    budget = left
                    break
                r -= c
        return out

    def rank(self, v: np.ndarray) -> int:
        r = 0
        budget = self.w_scaled
        for i in range(self.n):
            rem = self.n - i - 1
            row = self._rows[rem]
            for x in range(int(v[i])):
                left = budget - self._tab[x]
                if 0 <= left < len(row):
                    r += row[left]
            budget -= self._tab[int(v[i])]
        return r

    def unrank_many(self, ranks) -> np.ndarray:
        """(len(ranks), n) array whose row k is unrank(ranks[k])."""
        r = np.asarray(ranks).reshape(-1)
        if r.size == 0:
            return np.zeros((0, self.n), dtype=np.int64)
        if r.min() < 0 or r.max() >= self.count:
            raise IndexError(f"ranks outside [0, {self.count}) for this sphere")
        return _unrank_rows(self._tab, self.n, self.w_scaled, r)

    def __iter__(self):
        for r in range(self.count):
            yield self.unrank(r)

    def all_vectors(self) -> np.ndarray:
        """Read-only dense (count, n) array of every sphere element, in rank order.

        Built once per (scaled table, n, w) and shared by every enumerator.
        """
        return _sphere_vectors(self._tab, self.n, self.w_scaled)


@lru_cache(maxsize=64)
def _suffix_table(int_table: tuple[int, ...], n: int, w_scaled: int) -> np.ndarray:
    """(n+1, 2*w_scaled+1) array: [i, w_scaled + j] = #length-i vectors of weight j.

    The entries for weights j in [-w_scaled, w_scaled] are all an unrank at
    weight w_scaled reads (negative weights count 0).  The array is int64
    when they fit and holds Python ints (dtype object) otherwise; the full
    _count_rows may overflow int64 even when this slice does not.
    """
    cells = [
        [0] * w_scaled + [row[j] if j < len(row) else 0 for j in range(w_scaled + 1)]
        for row in _count_rows(int_table, n)
    ]
    fits = max(map(max, cells)) < 2**63
    arr = np.array(cells, dtype=np.int64 if fits else object)
    arr.setflags(write=False)
    return arr


def _unrank_rows(
    int_table: tuple[int, ...], n: int, w_scaled: int, ranks: np.ndarray
) -> np.ndarray:
    """The scalar unrank walk, one numpy step per position and symbol over all ranks."""
    table = _suffix_table(int_table, n, w_scaled)
    symbols = [(x, t) for x, t in enumerate(int_table) if t <= w_scaled]
    r = ranks.astype(table.dtype)
    budget = np.full(len(r), w_scaled, dtype=np.int64)
    out = np.zeros((len(r), n), dtype=np.int64)
    for i in range(n):
        row = table[n - i - 1]
        col = out[:, i]  # a view into out
        open_ = np.ones(len(r), dtype=bool)
        for x, cost in symbols:
            c = row[budget - cost + w_scaled]
            take = open_ & (r < c)
            col += x * take
            budget -= cost * take
            open_ ^= take
            r -= c * open_
            if not open_.any():
                break
    return out


@lru_cache(maxsize=64)
def _sphere_vectors(int_table: tuple[int, ...], n: int, w_scaled: int) -> np.ndarray:
    rows = _count_rows(int_table, n)
    count = rows[n][w_scaled] if 0 <= w_scaled < len(rows[n]) else 0
    if count:
        out = _unrank_rows(int_table, n, w_scaled, np.arange(count))
    else:
        out = np.zeros((0, n), dtype=np.int64)
    out.setflags(write=False)
    return out


def sample_uniform_weight_w(wf: WeightFunction, n: int, w, rng: random.Random) -> FqVector:
    """Exactly uniform draw from the weight-w sphere in F_q^n."""
    enum = SphereEnumerator(wf, n, w)
    if enum.count == 0:
        raise ValueError(f"empty sphere: no vectors of weight {w} in length {n}")
    return FqVector(wf.q, enum.unrank(rng.randrange(enum.count)))


# -- asymptotic sphere exponent (maximum entropy) ---------------------------


@dataclass(frozen=True, eq=False)
class EntropyProfile:
    """Maximizer of the sphere-area exponent at mean weight omega.

    lam holds the per-symbol frequencies (summing to 1), s the entropy
    exponent in log_q units, and beta the dual multiplier enforcing the
    mean-weight constraint (+-inf at the weight boundaries).
    """

    lam: np.ndarray
    s: float
    beta: float

    def __post_init__(self):
        arr = np.array(self.lam, dtype=float, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "lam", arr)


@dataclass(frozen=True, eq=False)
class _Dual:
    """Lagrangian dual of the maximum-entropy problem for one weight table.

    Class frequencies are proportional to mult * q^(-beta * wt): the mean
    weight falls strictly in beta, and the entropy peaks at beta = 0, so
    every query has one root beta inside [-beta_max, beta_max].  A query
    starts from the node table, built once per table on first use, and
    refines its root by bracketed Newton steps (_solve_dual).
    """

    w: np.ndarray  # distinct weights, ascending
    mult: np.ndarray  # symbols per distinct weight
    lnq: float
    beta_max: float

    def gibbs(self, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unnormalized class weights mult * q^(-beta * wt) and their logs.

        One row per multiplier; each row is scaled by its largest weight so
        that nothing overflows.
        """
        z = np.multiply.outer(beta * -self.lnq, self.w)
        z += np.log(self.mult)
        z -= z.max(axis=-1, keepdims=True)
        return np.exp(z), z

    def state(self, beta: np.ndarray):
        """(class frequencies, mean weight, entropy in log_q units) at each beta."""
        lam, z = self.gibbs(beta)
        tot = lam.sum(axis=-1, keepdims=True)
        lam /= tot
        z -= np.log(tot)
        z -= np.log(self.mult)
        z *= lam
        return lam, lam @ self.w, -z.sum(axis=-1) / self.lnq

    @cached_property
    def _moment_columns(self) -> np.ndarray:
        gap = self.w[-1] - self.w
        return np.stack([self.w, gap, self.w * gap], axis=1)

    def moments(self, beta: np.ndarray) -> np.ndarray:
        """Expectations of wt, w_max - wt and wt * (w_max - wt) at each beta.

        The second column is the mean's distance from the top, free of
        cancellation, and mean * gap - E[wt * (w_max - wt)] is the variance,
        accurate at both ends of the weight range.
        """
        e = self.gibbs(beta)[0]
        return e @ self._moment_columns / e.sum(axis=-1, keepdims=True)

    @cached_property
    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, beta) start table: x = logit of the mean weight, ascending.

        The 257 multipliers are c * sinh(t) with t evenly spaced, where
        c = 1 / (w_max ln q) is the table's own scale, so the nodes are
        dense near beta = 0 and reach +-beta_max.  Nodes whose logit is
        not finite or not increasing (a mean lost to underflow) are dropped.
        """
        c = 1.0 / (self.w[-1] * self.lnq)
        t_max = math.asinh(self.beta_max / c)
        beta = c * np.sinh(np.linspace(t_max, -t_max, 257))
        mom = self.moments(beta)
        pos = (mom[:, :2] > 0).all(axis=1)
        x = np.full(len(beta), -math.inf)
        x[pos] = np.log(mom[pos, 0]) - np.log(mom[pos, 1])
        prev = np.maximum.accumulate(np.concatenate([[-math.inf], x[:-1]]))
        keep = np.isfinite(x) & (x > prev)
        return x[keep], beta[keep]


def _bisect(lo: np.ndarray, hi: np.ndarray, root_above) -> np.ndarray:
    """Elementwise bisection; root_above(mid) is True where the root exceeds mid."""
    for _ in range(72):
        mid = 0.5 * (lo + hi)
        up = root_above(mid)
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    return 0.5 * (lo + hi)


_NEWTON_TOL = 2.0**-26  # about sqrt(eps): a smaller Newton step leaves error ~ eps
_BRACKET_TOL = 2.0**-48  # a midpoint step this small means the bracket has closed


def _solve_dual(wf: WeightFunction, omegas):
    """(class frequencies, entropy, beta) of the max-entropy law at each mean weight.

    Targets are clipped to [0, max weight]; at the two ends the entropy and
    beta are the exact limits (uniform over the extreme-weight symbols).
    A target that is not a finite number raises ValueError.

    Every other target gets Newton's method on x = logit(mean) =
    ln m - ln(w_max - m), which is close to linear in beta at both ends.
    It starts by interpolation in _Dual.nodes and stays inside the node
    cell that holds the root: every evaluation moves one end of [lo, hi] to
    the current point, and a step that leaves the bracket (edges included)
    is replaced by its midpoint.  A point stops once it no longer moves:
    after a Newton step below sqrt(eps) of its scale, or a midpoint step
    below rounding.  The loop is capped at the 72 steps a bisection from
    +-beta_max needs, so the same loop is the fast path and the fallback.
    """
    d = wf._dual_solver
    wmax = float(d.w[-1])
    om = np.atleast_1d(np.asarray(omegas, dtype=float))
    if not np.isfinite(om).all():
        bad = om[~np.isfinite(om)][0]
        raise ValueError(f"target weight {bad} outside [0, {wmax}]")
    om = np.clip(om, 0.0, wmax)
    at_lo, at_hi = om <= 0.0, om >= wmax
    beta = np.where(at_lo, d.beta_max, -d.beta_max)
    live = np.flatnonzero(~(at_lo | at_hi))
    x = np.log(om[live]) - np.log(wmax - om[live])
    xs, bs = d.nodes
    cell = np.searchsorted(xs, x)
    ends = np.concatenate([[d.beta_max], bs, [-d.beta_max]])
    lo, hi = ends[cell + 1], ends[cell]
    cur = beta[live] = np.interp(x, xs, bs)
    scale = 1.0 / (wmax * d.lnq)
    for _ in range(72):
        mom = d.moments(cur)
        m, gap = mom[:, 0], mom[:, 1]
        pos = (m > 0) & (gap > 0)
        f = np.log(np.where(pos, m, 1.0)) - np.log(np.where(pos, gap, 1.0)) - x
        # the mean falls with beta, so the root lies above where it exceeds
        # the target; reading that off the sign of f, not of m - om, keeps
        # step and bracket consistent within rounding
        above = np.where(pos, f > 0, m > 0)
        lo = np.where(above, cur, lo)
        hi = np.where(above, hi, cur)
        # Newton on x: dx/dbeta = -Var ln q w_max / (m gap), Var = m gap - E[wt gap]
        num = f * m * gap
        den = (m * gap - mom[:, 2]) * (d.lnq * wmax)
        fits = pos & (den > 0) & (np.abs(num) <= den * (hi - lo))
        step = cur + np.divide(num, den, out=np.zeros_like(num), where=fits)
        fits &= (lo <= step) & (step <= hi)
        nxt = beta[live] = np.where(fits, step, 0.5 * (lo + hi))
        tol = np.where(fits, _NEWTON_TOL, _BRACKET_TOL) * (scale + np.abs(cur))
        moving = np.abs(nxt - cur) > tol
        if not moving.any():
            break
        live, cur, lo, hi, x = (a[moving] for a in (live, nxt, lo, hi, x))
    lam, _, ent = d.state(beta)
    ent = np.where(at_lo, math.log(d.mult[0]) / d.lnq, np.clip(ent, 0.0, 1.0))
    ent = np.where(at_hi, math.log(d.mult[-1]) / d.lnq, ent)
    beta = np.where(at_lo, math.inf, np.where(at_hi, -math.inf, beta))
    return lam, ent, beta


def sphere_exponent(wf: WeightFunction, omega: float) -> EntropyProfile:
    """Entropy-maximizing symbol distribution with mean weight omega.

    Solved in Lagrangian dual form: frequencies proportional to
    q^(-beta * wt(x)) with beta found by a few bracketed Newton steps so
    the mean weight matches omega; the mean is strictly decreasing in
    beta, so the root is unique.  Boundary targets (omega = 0 or omega =
    max weight) concentrate exactly on the extreme-weight symbols.
    """
    d = wf._dual_solver
    wmax = float(d.w[-1])
    if not -_WEIGHT_TOL <= omega <= wmax + _WEIGHT_TOL:
        raise ValueError(f"target weight {omega} outside [0, {wmax}]")
    if omega <= _WEIGHT_TOL:
        omega = 0.0
    elif omega >= wmax - _WEIGHT_TOL:
        omega = wmax
    lam, s, beta = _solve_dual(wf, [omega])
    tab = np.asarray([float(x) for x in wf.table])
    return EntropyProfile((lam[0] / d.mult)[np.searchsorted(d.w, tab)], float(s[0]), float(beta[0]))


def sphere_exponent_many(wf: WeightFunction, omegas) -> np.ndarray:
    """Vectorized entropy exponents for an array of mean-weight targets.

    Targets are clipped to [0, max weight]; a target that is not a finite
    number raises ValueError.
    """
    return _solve_dual(wf, omegas)[1]


def entropy_crossings(wf: WeightFunction, s: float) -> tuple[float, float]:
    """Mean weights below and above the average where the sphere exponent is s.

    The entropy falls with beta on the low-weight branch (beta > 0) and
    rises with it on the high-weight branch, so both crossings come from
    one two-element bisection.  When even the maximal weight has entropy
    above s, the upper branch has no crossing and returns the top weight.
    """
    d = wf._dual_solver
    side = np.array([1.0, -1.0])
    beta = _bisect(
        np.array([0.0, -d.beta_max]),
        np.array([d.beta_max, 0.0]),
        lambda b: side * (d.state(b)[2] - s) > 0,
    )
    lo, hi = d.state(beta)[1]
    if math.log(d.mult[-1]) / d.lnq > s:
        hi = d.w[-1]
    return float(lo), float(hi)


def typical_pattern(wf: WeightFunction, omega: float) -> np.ndarray:
    """Symbol frequencies (fractions of n) of typical weight-omega*n words."""
    return sphere_exponent(wf, omega).lam


def normalized_weight(wf: WeightFunction, omega: float) -> float:
    """omega rescaled by the largest per-symbol weight, mapping onto [0, 1]."""
    return float(omega) / float(wf.max_weight)
