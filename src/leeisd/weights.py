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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .fieldlin import FqVector, _integer_array, _to_int, validate_modulus

_WEIGHT_TOL = 1e-12  # relative to the max weight: how far outside [0, w_max] a target may lie
# the most the top weight may be of the smallest gap between two weights: the
# variance m*gap - E[wt*gap] cancels to about eps * spread; at 10^18 the table
# (0, 1, 1, 1, 10^18) still gets exponents within 6e-13, 10^20 is 3e-9 off
_MAX_SPREAD = 10**18


def _to_fraction(x) -> Fraction:
    """The one rational parser: ints and "a/b" or decimal strings exactly,
    floats as their nearest fraction with denominator at most 10^9."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return Fraction(int(x))
    try:
        if isinstance(x, str):
            return Fraction(x)
        if isinstance(x, float):
            return Fraction(x).limit_denominator(10**9)
    except (OverflowError, ZeroDivisionError) as exc:  # an infinite float or "a/0"
        raise ValueError(f"weight {x!r} is not a finite rational") from exc
    raise ValueError(f"cannot interpret {x!r} as a rational weight")


@dataclass(frozen=True)
class WeightFunction:
    """Per-symbol weight table wt with wt[0] = 0.

    The table fixes the metric: lee uses min(x, q - x), hamming charges 1
    for every nonzero symbol, and custom tables may hold any nonnegative
    rationals, at least one of them positive, with the top weight at most
    _MAX_SPREAD = 10^18 times the smallest gap between two distinct
    weights; past that the entropy solver loses accuracy.  Derived views
    (the scaled integer table, the entropy solver's weight classes) are
    computed once per instance.
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
        levels = sorted(set(self.int_table))
        if levels[-1] > _MAX_SPREAD * min(b - a for a, b in zip(levels, levels[1:])):
            raise ValueError(f"top weight exceeds {_MAX_SPREAD:.0e} times the smallest weight gap")

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
        if not isinstance(doc, dict) or "q" not in doc or not isinstance(doc.get("table"), list):
            raise ValueError('weight JSON must be an object with "q" and a "table" list')
        q = _to_int(doc["q"], "q")
        return cls(q, tuple(doc["table"]), name=str(doc.get("name", "custom")))

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
        return tuple(x.numerator * (self.denominator // x.denominator) for x in self.table)

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


# the most bytes the packed counts of one (length, weight) may take: at the
# limit one exact count takes about 1.5 s (hamming(3), n = 2000, w = 2000)
_MAX_PACKED_BYTES = 2**20


def _kronecker_slots(int_table: tuple[int, ...], n: int, w_scaled: int) -> tuple[int, int, int]:
    """(packed weight enumerator, bytes per slot, mask) for powers up to n.

    Exact counts come from the coefficient lists of (sum_x z^{wt_x})^i by
    Kronecker substitution: the polynomial is packed into one big integer
    with byte-aligned slots wide enough that coefficients (all <= q^n)
    never carry across slots, and powers are taken on the integer.  A
    slot of a product depends only on the slots at or below it, so every
    product is masked to the w_scaled + 1 slots of weights 0..w_scaled and
    stays exact there.  A packed integer over _MAX_PACKED_BYTES raises
    ValueError before any big-integer work.
    """
    slot_bytes = (n * max(1, len(int_table).bit_length()) + 8) // 8
    size = (w_scaled + 1) * slot_bytes
    if size > _MAX_PACKED_BYTES:
        raise ValueError(
            f"exact counts at length {n} and scaled weight {w_scaled} take {size} bytes,"
            f" over the limit of {_MAX_PACKED_BYTES}"
        )
    bits = 8 * slot_bytes
    base = sum(1 << (w * bits) for w in int_table if w <= w_scaled)
    return base, slot_bytes, (1 << (size * 8)) - 1


def _unpack(val: int, nslots: int, slot_bytes: int) -> tuple[int, ...]:
    raw = val.to_bytes(nslots * slot_bytes, "little")
    return tuple(
        int.from_bytes(raw[j * slot_bytes : (j + 1) * slot_bytes], "little")
        for j in range(nslots)
    )


@lru_cache(maxsize=32)
def _count_at(int_table: tuple[int, ...], n: int, w_scaled: int) -> int:
    """Number of length-n vectors of scaled weight w_scaled, exact.

    The power is taken from the top bit of n down, so each step squares and
    at most once multiplies by the short base.
    """
    base, slot_bytes, mask = _kronecker_slots(int_table, n, w_scaled)
    val = 1
    for bit in bin(n)[2:]:
        val = val * val & mask
        if bit == "1":
            val = val * base & mask
    return val >> (8 * slot_bytes * w_scaled)


def sphere_count_exact(wf: WeightFunction, n: int, w) -> int:
    """Number of vectors in F_q^n of weight exactly w (0 if unreachable)."""
    n = _to_int(n, "length")
    if n < 0:
        raise ValueError("length must be nonnegative")
    ws = wf.scaled(w)
    if ws is None or not 0 <= ws <= n * max(wf.int_table):
        return 0
    return _count_at(wf.int_table, n, ws)


# -- sphere enumeration, ranking and sampling ------------------------------


@lru_cache(maxsize=64)
def _count_rows(int_table: tuple[int, ...], n: int, w_scaled: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..n of the suffix-count table: row[i][j] = #length-i vectors of weight j.

    Only the weights j <= w_scaled that an unrank at w_scaled reads: the
    same masked Kronecker counts as _count_at.  Row i is row i-1 times the
    packed weight enumerator, taken as one shifted add per weight class c
    (mult_c symbols of weight wt_c): sum_c mult_c * (row << wt_c * slot),
    which is linear in the packed size where a product is not.  No rows
    when no length-n vector has weight w_scaled.
    """
    if not 0 <= w_scaled <= n * max(int_table):
        return ()
    _, slot_bytes, mask = _kronecker_slots(int_table, n, w_scaled)
    classes = Counter(w for w in int_table if w <= w_scaled)
    shifts = [(w * 8 * slot_bytes, mult) for w, mult in sorted(classes.items())]
    rows, val = [_unpack(1, w_scaled + 1, slot_bytes)], 1
    for _ in range(n):
        acc = 0
        for shift, mult in shifts:
            acc += (val << shift) * mult if mult > 1 else val << shift
        val = acc & mask
        rows.append(_unpack(val, w_scaled + 1, slot_bytes))
    return tuple(rows)


class SphereEnumerator:
    """Unrank interface to {v in F_q^n : wt(v) = w}.

    Vectors are ordered by reading coordinates left to right with symbols
    in increasing order, so rank 0 is the lexicographically smallest
    element of the sphere.
    """

    def __init__(self, wf: WeightFunction, n: int, w):
        n = _to_int(n, "length")
        if n < 0:
            raise ValueError("length must be nonnegative")
        self.wf = wf
        self.n = n
        ws = wf.scaled(w)
        self.w_scaled = -1 if ws is None or ws < 0 else ws
        self._rows = _count_rows(wf.int_table, n, self.w_scaled)
        self._tab = wf.int_table

    @property
    def count(self) -> int:
        return self._rows[self.n][self.w_scaled] if self._rows else 0

    def unrank(self, r: int) -> np.ndarray:
        r = _to_int(r, "rank")
        if not 0 <= r < self.count:
            raise IndexError(f"rank {r} out of range for sphere of size {self.count}")
        out = np.zeros(self.n, dtype=np.int64)
        budget = self.w_scaled
        for i in range(self.n):
            row = self._rows[self.n - i - 1]
            for x in range(self.wf.q):
                left = budget - self._tab[x]
                c = row[left] if left >= 0 else 0
                if r < c:
                    out[i] = x
                    budget = left
                    break
                r -= c
        return out

    def unrank_many(self, ranks) -> np.ndarray:
        """(len(ranks), n) array whose row k is unrank(ranks[k])."""
        r = np.asarray(ranks).reshape(-1)
        if r.dtype == object:  # ranks past int64, held as Python ints
            r = np.array([_to_int(x, "rank") for x in r], dtype=object)
        else:
            r = _integer_array(ranks).reshape(-1)
        if r.size == 0:
            return np.zeros((0, self.n), dtype=np.int64)
        if r.min() < 0 or r.max() >= self.count:
            raise IndexError(f"ranks outside [0, {self.count}) for this sphere")
        return _unrank_rows(self._tab, self.n, self.w_scaled, r)

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
    when they fit and holds Python ints (dtype object) otherwise.
    """
    cells = [[0] * w_scaled + list(row) for row in _count_rows(int_table, n, w_scaled)]
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
    rows = _count_rows(int_table, n, w_scaled)
    count = rows[n][w_scaled] if rows else 0
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


_BLOCK = 2**15  # float64 elements per kernel block (256 KiB), so a block stays in cache
_NODES = 1025  # start-table multipliers: a Hermite start then lands within 0.2 _NEWTON_TOL


@dataclass(frozen=True, eq=False)
class _Dual:
    """Lagrangian dual of the maximum-entropy problem for one weight table.

    Class frequencies are proportional to mult * q^(-beta * wt): the mean
    weight falls strictly in beta, and the entropy peaks at beta = 0, so a
    mean weight has one root beta in [-beta_max, beta_max] and an entropy
    level one on each side of 0.  _newton finds them from the node table.
    """

    w: np.ndarray  # distinct weights, ascending, so w[0] = 0
    mult: np.ndarray  # symbols per distinct weight
    lnq: float
    beta_max: float

    @cached_property
    def _dist(self) -> np.ndarray:
        """(2, classes) rows wt and gap = w_max - wt: the distances from both ends."""
        return np.stack([self.w, self.w[-1] - self.w])

    @cached_property
    def _columns(self) -> np.ndarray:
        """(classes, 4) matrix mult * [1, wt, gap, wt * gap]."""
        w, gap = self._dist
        return np.stack([np.ones_like(w), w, gap, w * gap], axis=1) * self.mult[:, None]

    def evaluate(self, beta: np.ndarray) -> np.ndarray:
        """Rows [s ln q, mean, gap, E[wt * gap]] of the law at each beta.

        s ln q is the entropy in nats.  gap is the mean's distance w_max -
        mean from the top, free of cancellation, and mean * gap - E[wt * gap]
        is the variance, accurate at both ends of the weight range.

        A row's class terms are mult * q^(-|beta| |wt - w_end|), where w_end
        is the weight the row favours (w[0] = 0 for beta >= 0, w_max for
        beta < 0): the law's terms scaled by their bound, so none exceeds
        mult and the w_end term is mult exactly.  Rows run in blocks of about
        _BLOCK elements, each kept in cache through three passes: the
        exponents, by a matmul against the two distance rows with one
        coefficient zero, so each is one exact product; exp in place; and one
        matmul against mult * [1, wt, gap, wt * gap].  No block is one row,
        so a row's bits are the same in every batch that holds it.  The
        entropy is the dual value ln Z + |beta| ln q E|wt - w_end|, a sum of
        two nonnegative terms, so nothing cancels.
        """
        n = len(beta)
        up = beta >= 0
        slope = np.abs(beta) * -self.lnq
        rows = max(2, _BLOCK // len(self.w))
        # a one-row product takes another BLAS kernel, whose sums differ from
        # a batch's in the last bits: a lone last row gets a zero row beside it
        pad = n % rows == 1
        coef = np.zeros((n + pad, 2))  # per row, one coefficient is zero
        np.copyto(coef[:n, 0], slope, where=up)
        np.copyto(coef[:n, 1], slope, where=~up)
        out = np.empty((n + pad, 4))
        buf = np.empty((min(rows, n + pad), len(self.w)))
        for start in range(0, n + pad, rows):
            block = coef[start : start + rows]
            z = np.matmul(block, self._dist, out=buf[: len(block)])
            np.exp(z, out=z)
            np.matmul(z, self._columns, out=out[start : start + rows])
        out = out[:n]
        tot = out[:, 0].copy()
        out /= tot[:, None]
        out[:, 0] = np.log(tot) - slope * np.where(up, out[:, 1], out[:, 2])
        return out

    @cached_property
    def node_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, beta, rows): the logit of the mean weight, the multiplier and
        the evaluate rows [s ln q, mean, gap, E[wt gap]] of each node.

        The _NODES = 1,025 multipliers are c * sinh(t), t evenly spaced and
        c = 1 / (w_max ln q) the table's own scale, so the nodes are dense
        near beta = 0 and reach +-beta_max.  Nodes whose logit is not finite
        or not increasing (a mean lost to underflow) are dropped.
        """
        c = 1.0 / (self.w[-1] * self.lnq)
        t_max = math.asinh(self.beta_max / c)
        beta = c * np.sinh(np.linspace(t_max, -t_max, _NODES))
        ev = self.evaluate(beta)
        pos = (ev[:, 1:3] > 0).all(axis=1)
        x = np.full(len(beta), -math.inf)
        x[pos] = np.log(ev[pos, 1]) - np.log(ev[pos, 2])
        prev = np.maximum.accumulate(np.concatenate([[-math.inf], x[:-1]]))
        keep = np.isfinite(x) & (x > prev)
        return x[keep], beta[keep], ev[keep].T

    @cached_property
    def nodes(self) -> tuple[np.ndarray, ...]:
        """(x, y, ends, dx, dy): two keys rising along the nodes, beta at the
        cell ends, and dbeta/dx and dbeta/dy at each node.

        x is the logit of the mean weight, y the entropy exponent s mirrored
        to 2 - s past its peak at beta = 0, both at the nodes of node_rows.
        ends is the node betas between +-beta_max, so a level in node cell i
        of a key has its root in [ends[i + 1], ends[i]].
        The slopes come from the same rows, with Var = m gap - E[wt gap]:
        dbeta/dx = -m gap / (Var ln q w_max) and dbeta/dy = -1 / (|beta| ln q Var).
        A slope that is not both finite and negative (dy at beta = 0, a Var
        lost to underflow) is nan.  _newton's Hermite start on this table is
        within its tolerance, so each solve takes one kernel pass.
        """
        x, beta, (s, m, gap, wt_gap) = self.node_rows
        s = s / self.lnq
        dm = (wt_gap - m * gap) * self.lnq  # dm/dbeta = -ln q Var
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dx, dy = m * gap / (dm * self.w[-1]), 1.0 / (np.abs(beta) * dm)
        dx, dy = (np.where(np.isfinite(v) & (v < 0), v, math.nan) for v in (dx, dy))
        ends = np.concatenate([[self.beta_max], beta, [-self.beta_max]])
        return x, np.where(beta >= 0, s, 2.0 - s), ends, dx, dy

    @cached_property
    def starts(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(key, cells) of x and of y: each key of nodes with its _start_cells."""
        x, y, ends, dx, dy = self.nodes
        return (x, _start_cells(x, dx, ends)), (y, _start_cells(y, dy, ends))

    @cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(key, cells): the x key of node_rows and its _bound_cells."""
        x, beta, (s, m, gap, _) = self.node_rows
        s_ends = np.log(self.mult[[0, -1]]) / self.lnq
        return x, _bound_cells(s / self.lnq, m, gap, beta, s_ends, float(self.w[-1]))


def _start_cells(key, slopes, ends) -> np.ndarray:
    """(8, len(key) + 1) Hermite start table of one key, a column per searchsorted cell.

    Cell c holds the levels in (key[c - 1], key[c]]; its root lies in
    [lo, hi] = [ends[c + 1], ends[c]].  It interpolates over the nodes i - 1
    and i, i = c clamped to [1, len(key) - 1], so an end cell reads its
    neighbour's nodes.  The rows are key[i - 1], the width h = key[i] -
    key[i - 1] (inf for a cell of zero width, so that its u is 0), beta =
    b0 at node i - 1, run = the beta change to node i, the two end bends
    h * slope - run, lo and hi.  A cell whose bends are not both finite (a
    nan end slope) gets zero bends: its start is linear.
    """
    c = np.arange(len(key) + 1)
    i = np.minimum(np.maximum(c, 1), len(key) - 1)
    h = key[i] - key[i - 1]
    b0, run = ends[i], ends[i + 1] - ends[i]
    bends = np.stack([h * slopes[i - 1] - run, h * slopes[i] - run])
    bends[:, ~np.isfinite(bends).all(axis=0)] = 0.0
    width = np.where(h > 0, h, math.inf)
    cells = np.stack([key[i - 1], width, b0, run, *bends, ends[c + 1], ends[c]])
    cells.setflags(write=False)
    return cells


def _bound_cells(s, m, gap, beta, s_ends, wmax: float) -> np.ndarray:
    """(10, len(s) + 1) table of bounds on s, a column per searchsorted cell of x.

    Cell c lies between nodes c - 1 and c; cell 0 starts at weight 0 and the
    last cell ends at w_max, where s_ends are the exact limits.  A cell
    measures t from its own end of the range: the weight, or the gap w_max -
    weight in the last cell and in every cell above the mean (beta < 0), so
    that t keeps its digits near either end.  s is concave in t with ds/dt =
    beta or -beta, so on a cell the chord is a lower bound on s and either
    node's tangent an upper one; an end cell has no tangent at its end and
    takes its inner node's twice.  The rows are side (1 where t is the gap),
    t at the cell's lower-weight end, the chord's base and slope (a cell of
    zero width gets the lower node value and slope 0), and t, s and ds/dt of
    the two tangents.
    """
    c = np.arange(len(s) + 1)
    high = np.concatenate([[False], beta[:-1] < 0, [True]])
    # the nodes, led and closed by the two ends of the range
    s_p = np.concatenate([s_ends[:1], s, s_ends[1:]])
    m_p = np.concatenate([[0.0], m, [wmax]])
    g_p = np.concatenate([[wmax], gap, [0.0]])
    b_p = np.concatenate([[0.0], beta, [0.0]])

    def node(i):  # (t, s, ds/dt) of node i, in each cell's own t
        return np.where(high, g_p[i], m_p[i]), s_p[i], np.where(high, -b_p[i], b_p[i])

    (t_a, s_a, _), (t_b, s_b, _) = node(c), node(c + 1)
    width = t_b - t_a
    wide = width != 0
    chord = np.divide(s_b - s_a, width, out=np.zeros(len(c)), where=wide)
    base = np.where(wide, s_a, np.minimum(s_a, s_b))
    tangents = (*node(np.maximum(c, 1)), *node(np.minimum(c + 1, len(s))))
    cells = np.stack([high.astype(float), t_a, base, chord, *tangents])
    cells.setflags(write=False)
    return cells


# how far sphere_exponent_many may lie outside the chord and tangents of
# _bound_cells: rounding in the nodes and the solve, measured at most 9.3e-14
# (the table (0, 1, 1, 1, 10^18)) and at most 2.4e-15 at spreads up to 10^17
_BOUND_TOL = 1e-12
_TINY = np.nextafter(0.0, 1.0)  # no positive mean or gap is smaller


def _entropy_bounds(wf: WeightFunction, omegas) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) bounds on sphere_exponent_many(wf, omegas), elementwise.

    Targets are clipped to [0, max weight] as the solve clips them.  Each
    target is one lookup in _Dual.bounds by the logit of its weight, then
    the chord and the lower tangent (capped at 1) of its cell, widened by
    _BOUND_TOL.  No entropy is solved.
    """
    d = wf._dual_solver
    wmax = float(d.w[-1])
    om = np.minimum(np.maximum(np.asarray(omegas, dtype=float), 0.0), wmax)
    gap = wmax - om
    x = np.log(np.maximum(om, _TINY)) - np.log(np.maximum(gap, _TINY))
    key, cells = d.bounds
    side, t_lo, base, chord, t_a, s_a, ds_a, t_b, s_b, ds_b = cells.take(
        np.searchsorted(key, x), axis=1
    )
    t = np.where(side, gap, om)
    upper = np.minimum(np.minimum(s_a + ds_a * (t - t_a), s_b + ds_b * (t - t_b)), 1.0)
    return base + chord * (t - t_lo) - _BOUND_TOL, upper + _BOUND_TOL


_NEWTON_TOL = 2.0**-26  # about sqrt(eps): a smaller Newton step leaves error ~ eps
_BRACKET_TOL = 2.0**-48  # a midpoint step this small means the bracket has closed


def _hermite_start(start, t):
    """(beta, lo, hi) at each level t: the start and the node cell [lo, hi] of its root.

    start is one of _Dual.starts, a key and its start table: one
    searchsorted, one gather of the cell's column and one Hermite step.
    """
    key, cells = start
    k0, h, b0, run, bend0, bend1, lo, hi = cells.take(np.searchsorted(key, t), axis=1)
    u = np.minimum(np.maximum((t - k0) / h, 0.0), 1.0)
    v = 1.0 - u
    return np.minimum(np.maximum(b0 + u * run + u * v * (v * bend0 - u * bend1), lo), hi), lo, hi


def _newton(d: _Dual, start, t, target, residual):
    """Roots in beta of residual, one per level t of a key, and their rows.

    start is one of d.starts: a key of d.nodes and its start table.  A point
    starts at the cubic Hermite interpolant of beta in the node cell [lo,
    hi] that holds t, clamped to it (_hermite_start).  residual(ev,
    beta, target) returns (above, num, den) from ev = d.evaluate(beta):
    where the root lies above beta, and the Newton step num / den.  Each
    evaluation moves one end of [lo, hi] to the point; a step that leaves it
    becomes the midpoint.  A point stops after a Newton step below sqrt(eps)
    of its scale, a midpoint step below rounding, or the 72 steps of a
    bisection from +-beta_max; from the Hermite start that is one kernel
    pass.

    Returns beta and the rows [s ln q, mean] of its last pass, carried to
    beta by one first-order term (d(s ln q)/dbeta = -beta (ln q)^2 Var,
    dm/dbeta = -ln q Var), which leaves an error of rounding size after a
    step below sqrt(eps).

    The points still moving are a full slice until the first one stops,
    then an index array.  The slice is kept because the first pass, from
    the Hermite start usually the only one, then writes its results with
    no index gather: against indexing from the first pass it measured 2%
    to 5% less time a solve in 8 of 9 cells (lee(3), lee(43) and lee(163)
    at 2, 12 and 24 targets) and 0.3% more in the ninth.
    """
    cur, lo, hi = _hermite_start(start, t)
    beta, rows = np.empty(len(t)), np.empty((len(t), 2))
    live = slice(None)  # every point, until one stops; then their indices
    scale = 1.0 / (d.w[-1] * d.lnq)
    for _ in range(72):
        ev = d.evaluate(cur)
        above, num, den = residual(ev, cur, target)
        lo = np.where(above, cur, lo)
        hi = np.where(above, hi, cur)
        fits = (den > 0) & (np.abs(num) <= den * (hi - lo))
        step = cur + np.divide(num, den, out=np.zeros(len(num)), where=fits)
        fits &= (lo <= step) & (step <= hi)
        nxt = beta[live] = np.where(fits, step, 0.5 * (lo + hi))
        fall = (nxt - cur) * (d.lnq * (ev[:, 1] * ev[:, 2] - ev[:, 3]))  # -(mean change)
        rows[live, 0] = ev[:, 0] - cur * d.lnq * fall
        rows[live, 1] = ev[:, 1] - fall
        tol = np.where(fits, _NEWTON_TOL, _BRACKET_TOL) * (scale + np.abs(cur))
        moving = np.abs(nxt - cur) > tol
        if not moving.any():
            break
        live = np.arange(len(t))[live][moving]
        cur, lo, hi, target = (a[moving] for a in (nxt, lo, hi, target))
    return beta, rows


def _solve_dual(wf: WeightFunction, omegas):
    """(entropy, beta) of the max-entropy law at each mean weight, flattened.

    Targets are clipped to [0, max weight]; at the two ends the entropy and
    beta are the exact limits (uniform over the extreme-weight symbols).
    A target that is not a finite number raises ValueError.  Every other
    target gets _newton on x = logit(mean) = ln m - ln(w_max - m), which is
    close to linear in beta at both ends: one kernel pass from the Hermite
    start on the _NODES-node table, with the entropy carried from that pass.
    The end targets are set aside first, so the solve itself gathers and
    scatters nothing.
    """
    d = wf._dual_solver
    wmax = float(d.w[-1])
    om = np.asarray(omegas, dtype=float).reshape(-1)
    if not np.isfinite(om).all():
        bad = om[~np.isfinite(om)][0]
        raise ValueError(f"target weight {bad} outside [0, {wmax}]")
    om = np.minimum(np.maximum(om, 0.0), wmax)  # np.clip, without its call overhead
    inner = (om > 0.0) & (om < wmax)
    if not inner.all():  # the end targets get their exact limits, the others one solve
        at_lo = om <= 0.0
        ent = np.where(at_lo, math.log(d.mult[0]) / d.lnq, math.log(d.mult[-1]) / d.lnq)
        beta = np.where(at_lo, math.inf, -math.inf)
        ent[inner], beta[inner] = _solve_dual(wf, om[inner])
        return ent, beta
    x = np.log(om) - np.log(wmax - om)

    def residual(ev, beta, x):
        m, gap = ev[:, 1], ev[:, 2]
        pos = (m > 0) & (gap > 0)
        f = np.log(np.where(pos, m, 1.0)) - np.log(np.where(pos, gap, 1.0)) - x
        # the root lies above where the mean exceeds its target; reading that
        # off f, not m - om, keeps step and bracket consistent within rounding
        above = np.where(pos, f > 0, m > 0)
        # dx/dbeta = -Var ln q w_max / (m gap); Var = m gap - E[wt gap] is <= 0 where pos fails
        return above, f * m * gap, (m * gap - ev[:, 3]) * (d.lnq * wmax)

    beta, rows = _newton(d, d.starts[0], x, x, residual)
    return np.minimum(np.maximum(rows[:, 0] / d.lnq, 0.0), 1.0), beta


def sphere_exponent(wf: WeightFunction, omega: float) -> EntropyProfile:
    """Entropy-maximizing symbol distribution with mean weight omega.

    Solved in Lagrangian dual form: frequencies proportional to
    q^(-beta * wt(x)) with beta found by bracketed Newton steps (one
    kernel pass, see _solve_dual) so the mean weight matches omega; the
    mean is strictly decreasing in beta, so the root is unique.  A target
    within _WEIGHT_TOL * max weight outside [0, max weight] is clipped to
    it, and the ends resolve as in sphere_exponent_many: omega = 0 or
    omega = max weight concentrates exactly on the extreme-weight symbols.  The frequencies are computed
    here, for this one point, from beta: each is q^(-|beta| |wt(x) - w_end|)
    normalized, where w_end is the weight beta favours (0 for beta >= 0,
    the max weight otherwise).
    """
    d = wf._dual_solver
    wmax = float(d.w[-1])
    if not -_WEIGHT_TOL * wmax <= omega <= (1.0 + _WEIGHT_TOL) * wmax:
        raise ValueError(f"target weight {omega} outside [0, {wmax}]")
    s, beta = (float(a[0]) for a in _solve_dual(wf, [omega]))
    tab = np.asarray([float(x) for x in wf.table])
    dist = np.abs(tab - (0.0 if beta >= 0 else wmax))
    if math.isinf(beta):
        lam = (dist == 0).astype(float)
    else:
        lam = np.exp(-abs(beta) * d.lnq * dist)
    return EntropyProfile(lam / lam.sum(), s, beta)


def sphere_exponent_many(wf: WeightFunction, omegas) -> np.ndarray:
    """Vectorized entropy exponents for an array of mean-weight targets.

    Targets are clipped to [0, max weight]; a target that is not a finite
    number raises ValueError.  A scalar gives a 1-element array; an array
    of any other shape gives one of the same shape.
    """
    om = np.asarray(omegas, dtype=float)
    s = _solve_dual(wf, om)[0]
    return s.reshape(om.shape) if om.ndim > 1 else s


def entropy_crossings(wf: WeightFunction, s: float) -> tuple[float, float]:
    """Mean weights below and above the average where the sphere exponent is s.

    A branch whose extreme class alone has entropy log_q(mult) >= s has no
    crossing and returns its end exactly: 0 below, the top weight above.
    The others are solved together by _newton on side * (s(beta) - s), side
    = +1 on the low-weight branch (beta > 0) and -1 on the high-weight one.
    """
    d = wf._dual_solver
    live = np.log(d.mult[[0, -1]]) / d.lnq < s
    side = np.array([1.0, -1.0])[live]

    def residual(ev, beta, side):
        # in log_q units ds/dbeta = -beta ln q Var, Var = m gap - E[wt gap]
        f = side * (ev[:, 0] / d.lnq - s)
        return f > 0, f, side * beta * d.lnq * (ev[:, 1] * ev[:, 2] - ev[:, 3])

    y = 1.0 - side * (1.0 - s)  # y = s or 2 - s
    out = np.array([0.0, d.w[-1]])
    out[live] = _newton(d, d.starts[1], y, side, residual)[1][:, 1]
    return float(out[0]), float(out[1])


def normalized_weight(wf: WeightFunction, omega: float) -> float:
    """omega rescaled by the largest per-symbol weight, mapping onto [0, 1]."""
    return float(omega) / float(wf.max_weight)
