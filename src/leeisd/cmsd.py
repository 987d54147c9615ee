"""Back ends for the small decoding subproblem inside the outer ISD loop.

Given the bottom block (H'', s'') produced by partial Gaussian elimination,
each builder returns a compact description of a function f over a domain
of Y indices whose nonzero values are vectors e'' with H'' e'' = s'' and
weight exactly p.  The outer loop enumerates f and tests each candidate
against the remaining weight budget.

Back ends:
  * prange: the trivial description (p = 0, no bottom block).
  * dumer: one birthday split into two support halves, enumerating every
    left/right weight split so the image covers all solutions.
  * wagner_v1: a k-tree of pairwise list merges over 2^a support blocks of
    fixed balanced per-block weight, with random intermediate targets that
    telescope to s''.
  * wagner_v2_build: the checkable-function variant; the quadratically
    larger rightmost list is never materialized, and f(k) lazily resolves
    the k-th element of that list through the sorted left-hand structures.

Support blocks and per-block weight budgets are balanced to within one
unit (deterministic left-to-right) when exact divisibility fails.  Weights
are tracked in integer-rescaled units throughout.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .fieldlin import FqMatrix, FqVector
from .merge import DEFAULT_LIST_CAP, IndexedList, MergeOverflowError, _encode_keys, merge
from .weights import (
    SphereEnumerator,
    WeightFunction,
    sphere_exponent_many,
    vector_weight,
)


class CmsdInfeasibleError(Exception):
    """A support block cannot carry its assigned weight (empty base sphere)."""


@dataclass(frozen=True, eq=False)
class _Block:
    offset: int
    length: int
    w_scaled: int
    enum: SphereEnumerator


@dataclass(eq=False)
class _Node:
    """Merge-tree node; leaves unrank sphere elements, inner nodes recurse."""

    lst: IndexedList
    sup: tuple[int, int]
    block: _Block | None = None
    children: tuple["_Node", "_Node"] | None = None

    def resolve(self, pos: int, out: np.ndarray) -> None:
        if self.block is not None:
            rank = self.lst.backrefs[pos]
            b = self.block.enum.unrank(rank)
            out[self.block.offset : self.block.offset + self.block.length] = b
        else:
            i, j = self.lst.backrefs[pos]
            self.children[0].resolve(i, out)
            self.children[1].resolve(j, out)


@dataclass(eq=False)
class CmsdDescription:
    """Evaluable function f over [y) plus the data needed to compute it.

    evaluate(i) returns a candidate vector of the stated length, or the
    zero vector when index i resolves to no solution.  Every nonzero value
    satisfies the syndrome and weight constraints by construction.
    """

    q: int
    length: int
    m: int
    weight: Fraction
    y: int
    h_second: FqMatrix
    s_second: FqVector
    wf: WeightFunction
    meta: dict
    _eval: object = field(repr=False)

    def evaluate(self, i: int) -> np.ndarray:
        if not 0 <= i < self.y:
            raise IndexError(f"index {i} outside [0, {self.y})")
        return self._eval(i)

    def is_solution(self, v: np.ndarray) -> bool:
        if (self.h_second.values @ v % self.q != self.s_second.values).any():
            return False
        return vector_weight(FqVector(self.q, v % self.q), self.wf) == self.weight


@dataclass(eq=False)
class CmsdEnumeration:
    solutions: list
    observed_z: int


def enumerate_f(desc: CmsdDescription) -> CmsdEnumeration:
    """All values of f that satisfy the solution predicate, with distinct count."""
    sols = []
    seen = set()
    for i in range(desc.y):
        v = desc.evaluate(i)
        if desc.is_solution(v):
            sols.append(v)
            seen.add(v.tobytes())
    return CmsdEnumeration(solutions=sols, observed_z=len(seen))


# -- block layout helpers ---------------------------------------------------


def _split_lengths(total: int, nblocks: int) -> list[int]:
    base, extra = divmod(total, nblocks)
    return [base + (1 if i < extra else 0) for i in range(nblocks)]


def _split_weight(w_scaled: int, nblocks: int) -> list[int]:
    cuts = [w_scaled * i // nblocks for i in range(nblocks + 1)]
    return [cuts[i + 1] - cuts[i] for i in range(nblocks)]


def _make_blocks(wf: WeightFunction, lengths: list[int], weights: list[int]) -> list[_Block]:
    blocks = []
    off = 0
    for ln, w in zip(lengths, weights):
        enum = SphereEnumerator(wf, ln, Fraction(w, wf.denominator))
        if enum.count == 0:
            raise CmsdInfeasibleError(
                f"no vectors of scaled weight {w} on a block of length {ln}"
            )
        blocks.append(_Block(off, ln, w, enum))
        off += ln
    return blocks


def _leaf_list(
    h2: np.ndarray,
    q: int,
    block: _Block,
    cap: int,
    rng: random.Random | None = None,
    size_limit: int | None = None,
) -> _Node:
    cnt = block.enum.count
    if size_limit is not None and cnt > size_limit:
        if rng is None:
            raise ValueError("subsampling a base list requires an rng")
        ranks = sorted(_sample_ranks(cnt, size_limit, rng))
    else:
        if cnt > cap:
            raise MergeOverflowError(f"base list of size {cnt} exceeds cap {cap}")
        ranks = list(range(cnt))
    vecs = (
        np.stack([block.enum.unrank(r) for r in ranks])
        if size_limit is not None and cnt > size_limit
        else block.enum.all_vectors()
    )
    sub = h2[:, block.offset : block.offset + block.length]
    syn = (vecs @ sub.T) % q
    lst = IndexedList(q, syn, ranks)
    return _Node(lst=lst, sup=(block.offset, block.offset + block.length), block=block)


def _sample_ranks(count: int, k: int, rng: random.Random) -> list[int]:
    if count < 2**63:
        return rng.sample(range(count), k)
    picked: set[int] = set()
    while len(picked) < k:
        picked.add(rng.randrange(count))
    return list(picked)


def _j_partition(
    wf: WeightFunction, n_support: int, ell: int, p_scaled: int, a: int, branch_count: int
) -> list[list[int]]:
    """Consecutive coordinate groups J_1..J_a over the ell syndrome coords.

    The first a-1 groups take round(N*u) coordinates each, following the
    list-size balancing rule with u = min(s(omega0)/branches, m0/a); the
    last group absorbs the remainder.
    """
    if a == 1 or ell == 0 or n_support == 0:
        sizes = [0] * (a - 1) + [ell]
    else:
        omega0 = (p_scaled / wf.denominator) / n_support
        s0 = float(sphere_exponent_many(wf, [omega0])[0])
        m0 = ell / n_support
        u = min(s0 / branch_count, m0 / a)
        sizes = []
        used = 0
        for _ in range(a - 1):
            sz = max(0, min(int(round(n_support * u)), ell - used))
            sizes.append(sz)
            used += sz
        sizes.append(ell - used)
    groups = []
    at = 0
    for sz in sizes:
        groups.append(list(range(at, at + sz)))
        at += sz
    return groups


def _draw_targets(
    s2: np.ndarray, j_groups: list[list[int]], a: int, q: int, rng: random.Random
) -> list[list[np.ndarray]]:
    """Level targets t_j^i with sum_i t_j^i = s'' on J_j (last one fixed)."""
    ell = s2.shape[0]
    targets: list[list[np.ndarray]] = [[]]  # 1-based level index
    for j in range(1, a + 1):
        J = j_groups[j - 1]
        n_merges = 1 << (a - j)
        level = []
        acc = np.zeros(ell, dtype=np.int64)
        for _ in range(n_merges - 1):
            t = np.zeros(ell, dtype=np.int64)
            for c in J:
                t[c] = rng.randrange(q)
            acc = (acc + t) % q
            level.append(t)
        last = np.zeros(ell, dtype=np.int64)
        for c in J:
            last[c] = (s2[c] - acc[c]) % q
        level.append(last)
        targets.append(level)
    return targets


def _expected_solutions(base_sizes: list[int], j_groups: list[list[int]], q: int) -> float:
    """Average-case count of entries surviving the whole merge tree."""
    a = len(j_groups)
    log_num = sum(math.log(max(s, 1)) for s in base_sizes)
    constrained = sum((1 << (a - j)) * len(j_groups[j - 1]) for j in range(1, a + 1))
    return math.exp(min(log_num - constrained * math.log(q), 700.0))


# -- back ends ---------------------------------------------------------------


def cmsd_prange(
    h_second: FqMatrix, s_second: FqVector, p=0, wf: WeightFunction | None = None
) -> CmsdDescription:
    """Trivial description: the zero candidate (requires ell = 0 and p = 0)."""
    if h_second.rows != 0 or len(s_second) != 0:
        raise ValueError("prange back end requires an empty bottom block (ell = 0)")
    if Fraction(p) != 0:
        raise ValueError("prange back end requires weight budget p = 0")
    k = h_second.cols
    zero = np.zeros(k, dtype=np.int64)

    return CmsdDescription(
        q=h_second.q,
        length=k,
        m=0,
        weight=Fraction(0),
        y=1,
        h_second=h_second,
        s_second=s_second,
        wf=wf if wf is not None else WeightFunction.hamming(h_second.q),
        meta={"variant": "prange", "expected_solutions": 1.0},
        _eval=lambda i: zero.copy(),
    )


def _build_two_list(
    h_second: FqMatrix,
    s_second: FqVector,
    wf: WeightFunction,
    p,
    cap: int,
    rng: random.Random | None = None,
    base_list_size: int | None = None,
) -> CmsdDescription:
    """One merge over two support halves, all weight splits enumerated.

    Enumerating every split (w1, p - w1) makes the image of f exactly the
    full solution set of the subproblem; the number of splits is linear in
    the rescaled weight, so the asymptotics are unchanged.
    """
    q = h_second.q
    ell, n = h_second.rows, h_second.cols
    p_frac = _to_weight(p)
    p_scaled = wf.scaled(p_frac)
    h2 = h_second.values
    s2 = s_second.values
    J = tuple(range(ell))
    chunks = []  # (merged_list, left_node, right_node)
    total = 0
    pair_products = 0.0
    if p_scaled is not None and p_scaled >= 0:
        len1, len2 = _split_lengths(n, 2)
        for w1 in range(p_scaled + 1):
            w2 = p_scaled - w1
            try:
                blocks = _make_blocks(wf, [len1, len2], [w1, w2])
            except CmsdInfeasibleError:
                continue
            left = _leaf_list(h2, q, blocks[0], cap, rng, base_list_size)
            right = _leaf_list(h2, q, blocks[1], cap, rng, base_list_size)
            pair_products += float(len(left.lst)) * float(len(right.lst))
            merged = merge(left.lst, right.lst, J, s2, cap)
            if len(merged):
                chunks.append((merged, left, right))
                total += len(merged)
                if total > cap:
                    raise MergeOverflowError(f"merged output exceeds cap {cap}")
    offsets = np.cumsum([0] + [len(c[0]) for c in chunks])
    zero = np.zeros(n, dtype=np.int64)

    def evaluate(i: int) -> np.ndarray:
        if total == 0:
            return zero.copy()
        c = int(np.searchsorted(offsets, i, side="right")) - 1
        merged, left, right = chunks[c]
        pos = i - int(offsets[c])
        out = np.zeros(n, dtype=np.int64)
        li, ri = merged.backrefs[pos]
        left.resolve(li, out)
        right.resolve(ri, out)
        return out

    # merged entries are exactly the solutions here, so the realized total
    # is the best prediction; fall back to the average-case ratio if empty
    expected = float(total) if total else pair_products / float(q) ** ell
    return CmsdDescription(
        q=q,
        length=n,
        m=ell,
        weight=p_frac,
        y=max(total, 1),
        h_second=h_second,
        s_second=s_second,
        wf=wf,
        meta={
            "variant": "dumer",
            "splits": len(chunks),
            "expected_solutions": max(expected, 1e-300),
        },
        _eval=evaluate,
    )


def cmsd_dumer(
    h_second: FqMatrix,
    s_second: FqVector,
    wf: WeightFunction,
    p,
    list_size_cap: int = DEFAULT_LIST_CAP,
) -> CmsdDescription:
    """Single-level birthday construction over two support halves."""
    return _build_two_list(h_second, s_second, wf, p, list_size_cap)


def _to_weight(p) -> Fraction:
    f = p if isinstance(p, Fraction) else Fraction(p)
    if f < 0:
        raise ValueError("weight budget must be nonnegative")
    return f


def cmsd_wagner_v1(
    h_second: FqMatrix,
    s_second: FqVector,
    wf: WeightFunction,
    p,
    a: int,
    list_size_cap: int = DEFAULT_LIST_CAP,
    rng: random.Random | None = None,
    base_list_size: int | None = None,
) -> CmsdDescription:
    """Level-wise pairwise merging over 2^a balanced support blocks.

    With a = 1 this is the same construction as cmsd_dumer.  For a >= 2
    each block carries a fixed balanced share of the weight budget and the
    intermediate merges use fresh random targets that telescope to s''.
    base_list_size, when given, subsamples every base list to that size
    (uniformly, without replacement), matching the asymptotic sizing rule.
    """
    if a < 1:
        raise ValueError("level count a must be >= 1")
    if a == 1:
        return _build_two_list(
            h_second, s_second, wf, p, list_size_cap, rng, base_list_size
        )
    if rng is None:
        rng = random.Random(0)
    q = h_second.q
    ell, n = h_second.rows, h_second.cols
    p_frac = _to_weight(p)
    p_scaled = wf.scaled(p_frac)
    if p_scaled is None:
        raise CmsdInfeasibleError(f"weight {p_frac} is not a multiple of the table unit")
    nb = 1 << a
    blocks = _make_blocks(wf, _split_lengths(n, nb), _split_weight(p_scaled, nb))
    j_groups = _j_partition(wf, n, ell, p_scaled, a, branch_count=nb)
    targets = _draw_targets(s_second.values, j_groups, a, q, rng)
    h2 = h_second.values
    leaves = [
        _leaf_list(h2, q, b, list_size_cap, rng, base_list_size) for b in blocks
    ]
    base_sizes = [len(nd.lst) for nd in leaves]

    nodes = leaves
    level_sizes = [base_sizes]
    for j in range(1, a + 1):
        J = tuple(j_groups[j - 1])
        nxt = []
        for i in range(0, len(nodes), 2):
            lhs, rhs = nodes[i], nodes[i + 1]
            merged = merge(lhs.lst, rhs.lst, J, targets[j][i // 2], list_size_cap)
            nxt.append(
                _Node(lst=merged, sup=(lhs.sup[0], rhs.sup[1]), children=(lhs, rhs))
            )
        nodes = nxt
        level_sizes.append([len(nd.lst) for nd in nodes])
    root = nodes[0]
    total = len(root.lst)
    zero = np.zeros(n, dtype=np.int64)

    def evaluate(i: int) -> np.ndarray:
        if total == 0:
            return zero.copy()
        out = np.zeros(n, dtype=np.int64)
        root.resolve(i, out)
        return out

    return CmsdDescription(
        q=q,
        length=n,
        m=ell,
        weight=p_frac,
        y=max(total, 1),
        h_second=h_second,
        s_second=s_second,
        wf=wf,
        meta={
            "variant": "wagner1",
            "levels": a,
            "j_sizes": [len(g) for g in j_groups],
            "level_sizes": level_sizes,
            "expected_solutions": max(
                _expected_solutions(base_sizes, j_groups, q), 1e-300
            ),
        },
        _eval=evaluate,
    )


def cmsd_wagner_v2_build(
    h_second: FqMatrix,
    s_second: FqVector,
    wf: WeightFunction,
    p,
    a: int,
    list_size_cap: int = DEFAULT_LIST_CAP,
    rng: random.Random | None = None,
) -> CmsdDescription:
    """Checkable-function construction over 2^a + 1 balanced support units.

    The rightmost list (two units wide, double weight share) is only
    described: evaluate(k) unranks its k-th element and then walks the
    sorted left-hand lists level by level, choosing at each level the
    first matching partner (ties resolved by the lexicographic order of
    the resolved candidate block), returning the assembled candidate or
    the zero vector when some level has no partner.
    """
    if a < 1:
        raise ValueError("level count a must be >= 1")
    if rng is None:
        rng = random.Random(0)
    q = h_second.q
    ell, n = h_second.rows, h_second.cols
    p_frac = _to_weight(p)
    p_scaled = wf.scaled(p_frac)
    if p_scaled is None:
        raise CmsdInfeasibleError(f"weight {p_frac} is not a multiple of the table unit")
    units = (1 << a) + 1
    lengths = _split_lengths(n, units)
    wsplit = _split_weight(p_scaled, units)
    # leaves 0..2^a-1; the last leaf spans the final two units
    leaf_lengths = lengths[: units - 2] + [lengths[-2] + lengths[-1]]
    leaf_weights = wsplit[: units - 2] + [wsplit[-2] + wsplit[-1]]
    blocks = _make_blocks(wf, leaf_lengths, leaf_weights)
    last = blocks[-1]
    j_groups = _j_partition(wf, n, ell, p_scaled, a, branch_count=units)
    targets = _draw_targets(s_second.values, j_groups, a, q, rng)
    h2 = h_second.values

    materialized = [
        _leaf_list(h2, q, b, list_size_cap) for b in blocks[:-1]
    ]

    def build(lo: int, size: int) -> _Node:
        if size == 1:
            return materialized[lo]
        half = size // 2
        lhs = build(lo, half)
        rhs = build(lo + half, half)
        level = size.bit_length() - 1
        t = targets[level][lo // size]
        merged = merge(
            lhs.lst, rhs.lst, tuple(j_groups[level - 1]), t, list_size_cap
        )
        return _Node(lst=merged, sup=(lhs.sup[0], rhs.sup[1]), children=(lhs, rhs))

    # S_j = fully merged left sibling of the lazy chain at level j, its list
    # sorted on J_j (backrefs still point into the unsorted child lists)
    side: list[_Node] = []
    nb = 1 << a
    for j in range(1, a + 1):
        node = build(nb - (1 << j), 1 << (j - 1))
        side.append(replace(node, lst=node.lst.sort_on(tuple(j_groups[j - 1]))))

    cnt = last.enum.count
    if cnt > list_size_cap:
        ranks = sorted(_sample_ranks(cnt, list_size_cap, rng))
        y = list_size_cap
    else:
        ranks = None
        y = cnt
    sub_last = h2[:, last.offset : last.offset + last.length]
    s2 = s_second.values
    zero = np.zeros(n, dtype=np.int64)
    chain_targets = [targets[j][(1 << (a - j)) - 1] for j in range(1, a + 1)]

    def evaluate(kidx: int) -> np.ndarray:
        r = ranks[kidx] if ranks is not None else kidx
        b_last = last.enum.unrank(r)
        acc = (sub_last @ b_last) % q
        picks: list[int] = []
        scratch = np.zeros(n, dtype=np.int64)
        for j in range(1, a + 1):
            J = j_groups[j - 1]
            need = (chain_targets[j - 1][J] - acc[J]) % q
            key = _encode_keys(need[None, :], q)[0]
            node = side[j - 1]
            lo_i, hi_i = node.lst.match_range(key)
            if lo_i == hi_i:
                return zero.copy()
            best_pos, best_key = -1, None
            for pos in range(lo_i, hi_i):
                scratch[node.sup[0] : node.sup[1]] = 0
                node.resolve(pos, scratch)
                cand = tuple(int(x) for x in scratch[node.sup[0] : node.sup[1]])
                if best_key is None or cand < best_key:
                    best_key, best_pos = cand, pos
            picks.append(best_pos)
            acc = (acc + node.lst.syndromes[best_pos]) % q
        if (acc != s2).any():  # targets telescope to s''; this must hold
            return zero.copy()
        out = np.zeros(n, dtype=np.int64)
        out[last.offset : last.offset + last.length] = b_last
        for node, pos in zip(side, picks):
            node.resolve(pos, out)
        return out

    base_sizes = [len(nd.lst) for nd in materialized] + [y]
    return CmsdDescription(
        q=q,
        length=n,
        m=ell,
        weight=p_frac,
        y=max(y, 1),
        h_second=h_second,
        s_second=s_second,
        wf=wf,
        meta={
            "variant": "wagner2",
            "levels": a,
            "j_sizes": [len(g) for g in j_groups],
            "side_sizes": [len(nd.lst) for nd in materialized],
            "expected_solutions": max(
                _expected_solutions(base_sizes, j_groups, q), 1e-300
            ),
        },
        _eval=evaluate,
    )

