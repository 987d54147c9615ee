"""Back ends for the small decoding subproblem inside the outer ISD loop.

Given the bottom block (H'', s'') produced by partial Gaussian elimination
as int64 arrays, each builder returns a compact description of a function
f over a domain of Y indices whose nonzero values are vectors e'' with
H'' e'' = s'' and weight exactly p.  Every builder takes
(H'', s'', wf, p, ...) and reads its inputs through np.asarray, so the
FqMatrix and FqVector boundary types work as inputs too.  The outer loop
evaluates f on blocks of indices and tests each candidate against the
remaining weight budget.

Back ends:
  * prange: the trivial description (p = 0, no bottom block).
  * wagner_v1: a k-tree of pairwise list merges over 2^a support blocks of
    fixed balanced per-block weight, with random intermediate targets that
    telescope to s''.  dumer is wagner_v1 at a = 1: one birthday split into
    two support halves, enumerating every left/right weight split so the
    image covers all solutions.
  * wagner_v2_build: the checkable-function variant; the quadratically
    larger rightmost list is never merged.  f(k) reads the k-th element of
    the last base list (from the shared sphere array when the sphere fits
    the cap, else by unranking a sampled rank) and then looks up, level by
    level, its partner in a per-key table built once from the materialized
    left-hand lists.

One builder body (_build_tree) serves dumer and wagner_v1, and one
level-wise merge tree (_merge_levels) serves it and the materialized
leaves of wagner_v2_build.  Its leaves keep their vectors, so a batch of
indices resolves to candidate rows by index gathering.  Neither a leaf
sphere, the block layout nor the J partition depends on H: they are one
cached plan per back-end signature (_plan), each sphere is built once per
(table, length, weight), and only the leaf syndromes, the targets and the
merges are computed per build.  Support blocks and per-block weight
budgets are balanced to within one unit (deterministic left-to-right)
when exact divisibility fails.  Weights are tracked in integer-rescaled
units throughout.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .fieldlin import _integer_array
from .merge import DEFAULT_LIST_CAP, IndexedList, MergeOverflowError, _encode_keys, merge
from .weights import (
    SphereEnumerator,
    WeightFunction,
    _to_fraction,
    sphere_exponent_many,
    vector_weight,  # unused here; bench/tracer.py wraps cmsd.vector_weight by name
)


class CmsdInfeasibleError(ValueError):
    """A support block cannot carry its assigned weight (empty base sphere)."""


@dataclass(frozen=True, eq=False)
class _Block:
    offset: int
    length: int
    enum: SphereEnumerator


@dataclass(eq=False)
class _Node:
    """Merge-tree node over support columns sup; leaves hold their vectors."""

    lst: IndexedList
    sup: tuple[int, int]
    vecs: np.ndarray | None = None
    children: tuple["_Node", "_Node"] | None = None

    def gather(self, pos: np.ndarray) -> np.ndarray:
        """(len(pos), width) support parts of the entries at positions pos."""
        refs = self.lst.backrefs[pos]
        if self.children is None:
            return self.vecs[refs]
        lhs, rhs = self.children
        return np.concatenate([lhs.gather(refs[:, 0]), rhs.gather(refs[:, 1])], axis=1)


@dataclass(eq=False)
class CmsdDescription:
    """Evaluable function f over [y) plus the data needed to compute it.

    evaluate_many(idx) returns one candidate row of the stated length per
    index, the zero vector where an index resolves to no solution;
    evaluate(i) is its one-index view.  Every nonzero value satisfies the
    syndrome and weight constraints by construction.  A domain is never
    empty: y is at least 1.
    """

    weight: Fraction
    y: int
    h_second: np.ndarray
    s_second: np.ndarray
    wf: WeightFunction
    meta: dict
    _eval: object = field(repr=False)  # int64 index array -> candidate rows

    def __post_init__(self):
        self.y = max(self.y, 1)

    @property
    def q(self) -> int:
        return self.wf.q

    def evaluate_many(self, idx) -> np.ndarray:
        idx = np.asarray(_integer_array(idx), dtype=np.int64)
        bad = idx[(idx < 0) | (idx >= self.y)]
        if bad.size:
            raise IndexError(f"index {bad[0]} outside [0, {self.y})")
        return self._eval(idx)

    def evaluate(self, i: int) -> np.ndarray:
        return self.evaluate_many([i])[0]

    def is_solution(self, v: np.ndarray) -> np.ndarray:
        """Per row of v (or for the one vector v): H'' v = s'' and weight exactly p."""
        v = v % self.q
        syn_ok = ((v @ self.h_second.T) % self.q == self.s_second).all(axis=-1)
        weights = self.wf.int_table_array()[v].sum(axis=-1)
        return syn_ok & (weights == self.wf.scaled(self.weight))


# -- block layout helpers ---------------------------------------------------


def _split_lengths(total: int, nblocks: int) -> list[int]:
    base, extra = divmod(total, nblocks)
    return [base + (1 if i < extra else 0) for i in range(nblocks)]


def _split_weight(w_scaled: int, nblocks: int) -> list[int]:
    cuts = [w_scaled * i // nblocks for i in range(nblocks + 1)]
    return [cuts[i + 1] - cuts[i] for i in range(nblocks)]


@lru_cache(maxsize=128)
def _plan(
    wf: WeightFunction, n: int, ell: int, p_scaled: int, a: int, lazy_last: bool
) -> tuple[tuple[tuple[_Block, ...], ...], tuple[np.ndarray, ...]]:
    """The part of a build that does not depend on H: (layouts, J groups).

    Each layout is a tuple of consecutive support blocks with their scaled
    weights.  wagner1 lays out 2^a balanced blocks; at a = 1 (dumer) there
    is one layout per weight split (w1, p - w1) that both halves can carry.
    With lazy_last (wagner2) the support is split into 2^a + 1 balanced
    units and the last two are joined into the one lazy leaf.  A balanced
    layout with a block that cannot carry its weight raises
    CmsdInfeasibleError (lru_cache stores no exception, so every call
    raises).

    The J groups J_1..J_a are consecutive, read-only int arrays over the
    ell syndrome coordinates.  The first a-1 take round(n*u) coordinates
    each, following the list-size balancing rule with
    u = min(s(omega0)/branches, m0/a); the last absorbs the remainder.
    """
    units = (1 << a) + lazy_last
    lengths = _split_lengths(n, units)
    each_split = a == 1 and not lazy_last
    if each_split:
        splits = [[w1, p_scaled - w1] for w1 in range(p_scaled + 1)]
    else:
        splits = [_split_weight(p_scaled, units)]
    if lazy_last:
        lengths[-2:] = [lengths[-2] + lengths[-1]]
        splits[0][-2:] = [splits[0][-2] + splits[0][-1]]
    offsets = np.cumsum([0] + lengths).tolist()
    layouts = []
    for weights in splits:
        blocks = tuple(
            _Block(off, ln, SphereEnumerator(wf, ln, Fraction(w, wf.denominator)))
            for off, ln, w in zip(offsets, lengths, weights)
        )
        empty = [b for b in blocks if b.enum.count == 0]
        if not empty:
            layouts.append(blocks)
        elif not each_split:
            raise CmsdInfeasibleError(
                f"no vectors of scaled weight {empty[0].enum.w_scaled}"
                f" on a block of length {empty[0].length}"
            )

    if a == 1 or ell == 0 or n == 0:
        sizes = [0] * (a - 1) + [ell]
    else:
        omega0 = (p_scaled / wf.denominator) / n
        s0 = float(sphere_exponent_many(wf, [omega0])[0])
        u = min(s0 / units, (ell / n) / a)
        sizes = []
        for _ in range(a - 1):
            sizes.append(max(0, min(int(round(n * u)), ell - sum(sizes))))
        sizes.append(ell - sum(sizes))
    coords = np.arange(ell)
    coords.setflags(write=False)  # the groups are views of it, read-only too
    return tuple(layouts), tuple(np.split(coords, np.cumsum(sizes)[:-1]))


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
        vecs = block.enum.unrank_many(np.asarray(sorted(_sample_ranks(cnt, size_limit, rng))))
    else:
        if cnt > cap:
            raise MergeOverflowError(f"base list of size {cnt} exceeds cap {cap}")
        vecs = block.enum.all_vectors()
    sup = (block.offset, block.offset + block.length)
    syn = (vecs @ h2[:, sup[0] : sup[1]].T) % q
    return _Node(IndexedList(q, syn, np.arange(len(vecs))), sup, vecs=vecs)


def _sample_ranks(count: int, k: int, rng: random.Random) -> list[int]:
    if count < 2**63:
        return rng.sample(range(count), k)
    picked: set[int] = set()
    while len(picked) < k:
        picked.add(rng.randrange(count))
    return list(picked)


def _draw_targets(
    s2: np.ndarray, j_groups: tuple[np.ndarray, ...], a: int, q: int, rng: random.Random
) -> list[list[np.ndarray]]:
    """Level targets t_j^i with sum_i t_j^i = s'' on J_j (last one fixed)."""
    targets: list[list[np.ndarray]] = [[]]  # 1-based level index
    for j, J in enumerate(j_groups, 1):
        level = [np.zeros(len(s2), dtype=np.int64) for _ in range(1 << (a - j))]
        for t in level[:-1]:
            t[J] = [rng.randrange(q) for _ in J]
        level[-1][J] = (s2[J] - sum(t[J] for t in level[:-1])) % q
        targets.append(level)
    return targets


def _gather_chunks(chunks: list[_Node], n: int):
    """Evaluator over the concatenated root lists of merge trees spanning [0, n)."""
    offsets = np.cumsum([0] + [len(nd.lst) for nd in chunks])

    def evaluate(idx: np.ndarray) -> np.ndarray:
        out = np.zeros((len(idx), n), dtype=np.int64)
        c = np.searchsorted(offsets, idx, side="right") - 1
        for k in np.unique(c[idx < offsets[-1]]):
            sel = c == k
            out[sel] = chunks[k].gather(idx[sel] - offsets[k])
        return out

    return evaluate


@dataclass(frozen=True, eq=False)
class _Partners:
    """One side list reduced to its chosen partner per J-key (keys ascending)."""

    keys: np.ndarray
    syn: np.ndarray
    part: np.ndarray  # support parts, columns sup[0]..sup[1]
    sup: tuple[int, int]


def _partner_table(node: _Node, J: np.ndarray, q: int) -> _Partners:
    """Per J-key, the entry with the lexicographically smallest support part.

    Ties go to the earlier entry.  Equal support parts have equal
    syndromes, so this is also the first of them in the list sorted on J.
    """
    syn = node.lst.syndromes
    part = node.gather(np.arange(len(syn)))
    order = np.lexsort(
        [np.arange(len(syn))]
        + [part[:, c] for c in reversed(range(part.shape[1]))]
        + [syn[:, c] for c in reversed(J)]
    )
    keys, first = np.unique(_encode_keys(syn[order][:, J], q), return_index=True)
    pick = order[first]
    return _Partners(keys, syn[pick], part[pick], node.sup)


def _tree_meta(
    variant: str,
    levels: list[list[_Node]],
    j_groups: tuple[np.ndarray, ...],
    base_sizes: list[int],
    q: int,
) -> dict:
    """Level and list sizes of a merge tree and its average-case output size.

    base_sizes also counts a list that is described but not materialized.
    """
    a = len(j_groups)
    log_num = sum(math.log(max(s, 1)) for s in base_sizes)
    constrained = sum((1 << (a - j)) * len(J) for j, J in enumerate(j_groups, 1))
    expected = math.exp(min(log_num - constrained * math.log(q), 700.0))
    return {
        "variant": variant,
        "levels": a,
        "j_sizes": [len(g) for g in j_groups],
        "level_sizes": [[len(nd.lst) for nd in lvl] for lvl in levels],
        "expected_solutions": max(expected, 1e-300),
    }


# -- back ends ---------------------------------------------------------------


def _merge_levels(
    nodes: list[_Node],
    j_groups: tuple[np.ndarray, ...],
    targets: list[list[np.ndarray]],
    cap: int,
) -> list[list[_Node]]:
    """Wagner's k-tree, level by level; the one place that calls merge.

    levels[0] is nodes.  Level j merges adjacent pairs of level j-1 on J_j,
    pair i against targets[j][i]; an odd last node stays unmerged.
    """
    levels = [nodes]
    for j, J in enumerate(j_groups, 1):
        prev, nxt = levels[-1], []
        for i in range(len(prev) // 2):
            lhs, rhs = prev[2 * i], prev[2 * i + 1]
            merged = merge(lhs.lst, rhs.lst, J, targets[j][i], cap)
            nxt.append(_Node(merged, (lhs.sup[0], rhs.sup[1]), children=(lhs, rhs)))
        levels.append(nxt)
    return levels


def _budget(wf: WeightFunction, p) -> tuple[Fraction, int]:
    """The weight budget p and its scaled value, which must be a table multiple."""
    p_frac = _to_fraction(p)
    if p_frac < 0:
        raise ValueError("weight budget must be nonnegative")
    p_scaled = wf.scaled(p_frac)
    if p_scaled is None:
        raise CmsdInfeasibleError(
            f"weight budget p={p_frac} is not a multiple of the table unit 1/{wf.denominator}"
        )
    return p_frac, p_scaled


def cmsd_prange(
    h_second: np.ndarray, s_second: np.ndarray, wf: WeightFunction, p
) -> CmsdDescription:
    """Trivial description: the zero candidate (requires ell = 0 and p = 0)."""
    h2, s2 = np.asarray(h_second), np.asarray(s_second)
    ell, k = h2.shape
    if ell != 0 or len(s2) != 0:
        raise ValueError("prange back end requires an empty bottom block (ell = 0)")
    if _to_fraction(p) != 0:
        raise ValueError("prange back end requires weight budget p = 0")
    return CmsdDescription(
        weight=Fraction(0),
        y=1,
        h_second=h2,
        s_second=s2,
        wf=wf,
        meta={"variant": "prange", "expected_solutions": 1.0},
        _eval=lambda idx: np.zeros((len(idx), k), dtype=np.int64),
    )


def _build_tree(h_second, s_second, wf, p, a, cap, rng, base_list_size) -> CmsdDescription:
    """Wagner's k-tree over 2^a support blocks; dumer is the case a = 1.

    At a = 1 one tree is built per weight split (w1, p - w1), skipping the
    splits a half cannot carry, so the image of f is exactly the solution
    set of the subproblem; the number of splits is linear in the rescaled
    weight, so the asymptotics are unchanged.  At a >= 2 the one balanced
    split is built, and an infeasible block raises.
    """
    h2, s2 = np.asarray(h_second), np.asarray(s_second)
    q = wf.q
    ell, n = h2.shape
    p_frac, p_scaled = _budget(wf, p)
    layouts, j_groups = _plan(wf, n, ell, p_scaled, a, False)
    targets = _draw_targets(s2, j_groups, a, q, rng)  # at a = 1 the one target is s''
    trees = []
    total = 0
    for blocks in layouts:
        leaves = [_leaf_list(h2, q, b, cap, rng, base_list_size) for b in blocks]
        trees.append(_merge_levels(leaves, j_groups, targets, cap))
        total += len(trees[-1][a][0].lst)
        if total > cap:
            raise MergeOverflowError(f"merged output exceeds cap {cap}")
    chunks = [lv[a][0] for lv in trees if len(lv[a][0].lst)]  # every nonempty root

    if a > 1:
        (levels,) = trees
        meta = _tree_meta("wagner1", levels, j_groups, [len(nd.lst) for nd in levels[0]], q)
    else:
        # merged entries are exactly the solutions here, so the realized total
        # is the best prediction; fall back to the average-case ratio if empty
        pairs = sum(float(len(lv[0][0].lst)) * float(len(lv[0][1].lst)) for lv in trees)
        expected = float(total) if total else pairs / float(q) ** ell
        meta = dict(variant="dumer", splits=len(chunks), expected_solutions=max(expected, 1e-300))
    return CmsdDescription(
        weight=p_frac,
        y=total,
        h_second=h2,
        s_second=s2,
        wf=wf,
        meta=meta,
        _eval=_gather_chunks(chunks, n),
    )


def cmsd_dumer(
    h_second: np.ndarray,
    s_second: np.ndarray,
    wf: WeightFunction,
    p,
    list_size_cap: int = DEFAULT_LIST_CAP,
) -> CmsdDescription:
    """Single-level birthday construction over two support halves: wagner_v1 at a = 1."""
    return _build_tree(h_second, s_second, wf, p, 1, list_size_cap, None, None)


def cmsd_wagner_v1(
    h_second: np.ndarray,
    s_second: np.ndarray,
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
    (uniformly, without replacement, drawing from rng, default Random(0)),
    matching the asymptotic sizing rule.
    """
    if a < 1:
        raise ValueError("level count a must be >= 1")
    if rng is None:
        rng = random.Random(0)
    return _build_tree(h_second, s_second, wf, p, a, list_size_cap, rng, base_list_size)


def cmsd_wagner_v2_build(
    h_second: np.ndarray,
    s_second: np.ndarray,
    wf: WeightFunction,
    p,
    a: int,
    list_size_cap: int = DEFAULT_LIST_CAP,
    rng: random.Random | None = None,
) -> CmsdDescription:
    """Checkable-function construction over 2^a + 1 balanced support units.

    The rightmost list (two units wide, double weight share) is only
    described: f(k) takes its k-th element (a row of the shared sphere
    array when the sphere fits the cap, else the k-th sampled rank
    unranked) and then, level by level, takes from the fully merged left
    sibling the matching partner with the lexicographically smallest
    support part (the first one on ties), returning the assembled
    candidate or the zero vector when some level has no partner.  The
    partner per key is tabled once per build, so a batch of indices costs
    one lookup per level.
    """
    if a < 1:
        raise ValueError("level count a must be >= 1")
    if rng is None:
        rng = random.Random(0)
    h2, s2 = np.asarray(h_second), np.asarray(s_second)
    q = wf.q
    ell, n = h2.shape
    p_frac, p_scaled = _budget(wf, p)
    (blocks,), j_groups = _plan(wf, n, ell, p_scaled, a, True)
    last = blocks[-1]
    targets = _draw_targets(s2, j_groups, a, q, rng)

    materialized = [_leaf_list(h2, q, b, list_size_cap) for b in blocks[:-1]]
    levels = _merge_levels(materialized, j_groups, targets, list_size_cap)
    # S_j, the fully merged left sibling of the lazy chain at level j, is the
    # odd node that level j - 1 leaves unmerged
    partners = [
        _partner_table(levels[j - 1][-1], j_groups[j - 1], q) for j in range(1, a + 1)
    ]

    cnt = last.enum.count
    if cnt > list_size_cap:
        ranks = np.asarray(sorted(_sample_ranks(cnt, list_size_cap, rng)))
        y = list_size_cap
    else:
        ranks = None
        y = cnt
    sub_last = h2[:, last.offset : last.offset + last.length]
    chain_targets = [targets[j][(1 << (a - j)) - 1] for j in range(1, a + 1)]
    every_side_populated = all(len(pt.keys) for pt in partners)

    def evaluate(idx: np.ndarray) -> np.ndarray:
        out = np.zeros((len(idx), n), dtype=np.int64)
        if not every_side_populated:
            return out
        if ranks is None:
            tail = last.enum.all_vectors()[idx]
        else:
            tail = last.enum.unrank_many(ranks[idx])
        out[:, last.offset : last.offset + last.length] = tail
        acc = (tail @ sub_last.T) % q
        ok = np.ones(len(idx), dtype=bool)
        for pt, J, t in zip(partners, j_groups, chain_targets):
            keys = _encode_keys((t[J] - acc[:, J]) % q, q)
            u = np.minimum(np.searchsorted(pt.keys, keys), len(pt.keys) - 1)
            ok &= pt.keys[u] == keys
            acc = (acc + pt.syn[u]) % q
            out[:, pt.sup[0] : pt.sup[1]] = pt.part[u]
        ok &= (acc == s2).all(axis=1)  # targets telescope to s''; this must hold
        out[~ok] = 0
        return out

    return CmsdDescription(
        weight=p_frac,
        y=y,
        h_second=h2,
        s_second=s2,
        wf=wf,
        meta=_tree_meta(
            "wagner2", levels, j_groups, [len(nd.lst) for nd in materialized] + [y], q
        ),
        _eval=evaluate,
    )
