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
sphere, the block layout, the J partition nor the random draws depend on
H: they are one cached plan per back-end signature (_plan), each sphere is
built once per (table, length, weight), a build's randomness is drawn by
_Plan.draw, and only the leaf syndromes, the targets and the merges are
computed per build.

Every builder also takes a stack of B bottom blocks, one per outer loop
(h_second of shape (B, ell, n), s_second of shape (B, ell)), and builds
them in one pass: the leaf syndromes of all loops come from one product
per leaf, and every list carries its loop as the most significant sort
key, so each loop gets exactly the lists, and candidates in exactly the
order, that its own build would give.  The description of a stack lists
loop b's candidates at indices starts[b]..starts[b+1]-1.

Support blocks and per-block weight budgets are balanced to within one
unit (deterministic left-to-right) when exact divisibility fails.
Weights are tracked in integer-rescaled units throughout.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from typing import Callable, NamedTuple

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

    @cached_property
    def float_vectors(self) -> np.ndarray:
        """The whole sphere as float64 rows, the operand _product needs."""
        return self.enum.all_vectors().astype(np.float64)


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

    A stack's description has h_second (B, ell, n) and s_second (B, ell)
    and lists loop b at indices starts[b]..starts[b+1]-1, each loop's part
    at least 1 long.  It may end before its last loop: when loop B' would
    overflow list_size_cap, only loops 0..B'-1 are described and overflow
    holds the error loop B' raises (a single build raises it at once).
    """

    weight: Fraction
    y: int
    h_second: np.ndarray
    s_second: np.ndarray
    wf: WeightFunction
    meta: dict
    _eval: object = field(repr=False)  # int64 index array -> candidate rows
    starts: np.ndarray | None = None
    overflow: MergeOverflowError | None = None

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
        """Per row of v (or for the one vector v): H'' v = s'' and weight exactly p.

        For a single build; a stack's loops each have their own H'' and s''.
        """
        v = v % self.q
        syn_ok = ((v @ self.h_second.T) % self.q == self.s_second).all(axis=-1)
        weights = self.wf.int_table_array()[v].sum(axis=-1)
        return syn_ok & (weights == self.wf.scaled(self.weight))


class _Alive:
    """The leading loops of a stack that are still built.

    A loop whose build would overflow a cap ends the stack: a solve that
    reaches it raises, so the loops after it never run.  Loop 0 raises at
    once, since no earlier loop can hit first.
    """

    def __init__(self, loops: int):
        self.loops = loops
        self.error: MergeOverflowError | None = None

    def cut(self, loop: int, error: MergeOverflowError) -> None:
        if loop == 0:
            raise error
        if loop < self.loops:
            self.loops, self.error = loop, error


@dataclass(frozen=True, eq=False)
class LoopDraws:
    """The randomness one build takes from rng, in stream order.

    None of it depends on H, so an outer loop can take it before its
    elimination: the level-target coordinates, the sampled ranks of each
    base list (None where the list is not sampled), and wagner2's sampled
    ranks of the lazy list.
    """

    targets: list[int]
    leaf_ranks: tuple[list[int] | None, ...]
    lazy_ranks: list[int] | None


class LoopPlan(NamedTuple):
    """What an outer loop knows of its back end before any H is seen.

    draw(rng) takes one loop's randomness (a LoopDraws; None for prange);
    rows counts the rows one loop's build holds (base-list entries, and a
    lazy list's sampled ranks); expected is one loop's expected_solutions,
    or None where it depends on H (dumer, and wagner1 at a = 1, count their
    realized output).
    """

    draw: Callable[[random.Random], LoopDraws | None]
    rows: int
    expected: float | None


# -- block layout helpers ---------------------------------------------------


def _split_lengths(total: int, nblocks: int) -> list[int]:
    base, extra = divmod(total, nblocks)
    return [base + (1 if i < extra else 0) for i in range(nblocks)]


def _split_weight(w_scaled: int, nblocks: int) -> list[int]:
    cuts = [w_scaled * i // nblocks for i in range(nblocks + 1)]
    return [cuts[i + 1] - cuts[i] for i in range(nblocks)]


class _Plan(NamedTuple):
    layouts: tuple[tuple[_Block, ...], ...]
    j_groups: tuple[np.ndarray, ...]

    def draw(
        self,
        q: int,
        rng: random.Random | None,
        size_limit: int | None = None,
        lazy_cap: int | None = None,
    ) -> LoopDraws:
        """One build's randomness, in the order the sequential build drew it.

        The targets of level j take |J_j| coordinates for each of its
        first 2^(a-j) - 1 pairs, level by level; then every base list
        larger than size_limit samples size_limit ranks, layout by layout;
        then, with lazy_cap, a lazy last list larger than it samples
        lazy_cap ranks.  A plan that draws nothing accepts rng None.
        """
        a = len(self.j_groups)
        targets = [
            rng.randrange(q)
            for j, J in enumerate(self.j_groups, 1)
            for _ in range((1 << (a - j)) - 1)
            for _ in J
        ]
        leaf_ranks = tuple(
            sorted(_sample_ranks(b.enum.count, size_limit, rng))
            if size_limit is not None and b.enum.count > size_limit
            else None
            for blocks in self.layouts
            for b in blocks
        )
        lazy_ranks = None
        if self.lazy_sampled(lazy_cap):
            lazy_ranks = sorted(_sample_ranks(self.layouts[0][-1].enum.count, lazy_cap, rng))
        return LoopDraws(targets, leaf_ranks, lazy_ranks)

    def lazy_sampled(self, lazy_cap: int | None) -> bool:
        """Whether a build samples lazy_cap ranks of its lazy last list (wagner2).

        It does when the lazy sphere exceeds the cap; otherwise every loop
        reads the one shared sphere array.  Without lazy_cap there is no
        lazy list.
        """
        return lazy_cap is not None and self.layouts[0][-1].enum.count > lazy_cap


@lru_cache(maxsize=128)
def _plan(wf: WeightFunction, n: int, ell: int, p_scaled: int, a: int, lazy_last: bool) -> _Plan:
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
    return _Plan(tuple(layouts), tuple(np.split(coords, np.cumsum(sizes)[:-1])))


def _stack(h_second, s_second) -> tuple[np.ndarray, np.ndarray, bool]:
    """(H'' stack, s'' stack, single): one bottom block becomes a stack of one."""
    h2, s2 = np.asarray(h_second), np.asarray(s_second)
    if h2.ndim not in (2, 3) or s2.shape != h2.shape[:-1]:
        raise ValueError(
            "need h_second (ell, n) and s_second (ell,), or stacks (B, ell, n) and (B, ell)"
        )
    if h2.ndim == 2:
        return h2[None], s2[None], True
    return h2, s2, False


def _loop_draws(plan: _Plan, q: int, loops: int, rng, draws, **limits) -> list[LoopDraws]:
    """The given per-loop draws, or each loop's draws taken from rng in turn."""
    if draws is None:
        return [plan.draw(q, rng, **limits) for _ in range(loops)]
    if len(draws) != loops:
        raise ValueError(f"need one LoopDraws per loop of the stack, got {len(draws)} for {loops}")
    return list(draws)


def _leaf(h2: np.ndarray, q: int, block: _Block, cap: int, ranks=None) -> _Node:
    """The base list of block for every loop of the stack h2, one product in all.

    Without ranks every loop lists the whole sphere (one shared array of
    vectors); with ranks, loop b lists the sampled ranks ranks[b].
    """
    loops, ell, _ = h2.shape
    if ranks is None:
        if block.enum.count > cap:
            raise MergeOverflowError(f"base list of size {block.enum.count} exceeds cap {cap}")
        vecs, operand = block.enum.all_vectors(), block.float_vectors
        per_loop = len(vecs)
    else:
        vecs = operand = block.enum.unrank_many(np.asarray(ranks).ravel())
        per_loop = np.shape(ranks)[1]
    refs = np.arange(loops * per_loop)
    if ranks is None:
        refs %= per_loop
    sup = (block.offset, block.offset + block.length)
    syn = _product(operand.reshape(-1, per_loop, block.length), h2[:, :, sup[0] : sup[1]], q)
    lst = IndexedList(
        q, syn.reshape(loops * per_loop, ell), refs, loop=np.arange(loops).repeat(per_loop)
    )
    return _Node(lst, sup, vecs=vecs)


def _product(v: np.ndarray, h: np.ndarray, q: int) -> np.ndarray:
    """(v @ h^T) mod q over stacked matrices, exactly, as a float64 product.

    With entries below q < 2^16 every sum of products is below
    width * q^2 < 2^53 for any width below 2^21, so float64 holds it
    exactly, and the float product runs through BLAS where int64 does not.
    """
    out = np.matmul(v.astype(np.float64, copy=False), np.swapaxes(h, -1, -2).astype(np.float64))
    return out.astype(np.int64) % q


def _head(lst: IndexedList, loops: int) -> IndexedList:
    """The entries of the first loops loops of a stack."""
    if not len(lst) or lst.loop[-1] < loops:  # the loop ids ascend
        return lst
    end = int(lst.loop.searchsorted(loops))
    return IndexedList(lst.q, lst.syndromes[:end], lst.backrefs[:end], loop=lst.loop[:end])


def _sample_ranks(count: int, k: int, rng: random.Random) -> list[int]:
    if count < 2**63:
        return rng.sample(range(count), k)
    picked: set[int] = set()
    while len(picked) < k:
        picked.add(rng.randrange(count))
    return list(picked)


def _finish_targets(
    s2: np.ndarray, draws: np.ndarray, j_groups: tuple[np.ndarray, ...], q: int
) -> list[list[np.ndarray]]:
    """Level targets t_j^i with sum_i t_j^i = s'' on J_j, from _Plan.draw's coordinates.

    targets[j][i] has the shape of s2 (a leading stack axis carries
    through); the last target of each level is the one fixed by s''.
    """
    a = len(j_groups)
    targets: list[list[np.ndarray]] = [[]]  # 1-based level index
    pos = 0
    for j, J in enumerate(j_groups, 1):
        level = []
        for _ in range((1 << (a - j)) - 1):
            t = np.zeros(s2.shape, dtype=np.int64)
            t[..., J] = draws[..., pos : pos + len(J)]
            pos += len(J)
            level.append(t)
        last = np.zeros(s2.shape, dtype=np.int64)
        last[..., J] = (s2[..., J] - sum(t[..., J] for t in level)) % q
        targets.append(level + [last])
    return targets


def _tree_domain(roots: list[_Node], loops: int, n: int):
    """(starts, evaluator, counts) over the root lists of stacked merge trees.

    Loop b lists its entries of roots[0], then of roots[1], and so on, in
    list order; a loop without entries gets one index, which evaluates to
    the zero row.  counts[b, r] is loop b's number of entries in roots[r].
    Every root lists its loops in order, as its leaves do.
    """
    firsts = np.stack([nd.lst.loop.searchsorted(np.arange(loops + 1)) for nd in roots])
    counts = np.diff(firsts, axis=1).T
    upto = np.cumsum(counts, axis=1)  # upto[b, r]: loop b's entries in roots 0..r
    starts = np.concatenate([[0], np.cumsum(np.maximum(upto[:, -1], 1))])

    def evaluate(idx: np.ndarray) -> np.ndarray:
        out = np.zeros((len(idx), n), dtype=np.int64)
        b = np.searchsorted(starts, idx, side="right") - 1
        off = idx - starts[b]
        which = (off[:, None] >= upto[b]).sum(axis=1)  # len(roots) for an empty loop
        for r in np.unique(which[which < len(roots)]):
            sel = which == r
            bs = b[sel]
            out[sel] = roots[r].gather(firsts[r, bs] + off[sel] - upto[bs, r] + counts[bs, r])
        return out

    return starts, evaluate, counts


@dataclass(frozen=True, eq=False)
class _Partners:
    """One side list reduced to its chosen partner per (loop, J-key), keys ascending."""

    keys: np.ndarray
    syn: np.ndarray
    part: np.ndarray  # support parts, columns sup[0]..sup[1]
    sup: tuple[int, int]


def _partner_table(node: _Node, J: np.ndarray, q: int, loops: int) -> _Partners:
    """Per loop and J-key, the entry with the lexicographically smallest support part.

    Ties go to the earlier entry.  Equal support parts have equal
    syndromes, so this is also the first of them in the list sorted on J.
    Only the first loops loops of the stack are tabled.
    """
    lst = _head(node.lst, loops)
    syn, loop = lst.syndromes, lst.loop
    part = node.gather(np.arange(len(syn)))
    order = np.lexsort(
        [np.arange(len(syn))]
        + [part[:, c] for c in reversed(range(part.shape[1]))]
        + [syn[:, c] for c in reversed(J)]
        + [loop]
    )
    keys, first = np.unique(
        _encode_keys(syn[order][:, J], q, loop[order], loops), return_index=True
    )
    pick = order[first]
    return _Partners(keys, syn[pick], part[pick], node.sup)


def _expected(base_sizes: list[int], j_groups: tuple[np.ndarray, ...], q: int) -> float:
    """One loop's average-case merge-tree output from its base list sizes.

    base_sizes also counts a list that is described but not materialized.
    """
    a = len(j_groups)
    log_num = sum(math.log(max(s, 1)) for s in base_sizes)
    constrained = sum((1 << (a - j)) * len(J) for j, J in enumerate(j_groups, 1))
    return max(math.exp(min(log_num - constrained * math.log(q), 700.0)), 1e-300)


def _tree_meta(
    variant: str,
    levels: list[list[_Node]],
    j_groups: tuple[np.ndarray, ...],
    base_sizes: list[int],
    q: int,
    loops: int,
) -> dict:
    """List sizes of a stack of merge trees and its average-case output size.

    base_sizes are one loop's; level sizes count the entries of every loop,
    and the expected output is that of loops trees.
    """
    return {
        "variant": variant,
        "levels": len(j_groups),
        "j_sizes": [len(g) for g in j_groups],
        "level_sizes": [[len(nd.lst) for nd in lvl] for lvl in levels],
        "expected_solutions": _expected(base_sizes, j_groups, q) * loops,
    }


# -- back ends ---------------------------------------------------------------


def _merge_levels(
    nodes: list[_Node],
    j_groups: tuple[np.ndarray, ...],
    targets: list[list[np.ndarray]],
    cap: int,
    alive: _Alive,
) -> list[list[_Node]]:
    """Wagner's k-tree, level by level; the one place that calls merge.

    levels[0] is nodes.  Level j merges adjacent pairs of level j-1 on J_j,
    pair i against targets[j][i]; an odd last node stays unmerged.  Only
    the loops still alive are merged; a loop over cap is cut from the stack
    and the merge runs again without it.
    """
    levels = [nodes]
    for j, J in enumerate(j_groups, 1):
        prev, nxt = levels[-1], []
        for i in range(len(prev) // 2):
            lhs, rhs = prev[2 * i], prev[2 * i + 1]
            while True:
                try:
                    lists = (_head(lhs.lst, alive.loops), _head(rhs.lst, alive.loops))
                    merged = merge(*lists, J, targets[j][i], cap)
                    break
                except MergeOverflowError as exc:
                    alive.cut(exc.loop, exc)
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


def _describe(p_frac, h2, s2, single, wf, meta, starts, evaluate, alive) -> CmsdDescription:
    """The description of the loops still alive, or of the one loop of a single build."""
    return CmsdDescription(
        weight=p_frac,
        y=int(starts[-1]),
        h_second=h2[0] if single else h2[: alive.loops],
        s_second=s2[0] if single else s2[: alive.loops],
        wf=wf,
        meta=meta,
        _eval=evaluate,
        starts=None if single else starts,
        overflow=alive.error,
    )


def loop_plan(variant: str, wf: WeightFunction, n: int, ell: int, p, a: int, cap: int) -> LoopPlan:
    """The LoopPlan of a back end on bottom blocks of shape (ell, n).

    variant is "prange", "dumer", "wagner1" or "wagner2"; a layout that
    cannot carry p draws nothing and expects nothing here, and its first
    build raises.
    """
    if variant == "prange":
        return LoopPlan(lambda rng: None, 0, 1.0)
    lazy = variant == "wagner2"
    levels = 1 if variant == "dumer" else a
    try:
        plan = _plan(wf, n, ell, _budget(wf, p)[1], levels, lazy)
    except CmsdInfeasibleError:
        return LoopPlan(lambda rng: None, 0, None)
    lazy_cap = cap if lazy else None
    sizes = [b.enum.count for blocks in plan.layouts for b in blocks]
    rows = sum(sizes)
    if lazy:  # the lazy list is evaluated in blocks: only its sampled ranks are held
        rows -= sizes[-1] - (cap if plan.lazy_sampled(cap) else 0)
        sizes[-1] = min(sizes[-1], cap)
    expected = None if levels == 1 and not lazy else _expected(sizes, plan.j_groups, wf.q)
    return LoopPlan(partial(plan.draw, wf.q, lazy_cap=lazy_cap), rows, expected)


def cmsd_prange(
    h_second: np.ndarray, s_second: np.ndarray, wf: WeightFunction, p
) -> CmsdDescription:
    """Trivial description: the zero candidate (requires ell = 0 and p = 0)."""
    h2, s2, single = _stack(h_second, s_second)
    loops, ell, k = h2.shape
    if ell != 0:
        raise ValueError("prange back end requires an empty bottom block (ell = 0)")
    if _to_fraction(p) != 0:
        raise ValueError("prange back end requires weight budget p = 0")
    return _describe(
        Fraction(0),
        h2,
        s2,
        single,
        wf,
        {"variant": "prange", "expected_solutions": float(loops)},
        np.arange(loops + 1),
        lambda idx: np.zeros((len(idx), k), dtype=np.int64),
        _Alive(loops),
    )


def _build_tree(h_second, s_second, wf, p, a, cap, rng, base_list_size, draws) -> CmsdDescription:
    """Wagner's k-tree over 2^a support blocks; dumer is the case a = 1.

    At a = 1 one tree is built per weight split (w1, p - w1), skipping the
    splits a half cannot carry, so the image of f is exactly the solution
    set of the subproblem; the number of splits is linear in the rescaled
    weight, so the asymptotics are unchanged.  At a >= 2 the one balanced
    split is built, and an infeasible block raises.
    """
    h2, s2, single = _stack(h_second, s_second)
    q = wf.q
    loops, ell, n = h2.shape
    p_frac, p_scaled = _budget(wf, p)
    plan = _plan(wf, n, ell, p_scaled, a, False)
    layouts, j_groups = plan
    draws = _loop_draws(plan, q, loops, rng, draws, size_limit=base_list_size)
    # at a = 1 the one target is s''
    coords = np.array([d.targets for d in draws]).reshape(loops, -1)
    targets = _finish_targets(s2, coords, j_groups, q)
    alive = _Alive(loops)
    trees, leaf_sizes = [], []
    totals = np.zeros(loops, dtype=np.int64)
    block = 0
    for blocks in layouts:
        leaves = []
        for b in blocks:
            sampled = draws[0].leaf_ranks[block] is not None
            ranks = [d.leaf_ranks[block] for d in draws] if sampled else None
            leaves.append(_leaf(h2, q, b, cap, ranks))
            block += 1
        leaf_sizes.append([len(nd.lst) // loops for nd in leaves])
        trees.append(_merge_levels(leaves, j_groups, targets, cap, alive))
        totals += np.bincount(trees[-1][a][0].lst.loop, minlength=loops)
        over = np.flatnonzero(totals[: alive.loops] > cap)
        if over.size:
            alive.cut(int(over[0]), MergeOverflowError(f"merged output exceeds cap {cap}"))
    starts, evaluate, counts = _tree_domain([lv[a][0] for lv in trees], alive.loops, n)

    if a > 1:
        (levels,) = trees
        meta = _tree_meta("wagner1", levels, j_groups, leaf_sizes[0], q, alive.loops)
    else:
        # merged entries are exactly the solutions here, so the realized total
        # is the best prediction; fall back to the average-case ratio if empty
        pairs = sum(float(n0) * float(n1) for n0, n1 in leaf_sizes)
        per_loop = [float(t) if t else pairs / float(q) ** ell for t in counts.sum(axis=1)]
        splits = int(np.count_nonzero(counts))
        meta = dict(variant="dumer", splits=splits, expected_solutions=max(sum(per_loop), 1e-300))
    return _describe(p_frac, h2, s2, single, wf, meta, starts, evaluate, alive)


def cmsd_dumer(
    h_second: np.ndarray,
    s_second: np.ndarray,
    wf: WeightFunction,
    p,
    list_size_cap: int = DEFAULT_LIST_CAP,
) -> CmsdDescription:
    """Single-level birthday construction over two support halves: wagner_v1 at a = 1."""
    return _build_tree(h_second, s_second, wf, p, 1, list_size_cap, None, None, None)


def cmsd_wagner_v1(
    h_second: np.ndarray,
    s_second: np.ndarray,
    wf: WeightFunction,
    p,
    a: int,
    list_size_cap: int = DEFAULT_LIST_CAP,
    rng: random.Random | None = None,
    base_list_size: int | None = None,
    draws: list[LoopDraws] | None = None,
) -> CmsdDescription:
    """Level-wise pairwise merging over 2^a balanced support blocks.

    With a = 1 this is the same construction as cmsd_dumer.  For a >= 2
    each block carries a fixed balanced share of the weight budget and the
    intermediate merges use fresh random targets that telescope to s''.
    base_list_size, when given, subsamples every base list to that size
    (uniformly, without replacement, drawing from rng, default Random(0)),
    matching the asymptotic sizing rule.  A stack draws for its loops in
    turn, unless draws gives each loop's randomness (from _Plan.draw).
    """
    if a < 1:
        raise ValueError("level count a must be >= 1")
    if rng is None:
        rng = random.Random(0)
    return _build_tree(h_second, s_second, wf, p, a, list_size_cap, rng, base_list_size, draws)


def cmsd_wagner_v2_build(
    h_second: np.ndarray,
    s_second: np.ndarray,
    wf: WeightFunction,
    p,
    a: int,
    list_size_cap: int = DEFAULT_LIST_CAP,
    rng: random.Random | None = None,
    draws: list[LoopDraws] | None = None,
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
    one lookup per level.  A stack draws for its loops in turn, unless
    draws gives each loop's randomness (from _Plan.draw).
    """
    if a < 1:
        raise ValueError("level count a must be >= 1")
    if rng is None:
        rng = random.Random(0)
    h2, s2, single = _stack(h_second, s_second)
    q = wf.q
    loops, ell, n = h2.shape
    p_frac, p_scaled = _budget(wf, p)
    plan = _plan(wf, n, ell, p_scaled, a, True)
    (blocks,), j_groups = plan
    last = blocks[-1]
    draws = _loop_draws(plan, q, loops, rng, draws, lazy_cap=list_size_cap)
    coords = np.array([d.targets for d in draws]).reshape(loops, -1)
    targets = _finish_targets(s2, coords, j_groups, q)

    materialized = [_leaf(h2, q, b, list_size_cap) for b in blocks[:-1]]
    alive = _Alive(loops)
    levels = _merge_levels(materialized, j_groups, targets, list_size_cap, alive)
    live = alive.loops
    # S_j, the fully merged left sibling of the lazy chain at level j, is the
    # odd node that level j - 1 leaves unmerged
    partners = [
        _partner_table(levels[j - 1][-1], j_groups[j - 1], q, live) for j in range(1, a + 1)
    ]

    y = min(last.enum.count, list_size_cap)
    ranks = None if draws[0].lazy_ranks is None else np.array([d.lazy_ranks for d in draws[:live]])
    sub_last = h2[:live, :, last.offset : last.offset + last.length]
    chain_targets = [targets[j][(1 << (a - j)) - 1] for j in range(1, a + 1)]
    every_side_populated = all(len(pt.keys) for pt in partners)

    def evaluate(idx: np.ndarray) -> np.ndarray:
        out = np.zeros((len(idx), n), dtype=np.int64)
        if not every_side_populated:
            return out
        b, k = np.divmod(idx, y)
        tail = last.enum.all_vectors()[k] if ranks is None else last.enum.unrank_many(ranks[b, k])
        out[:, last.offset : last.offset + last.length] = tail
        acc = np.einsum("rw,rlw->rl", tail, sub_last[b]) % q
        ok = np.ones(len(idx), dtype=bool)
        for pt, J, t in zip(partners, j_groups, chain_targets):
            keys = _encode_keys((t[b][:, J] - acc[:, J]) % q, q, b, live)
            u = np.minimum(np.searchsorted(pt.keys, keys), len(pt.keys) - 1)
            ok &= pt.keys[u] == keys
            acc = (acc + pt.syn[u]) % q
            out[:, pt.sup[0] : pt.sup[1]] = pt.part[u]
        ok &= (acc == s2[b]).all(axis=1)  # targets telescope to s''; this must hold
        out[~ok] = 0
        return out

    base_sizes = [len(nd.lst) // loops for nd in materialized] + [y]
    meta = _tree_meta("wagner2", levels, j_groups, base_sizes, q, live)
    return _describe(p_frac, h2, s2, single, wf, meta, np.arange(live + 1) * y, evaluate, alive)
