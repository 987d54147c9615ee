"""Back ends for the small decoding subproblem inside the outer ISD loop.

Given the bottom block (H'', s'') produced by partial Gaussian elimination
as int64 arrays, each builder returns a compact description of a function
f over a domain of Y indices whose nonzero values are vectors e'' with
H'' e'' = s'' and weight exactly p.  Every builder takes
(H'', s'', wf, p, ...) and reads its inputs through np.asarray, so the
FqMatrix and FqVector boundary types work as inputs too.  The outer loop
takes f's candidates block by block and tests each against the remaining
weight budget.

Back ends:
  * prange: the trivial description (p = 0, no bottom block).
  * wagner_v1: a k-tree of pairwise list merges over 2^a support blocks of
    fixed balanced per-block weight, with random intermediate targets that
    telescope to s''.  dumer is wagner_v1 at a = 1: one birthday split into
    two support halves, enumerating every left/right weight split so the
    image covers all solutions.  Each half's base list holds the spheres
    of every split, in split order, and the merge over split groups pairs
    entries of the same split only.
  * wagner_v2_build: the checkable-function variant over 2^a + 1 units.
    Its quadratically larger rightmost list, the chain, is a leaf over the
    last block (the shared sphere when it fits the cap, else each loop's
    sampled ranks) that is never merged in full: it is the right side of
    each level's last pair, whose left side S_j is first reduced to its
    first partner per (loop, J-key), so every chain entry keeps at most one
    match, in order.

One builder body (_build_tree) serves all three merge trees, and one
level-wise merge loop (_merge_levels) makes every merge of every build;
wagner2's domain is the one tree-specific branch.  Leaves keep their
vectors, so a root entry resolves to its candidate row by index
gathering.  Every description is a root list plus dom, the ascending
domain index of each root entry: its position in (loop, index) order for
dumer and wagner_v1, its chain-leaf position for wagner2.  Every merge
sorts its left list on words that pack the group, the J-projection and
the rest of the syndrome in base q.  Leaves and partner tables are built
as lists that are valid by construction (IndexedList._made), so no list
is scanned again after its product or merge; the merges go through this
module's merge, where a tracer can count them.  Neither a leaf sphere,
the block layout, the J partition nor the random draws depend on H: they
are one cached LoopPlan per back-end signature (loop_plan), each sphere
is built once per plan, a build's randomness is drawn by LoopPlan.draw,
and only the leaf syndromes, the targets and the merges are computed per
build.  An outer loop meets every back end through its plan alone:
plan.draw(rng) before the elimination, plan.build(h2, s2, draws) after.

Every build is of a stack of B >= 1 bottom blocks, one per outer loop
(h_second of shape (B, ell, n), s_second of shape (B, ell)); one block
(ell, n) with s'' (ell,) is a stack of one.  The loops are built in one
pass: the leaf syndromes of all loops come from one product per leaf,
and every list carries its group b * S + s (loop b, split s of S; S = 1
but at dumer) as the most significant sort key, so each loop gets
exactly the lists, and candidates in exactly the order, that its own
build would give.  Every description lists loop b's candidates at
indices starts[b]..starts[b+1]-1; it holds no H'' or s''.

Support blocks and per-block weight budgets are balanced to within one
unit (deterministic left-to-right) when exact divisibility fails.
Weights are tracked in integer-rescaled units throughout.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .estimator import _list_exponent
from .fieldlin import _Frozen, _integer_array, _to_int
from .merge import (
    DEFAULT_LIST_CAP,
    IndexedList,
    MergeOverflowError,
    _key_order,
    merge,
)
from .weights import (
    SphereEnumerator,
    WeightFunction,
    _to_fraction,
    sphere_exponent_many,
    vector_weight,  # unused here; bench/tracer.py wraps cmsd.vector_weight by name
)

VARIANTS = ("prange", "dumer", "wagner1", "wagner2")


class CmsdInfeasibleError(ValueError):
    """A support block cannot carry its assigned weight (empty base sphere)."""


class _Block(_Frozen):
    """One support block of a layout: columns offset..offset+length-1 and enum, their sphere."""

    _fields = ("offset", "length", "enum")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, offset: int, length: int, enum: SphereEnumerator):
        self._assign(offset=offset, length=length, enum=enum)


@lru_cache(maxsize=128)
def _spheres(blocks: tuple[_Block, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(vectors, float64 operand, block per row) of the spheres of blocks, concatenated.

    The blocks come from a cached plan, so this is built once per plan;
    the float64 rows are the operand _product needs.
    """
    vecs = np.concatenate([b.enum.all_vectors() for b in blocks])
    which = np.repeat(np.arange(len(blocks)), [b.enum.count for b in blocks])
    out = (vecs, vecs.astype(np.float64), which)
    for arr in out:
        arr.setflags(write=False)
    return out


class _Node:
    """Merge-tree node over support columns sup; leaves hold their vectors."""

    def __init__(self, lst: IndexedList, sup: tuple[int, int], vecs=None, children=None):
        self.lst, self.sup, self.vecs, self.children = lst, sup, vecs, children

    def gather(self, pos: np.ndarray) -> np.ndarray:
        """(len(pos), width) support parts of the entries at positions pos."""
        refs = self.lst.backrefs.take(pos, axis=0)  # take: a row gather faster than [pos]
        if self.children is None:
            return self.vecs.take(refs, axis=0)
        lhs, rhs = self.children
        return np.concatenate([lhs.gather(refs[:, 0]), rhs.gather(refs[:, 1])], axis=1)


class CmsdDescription:
    """Evaluable function f over [y) of a stack of loops: what the outer loop reads.

    The candidates are the entries of root, entry i at domain index dom[i]
    (ascending), loop b's at indices starts[b]..starts[b+1]-1, at least one
    index a loop, so y = starts[-1] >= 1.  candidates(lo, hi) gives those in
    [lo, hi) with their rows; evaluate_many(idx) gives one row of length
    root.sup[1] = n per index, the zero vector where an index holds no
    candidate, and evaluate(i) is its one-index view.  Every candidate meets
    its loop's syndrome and weight constraints by construction.

    When loop B' > 0 of the stack would overflow list_size_cap, only loops
    0..B'-1 are described and overflow holds the error loop B' raises
    (loop 0 raises it at once).
    """

    _fields = ("y", "meta", "starts", "overflow")  # repr shows these
    __repr__ = _Frozen.__repr__

    def __init__(self, y: int, meta: dict, root: _Node, dom, starts, overflow=None):
        self.y, self.meta, self.root, self.dom = y, meta, root, dom
        self.starts, self.overflow = starts, overflow

    def evaluate_many(self, idx) -> np.ndarray:
        idx = np.asarray(_integer_array(idx), dtype=np.int64)
        bad = idx[(idx < 0) | (idx >= self.y)]
        if bad.size:
            raise IndexError(f"index {bad[0]} outside [0, {self.y})")
        out = np.zeros((len(idx), self.root.sup[1]), dtype=np.int64)
        pos = self.dom.searchsorted(idx)
        hit = pos < len(self.dom)
        hit[hit] = self.dom[pos[hit]] == idx[hit]
        out[hit] = self.root.gather(pos[hit])
        return out

    def candidates(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """(domain indices, rows) of the candidates at indices lo..hi-1, indices ascending."""
        first, end = self.dom.searchsorted([lo, hi])
        return self.dom[first:end], self.root.gather(np.arange(first, end))

    def evaluate(self, i: int) -> np.ndarray:
        return self.evaluate_many([i])[0]


class LoopDraws(_Frozen):
    """The randomness one build takes from rng, in stream order.

    None of it depends on H, so an outer loop can take it before its
    elimination: the level-target coordinates, then the sampled ranks of
    each base list (None where the list is not sampled), wagner2's lazy
    list last.  plan is the key of the LoopPlan that drew them, which a
    build checks against its own.
    """

    _fields = ("targets", "leaf_ranks", "plan")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, targets: list[int], leaf_ranks: tuple[list[int] | None, ...], plan: tuple):
        self._assign(targets=targets, leaf_ranks=leaf_ranks, plan=plan)


class LoopPlan(_Frozen):
    """What an outer loop knows of its back end before any H is seen (see loop_plan).

    key is (variant, wf, n, ell, p, a, cap), p a Fraction.  Each layout is
    a tuple of consecutive support blocks; j_groups are J_1..J_a.  rows
    counts the rows one loop's build holds (base-list entries, and a lazy
    list's sampled ranks); expected is one loop's expected_solutions, or
    None where it depends on H (dumer, and wagner1 at a = 1, count their
    realized output).  A plan whose layout cannot carry p has no layouts
    and says why in infeasible.
    """

    _fields = ("key", "layouts", "j_groups", "rows", "expected", "infeasible")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, key, layouts=(), j_groups=(), rows=0, expected=None, infeasible=None):
        self._assign(key=key, layouts=layouts, j_groups=j_groups, rows=rows)
        self._assign(expected=expected, infeasible=infeasible)

    def draw(self, rng: random.Random, size: int | None = None) -> LoopDraws | None:
        """One loop's randomness in stream order; None for prange and an infeasible plan.

        The targets of level j take |J_j| coordinates for each of its
        first 2^(a-j) - 1 pairs, level by level; then every base list over
        size samples size ranks, layout by layout, as the list-sizing rule
        asks.  wagner2's lazy last list samples cap ranks instead, and
        dumer, which covers every solution, samples none.
        """
        if not self.layouts:
            return None
        variant, wf, _, _, _, a, cap = self.key
        coords = sum(((1 << (a - j)) - 1) * len(J) for j, J in enumerate(self.j_groups, 1))
        targets = [rng.randrange(wf.q) for _ in range(coords)]
        blocks = [b for layout in self.layouts for b in layout]
        limits = [None if variant == "dumer" else size] * len(blocks)
        if variant == "wagner2":
            limits[-1] = cap
        leaf_ranks = tuple(
            None if lim is None or b.enum.count <= lim
            else sorted(_sample_ranks(b.enum.count, lim, rng))
            for b, lim in zip(blocks, limits)
        )
        return LoopDraws(targets, leaf_ranks, self.key)

    def build(self, h_second, s_second, draws: list[LoopDraws] | None = None) -> CmsdDescription:
        """The variant's description of one bottom block or a stack, from draws of this plan.

        It calls the variant's public builder by its module name, whose
        loop_plan call returns this plan: bench/tracer.py counts builds by
        wrapping the four builder names, until builds are traced here.
        dumer's builder takes no draws (its draws hold nothing); every build
        of an infeasible plan raises a new CmsdInfeasibleError.
        """
        variant, wf, _, _, p, a, cap = self.key
        if variant == "prange":
            return cmsd_prange(h_second, s_second, wf, p)
        if variant == "dumer":
            return cmsd_dumer(h_second, s_second, wf, p, cap)
        builder = cmsd_wagner_v2_build if variant == "wagner2" else cmsd_wagner_v1
        return builder(h_second, s_second, wf, p, a, cap, draws=draws)


# -- block layout helpers ---------------------------------------------------


def _split_lengths(total: int, nblocks: int) -> list[int]:
    base, extra = divmod(total, nblocks)
    return [base + (1 if i < extra else 0) for i in range(nblocks)]


def _split_weight(w_scaled: int, nblocks: int) -> list[int]:
    cuts = [w_scaled * i // nblocks for i in range(nblocks + 1)]
    return [cuts[i + 1] - cuts[i] for i in range(nblocks)]


def loop_plan(variant: str, wf: WeightFunction, n: int, ell: int, p, a: int, cap: int) -> LoopPlan:
    """The LoopPlan of a back end on bottom blocks of shape (ell, n): one object per signature.

    n, ell, a and cap are read as integers and p as a rational before the
    cache is consulted, so p = 1, Fraction(1) and "1" share one plan, and
    a float, bool or unhashable argument, or a wf that is not a
    WeightFunction, is a ValueError, not a cache key.
    A variant outside VARIANTS, ell outside [0, n], or a or cap below 1
    is a ValueError, and a p off the table unit a CmsdInfeasibleError.
    wagner1 lays out 2^a balanced blocks; at a = 1 (dumer, whatever a it
    is given) there is one layout per weight split (w1, p - w1) that both
    halves can carry.  wagner2 splits the support into 2^a + 1 balanced
    units and joins the last two into the one lazy leaf.  A layout with a
    block that cannot carry its weight, or dumer's without a split, is an
    infeasible plan.  The level count is bounded by 2^(a-1) <= max(n, 1):
    beyond it more than half the blocks are empty and a level only adds
    empty ones, so a larger a is a ValueError before anything grows.

    The J groups J_1..J_a are consecutive, read-only int arrays over the
    ell syndrome coordinates.  The first a-1 take round(n*u) coordinates
    each, following the estimator's list-size law u = _list_exponent(s0,
    ell/n, a, lazy); the last absorbs the remainder.
    """
    if not isinstance(wf, WeightFunction):
        raise ValueError(f"wf must be a WeightFunction, not {wf!r}")
    n, ell, a, cap = _to_int(n, "n"), _to_int(ell, "ell"), _to_int(a, "a"), _to_int(cap, "cap")
    if variant not in VARIANTS or not 0 <= ell <= n or a < 1 or cap < 1:
        raise ValueError(
            f"need a variant of {VARIANTS}, 0 <= ell <= n, a >= 1 and cap >= 1;"
            f" got {variant!r}, ell={ell}, n={n}, a={a}, cap={cap}"
        )
    return _cached_plan(variant, wf, n, ell, _to_fraction(p), a, cap)


@lru_cache(maxsize=128)
def _cached_plan(variant, wf: WeightFunction, n: int, ell: int, p: Fraction, a: int, cap: int):
    """loop_plan of arguments it has read and checked."""
    if p < 0:
        raise ValueError("weight budget must be nonnegative")
    p_scaled = wf.scaled(p)
    if p_scaled is None:
        raise CmsdInfeasibleError(
            f"weight budget p={p} is not a multiple of the table unit 1/{wf.denominator}"
        )
    if variant == "prange" and (ell or p):
        raise ValueError("prange requires ell = 0 and p = 0")
    if variant == "dumer" and a != 1:  # one level, so one plan, whatever a is
        return _cached_plan(variant, wf, n, ell, p, 1, cap)
    key = (variant, wf, n, ell, p, a, cap)
    if variant == "prange":
        return LoopPlan(key, expected=1.0)
    lazy = variant == "wagner2"
    most = max(n, 1).bit_length()
    if a > most:
        raise ValueError(f"level count a={a} is above {most}, the most for {n} columns")
    units = (1 << a) + lazy
    lengths = _split_lengths(n, units)
    each_split = a == 1 and not lazy
    if each_split:
        splits = [[w1, p_scaled - w1] for w1 in range(p_scaled + 1)]
    else:
        splits = [_split_weight(p_scaled, units)]
    if lazy:
        lengths[-2:] = [lengths[-2] + lengths[-1]]
        splits[0][-2:] = [splits[0][-2] + splits[0][-1]]
    offsets = np.cumsum([0] + lengths).tolist()
    layouts = [
        tuple(
            _Block(off, ln, SphereEnumerator(wf, ln, Fraction(w, wf.denominator)))
            for off, ln, w in zip(offsets, lengths, weights)
        )
        for weights in splits
    ]
    feasible = tuple(blocks for blocks in layouts if all(b.enum.count for b in blocks))
    if not feasible:
        empty = next(b for b in layouts[0] if not b.enum.count)
        why = f"no vectors of scaled weight {empty.enum.w_scaled} on a block of length {empty.length}"
        if each_split:
            why = f"no split of scaled weight {p_scaled} fits halves of lengths {lengths}"
        return LoopPlan(key, infeasible=why)

    if a == 1 or ell == 0 or n == 0:
        sizes = [0] * (a - 1) + [ell]
    else:
        omega0 = (p_scaled / wf.denominator) / n
        s0 = float(sphere_exponent_many(wf, [omega0])[0])
        u = _list_exponent(s0, ell / n, a, lazy)
        sizes = []
        for _ in range(a - 1):
            sizes.append(max(0, min(int(round(n * u)), ell - sum(sizes))))
        sizes.append(ell - sum(sizes))
    coords = np.arange(ell)
    coords.setflags(write=False)  # the groups are views of it, read-only too
    groups = tuple(np.split(coords, np.cumsum(sizes)[:-1]))
    rows = [b.enum.count for blocks in feasible for b in blocks]
    if lazy:  # a build holds the lazy list's sampled ranks, or the shared sphere's syndromes
        rows[-1] = min(rows[-1], cap)
    expected = None if each_split else _expected(rows, groups, wf.q)
    return LoopPlan(key, feasible, groups, sum(rows), expected)


loop_plan.cache_info, loop_plan.cache_clear = _cached_plan.cache_info, _cached_plan.cache_clear


def _stack(h_second, s_second) -> tuple[np.ndarray, np.ndarray]:
    """(H'' stack, s'' stack) of B >= 1 loops: one bottom block becomes a stack of one."""
    h2, s2 = np.asarray(h_second), np.asarray(s_second)
    if h2.ndim not in (2, 3) or s2.shape != h2.shape[:-1]:
        raise ValueError(
            "need h_second (ell, n) and s_second (ell,), or stacks (B, ell, n) and (B, ell)"
        )
    if h2.ndim == 2:
        return h2[None], s2[None]
    if not len(h2):
        raise ValueError("need a stack of at least one bottom block, got none")
    return h2, s2


def _loop_draws(plan: LoopPlan, loops: int, draws):
    """The given per-loop draws, or each loop's draws taken from Random(0) in turn.

    Each given draw must come from plan: another plan's targets and ranks
    belong to other coordinates and lists.
    """
    if draws is None:
        rng = random.Random(0)
        return [plan.draw(rng) for _ in range(loops)]
    if len(draws) != loops:
        raise ValueError(f"need one LoopDraws per loop of the stack, got {len(draws)} for {loops}")
    if any(d.plan != plan.key for d in draws):
        raise ValueError("draws were taken for another plan (variant, level count, shape or cap)")
    return list(draws)


def _leaf(h2: np.ndarray, q: int, blocks: tuple[_Block, ...], ranks) -> _Node:
    """One base list over blocks for every loop of the stack h2, one product in all.

    The blocks share their columns.  Loop b lists the sphere of blocks[0]
    (or, where ranks[0] is not None, its sampled ranks ranks[0][b]), then
    that of blocks[1], and so on; the entries of loop b from blocks[s] have
    loop id b * len(blocks) + s, so with one block the ids are the loops.
    Without sampled ranks every loop lists the one shared array of vectors.
    """
    loops, ell, _ = h2.shape
    width = blocks[0].length
    sup = (blocks[0].offset, blocks[0].offset + width)
    if all(r is None for r in ranks):
        vecs, operand, which = _spheres(blocks)
        per_loop = len(vecs)
        refs = np.arange(per_loop)[None].repeat(loops, axis=0).ravel()  # the rows, loop by loop
    else:
        parts = [
            np.broadcast_to(b.enum.all_vectors(), (loops, b.enum.count, width))
            if r is None
            else b.enum.unrank_many(np.asarray(r).ravel()).reshape(loops, len(r[0]), width)
            for b, r in zip(blocks, ranks)
        ]
        operand = np.concatenate(parts, axis=1)
        per_loop = operand.shape[1]
        which = np.repeat(np.arange(len(blocks)), [part.shape[1] for part in parts])
        vecs = operand.reshape(loops * per_loop, width)
        refs = np.arange(loops * per_loop)
    syn = _product(operand, h2[:, :, sup[0] : sup[1]], q)
    group = (np.arange(0, loops * len(blocks), len(blocks))[:, None] + which).ravel()
    lst = IndexedList._made(q, syn.reshape(loops * per_loop, ell), refs, group, loops * len(blocks))
    return _Node(lst, sup, vecs=vecs)


def _over_cap(layouts, cap: int, ranks) -> None:
    """Raise for the first whole base list, in layout order, over cap.

    Base lists do not depend on H, so such a list fails every loop of a
    stack, and no loop is built.  ranks[i] is not None where the i-th base
    list is sampled, which keeps it within its limit.
    """
    for i, b in enumerate(b for layout in layouts for b in layout):
        if ranks[i] is None and b.enum.count > cap:
            raise MergeOverflowError(f"base list of size {b.enum.count} exceeds cap {cap}")


def _leaf_ranks(draws: list[LoopDraws]) -> list[list | None]:
    """Per base list of the plan, every loop's sampled ranks, or None where it is not sampled."""
    return [
        None if r is None else [d.leaf_ranks[i] for d in draws]
        for i, r in enumerate(draws[0].leaf_ranks)
    ]


def _product(v: np.ndarray, h: np.ndarray, q: int) -> np.ndarray:
    """(v @ h^T) mod q for each matrix of the stack h, exactly, as a float64 product.

    v is one (rows, width) array shared by the stack (B, ell, width), which
    makes one product in all, or a stack (B, rows, width).  With entries
    below q < 2^16 every sum of products is below width * q^2 < 2^53 for
    any width below 2^21, so float64 holds it exactly, and the float
    product runs through BLAS where int64 does not.  Returns (B, rows, ell).
    """
    loops, ell, width = h.shape
    hf = h.astype(np.float64)
    v = v.astype(np.float64, copy=False)
    if v.ndim == 2:
        out = (v @ hf.reshape(loops * ell, width).T).reshape(len(v), loops, ell).swapaxes(0, 1)
    else:
        out = np.matmul(v, hf.swapaxes(1, 2))
    out = out.astype(np.int64, order="C")
    out %= q
    return out


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
    """Level targets t_j^i with sum_i t_j^i = s'' on J_j, from LoopPlan.draw's coordinates.

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


def _tree_domain(root: _Node, loops: int, splits: int):
    """(starts, dom, counts) of the root list of a stack of merge trees.

    Loop b's entries are those of its splits groups from b * splits on, in
    list order, as the leaves list them; a loop without entries gets one
    index, which holds no candidate.  counts[b] is loop b's entry count.
    """
    firsts = root.lst.loop.searchsorted(np.arange(loops + 1) * splits)
    counts = np.diff(firsts)
    starts = np.concatenate([[0], np.cumsum(np.maximum(counts, 1))])
    dom = np.arange(firsts[-1]) + np.repeat(starts[:-1] - firsts[:-1], counts)
    return starts, dom, counts


def _partner_table(node: _Node, J: np.ndarray) -> _Node:
    """node reduced to one entry per (loop, J-key), as a leaf.

    The entry kept has the lexicographically smallest support part, the
    earlier one on ties; equal support parts have equal syndromes, so it
    is also the first of them in the list sorted on J.
    """
    q, syn, loop, loops = node.lst.q, node.lst.syndromes, node.lst.loop, node.lst.loop_end
    part = node.gather(np.arange(len(syn)))
    order = _key_order(np.concatenate([syn[:, J], part], axis=1), q, loop, loops, 0)[0]
    runs = np.column_stack([loop[order], syn.take(order, axis=0)[:, J]])
    first = np.ones(len(order), dtype=bool)  # the first entry of each run of equal (loop, J)
    first[1:] = (runs[1:] != runs[:-1]).any(axis=1)
    pick = order[first]
    lst = IndexedList._made(q, syn.take(pick, axis=0), np.arange(len(pick)), loop.take(pick), loops)
    return _Node(lst, node.sup, vecs=part.take(pick, axis=0))


def _expected(base_sizes: list[int], j_groups: tuple[np.ndarray, ...], q: int) -> float:
    """One loop's average-case merge-tree output from its base list sizes.

    wagner2's chain counts its min(sphere, cap) entries.
    """
    a = len(j_groups)
    log_num = sum(math.log(max(s, 1)) for s in base_sizes)
    constrained = sum((1 << (a - j)) * len(J) for j, J in enumerate(j_groups, 1))
    return max(math.exp(min(log_num - constrained * math.log(q), 700.0)), 1e-300)


# -- back ends ---------------------------------------------------------------


def _merge_levels(
    nodes: list[_Node],
    j_groups: tuple[np.ndarray, ...],
    targets: list[list[np.ndarray]],
    cap: int,
    lazy: bool = False,
) -> list[list[_Node]]:
    """Wagner's k-tree, level by level: every merge of every build, one merge a pair.

    levels[0] is nodes.  Level j merges adjacent pairs of level j-1 on J_j,
    pair i against targets[j][i]; an odd last node stays unmerged.  With
    lazy (wagner2) the last node of every level is the chain, which is
    never merged in full: the left side of the last pair, S_j, is first
    reduced to one partner per (loop, J-key), so each chain entry keeps at
    most one match.  The stack's loops are the lists' loop ids (dumer's
    split groups).  A merge over cap for some group raises merge's
    MergeOverflowError, which names the first such group; the caller
    decides what the stack keeps.
    """
    levels = [nodes]
    for j, J in enumerate(j_groups, 1):
        prev, nxt = levels[-1], []
        for i in range(len(prev) // 2):
            lhs, rhs = prev[2 * i], prev[2 * i + 1]
            if lazy and 2 * i + 2 == len(prev):
                lhs = _partner_table(lhs, J)
            merged = merge(lhs.lst, rhs.lst, J, targets[j][i], cap)
            nxt.append(_Node(merged, (lhs.sup[0], rhs.sup[1]), children=(lhs, rhs)))
        levels.append(nxt)
    return levels


def _build_tree(plan: LoopPlan, h2, s2, draws) -> CmsdDescription:
    """Wagner's k-tree over the 2^a support blocks of plan; dumer is the case a = 1.

    At a = 1 every weight split (w1, p - w1) that both halves can carry is
    merged, so the image of f is exactly the solution set of the
    subproblem; the number of splits is linear in the rescaled weight, so
    the asymptotics are unchanged.  At a >= 2, and for wagner2 (lazy) at
    every a, the one balanced split is built, and an infeasible block
    raises.  Every leaf lists the spheres of all S splits, loop b's entries
    of split s in group b * S + s, so one merge tree over the loops * S
    groups pairs entries of the same split only.  wagner2's last leaf is
    the chain: a root entry's domain index is its chain-leaf position
    b * y + k, found by walking backrefs[:, 1] down the tree.  Without
    draws, each loop draws from Random(0) in turn.

    A loop fails where a merge passes cap, or, at dumer, where its
    solutions over all S splits do.  A stack whose first failing loop is
    b > 0 is the build of its loops 0..b-1 with their draws, which carries
    the error of loop b as overflow unless it carries an earlier loop's;
    loop 0 raises.  A whole base list over cap raises at once: it fails
    every loop.  An infeasible plan raises a new CmsdInfeasibleError each
    build.
    """
    if plan.infeasible is not None:
        raise CmsdInfeasibleError(plan.infeasible)
    variant, wf, _, ell, p, a, cap = plan.key
    q, lazy, loops = wf.q, variant == "wagner2", len(h2)
    draws = _loop_draws(plan, loops, draws)
    ranks = _leaf_ranks(draws)
    _over_cap(plan.layouts, cap, ranks)
    splits, width = len(plan.layouts), len(plan.layouts[0])
    columns = enumerate(zip(*plan.layouts))  # each leaf's blocks, split by split
    leaves = [_leaf(h2, q, col, ranks[i::width]) for i, col in columns]
    coords = np.array([d.targets for d in draws]).reshape(loops, -1)
    targets = _finish_targets(*(x.repeat(splits, axis=0) for x in (s2, coords)), plan.j_groups, q)
    try:
        levels = _merge_levels(leaves, plan.j_groups, targets, cap, lazy)
        root = levels[a][0]
        over = np.flatnonzero(np.bincount(root.lst.loop // splits) > cap)
        if over.size:
            raise MergeOverflowError(f"merged output exceeds cap {cap}", int(over[0]) * splits)
    except MergeOverflowError as exc:
        b = exc.loop // splits  # the group's loop; no loop's lists depend on another's
        error = MergeOverflowError(str(exc), b)
        if b == 0:
            raise error from None
        head = _build_tree(plan, h2[:b], s2[:b], draws[:b])
        head.overflow = head.overflow or error
        return head
    sizes = [len(nd.lst) // loops for nd in leaves]  # one loop's; level sizes count every loop
    if lazy:
        dom, node = np.arange(len(root.lst)), root  # each root entry's chain-leaf position
        while node.children is not None:
            dom, node = node.lst.backrefs[dom, 1], node.children[1]
        starts = np.arange(loops + 1) * sizes[-1]
    else:
        starts, dom, counts = _tree_domain(root, loops, splits)
    if a == 1 and not lazy:
        # merged entries are exactly the solutions, so the realized total is the best prediction
        # (loop 0's pairs over q^ell where a loop has none); splits counts the groups with any
        n0, n1 = (np.bincount(nd.lst.loop[:m], minlength=splits) for nd, m in zip(leaves, sizes))
        pairs = sum(float(x) * float(y) for x, y in zip(n0, n1))
        per_loop = [float(t) if t else pairs / float(q) ** ell for t in counts]
        solved = int(np.count_nonzero(np.bincount(root.lst.loop)))
        meta = dict(variant="dumer", splits=solved, expected_solutions=max(sum(per_loop), 1e-300))
    else:
        meta = {
            "variant": variant,
            "levels": a,
            "j_sizes": [len(g) for g in plan.j_groups],
            "level_sizes": [[len(nd.lst) for nd in lvl] for lvl in levels],
            "expected_solutions": _expected(sizes, plan.j_groups, q) * loops,
        }
    return CmsdDescription(y=int(starts[-1]), meta=meta, root=root, dom=dom, starts=starts)


def _build(variant, h_second, s_second, wf, p, a: int, cap: int, draws) -> CmsdDescription:
    """Every public builder's body: the stack, its plan, then the build (prange's inline)."""
    h2, s2 = _stack(h_second, s_second)
    plan = loop_plan(variant, wf, h2.shape[2], h2.shape[1], p, a, cap)
    if variant != "prange":
        return _build_tree(plan, h2, s2, draws)
    loops, _, k = h2.shape
    zero = IndexedList(wf.q, np.zeros((loops, 0)), np.zeros(loops, dtype=np.int64))
    root = _Node(zero, (0, k), vecs=np.zeros((1, k), dtype=np.int64))
    meta = {"variant": "prange", "expected_solutions": float(loops)}
    dom, starts = np.arange(loops), np.arange(loops + 1)
    return CmsdDescription(y=loops, meta=meta, root=root, dom=dom, starts=starts)


def cmsd_prange(
    h_second: np.ndarray, s_second: np.ndarray, wf: WeightFunction, p
) -> CmsdDescription:
    """Trivial description: the zero candidate (requires ell = 0 and p = 0)."""
    return _build("prange", h_second, s_second, wf, p, 1, DEFAULT_LIST_CAP, None)


def cmsd_dumer(
    h_second: np.ndarray,
    s_second: np.ndarray,
    wf: WeightFunction,
    p,
    list_size_cap: int = DEFAULT_LIST_CAP,
) -> CmsdDescription:
    """Single-level birthday construction over two support halves: wagner_v1 at a = 1."""
    return _build("dumer", h_second, s_second, wf, p, 1, list_size_cap, None)


def cmsd_wagner_v1(
    h_second: np.ndarray,
    s_second: np.ndarray,
    wf: WeightFunction,
    p,
    a: int,
    list_size_cap: int = DEFAULT_LIST_CAP,
    *,
    draws: list[LoopDraws] | None = None,
) -> CmsdDescription:
    """Level-wise pairwise merging over 2^a balanced support blocks.

    With a = 1 this is the same construction as cmsd_dumer.  For a >= 2
    each block carries a fixed balanced share of the weight budget and the
    intermediate merges use fresh random targets that telescope to s''.
    draws gives each loop's randomness, else each loop draws from
    Random(0) in turn.  Draws from loop_plan("wagner1", ...).draw(rng,
    size) subsample every base list to size entries, matching the
    asymptotic sizing rule.  Draws of another plan are refused, one taken
    at another list_size_cap too, though no wagner1 draw depends on it.
    """
    return _build("wagner1", h_second, s_second, wf, p, a, list_size_cap, draws)


def cmsd_wagner_v2_build(
    h_second: np.ndarray,
    s_second: np.ndarray,
    wf: WeightFunction,
    p,
    a: int,
    list_size_cap: int = DEFAULT_LIST_CAP,
    *,
    draws: list[LoopDraws] | None = None,
) -> CmsdDescription:
    """Checkable-function construction over 2^a + 1 balanced support units.

    The rightmost list (two units wide, double weight share) is a leaf of
    min(sphere, cap) entries per loop: the shared sphere array when the
    sphere fits the cap, else the loop's sampled ranks, unranked.  It is
    never merged in full: level by level, each entry of this chain takes
    from the fully merged left sibling the matching partner with the
    lexicographically smallest support part (the first one on ties), one
    merge per level against the sibling reduced to that partner per key.
    Index b * y + k is loop b's k-th chain entry; it holds a candidate when
    every level finds a partner.  draws gives each loop's randomness (from
    loop_plan("wagner2", ...).draw), else each loop draws from Random(0)
    in turn.
    """
    return _build("wagner2", h_second, s_second, wf, p, a, list_size_cap, draws)
