"""Reference oracles shared by the tests; the library itself never calls them."""

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from leeisd import cmsd
from leeisd.estimator import local_maxima_weights
from leeisd.fieldlin import (
    FqMatrix,
    FqVector,
    Permutation,
    _integer_array,
    apply_permutation,
    partial_gaussian_elim,
    validate_modulus,
)
from leeisd.isd import (
    CANDIDATE_BLOCK,
    IsdParams,
    SdInstance,
    SolveReport,
    _exact_p1,
    _loop_plan,
    verify_solution,
)
from leeisd.merge import (
    DEFAULT_LIST_CAP,
    IndexedList,
    MergeOverflowError,
    _check_J,
    _encode_keys,
    _key_order,
    _target_on_J,
)
from leeisd.weights import SphereEnumerator, WeightFunction, _kronecker_slots, _unpack


@dataclass(eq=False)
class CmsdEnumeration:
    solutions: list
    observed_z: int


def is_solution(h2, s2, wf, p, v: np.ndarray) -> np.ndarray:
    """Per row of v (or for the one vector v): H'' v = s'' and weight exactly p.

    h2 and s2 are one bottom block (ell, n) and its s'' (ell,).
    """
    q = wf.q
    v = v % q
    syn_ok = ((v @ np.asarray(h2).T) % q == np.asarray(s2)).all(axis=-1)
    weights = wf.int_table_array()[v].sum(axis=-1)
    return syn_ok & (weights == wf.scaled(p))


def evaluate_many(desc, idx) -> np.ndarray:
    """One row of f per index of idx: its candidate, or the zero vector where it holds none."""
    idx = np.asarray(_integer_array(idx), dtype=np.int64)
    bad = idx[(idx < 0) | (idx >= desc.y)]
    if bad.size:
        raise IndexError(f"index {bad[0]} outside [0, {desc.y})")
    out = np.zeros((len(idx), desc.root.sup[1]), dtype=np.int64)
    pos = desc.dom.searchsorted(idx)
    hit = pos < len(desc.dom)
    hit[hit] = desc.dom[pos[hit]] == idx[hit]
    out[hit] = desc.root.gather(pos[hit])
    return out


def enumerate_f(desc, h2, s2, wf, p) -> CmsdEnumeration:
    """The values of f that solve the bottom block (h2, s2) at weight p, with distinct count."""
    vals = evaluate_many(desc, np.arange(desc.y))
    sols = list(vals[is_solution(h2, s2, wf, p, vals)])
    return CmsdEnumeration(solutions=sols, observed_z=len({v.tobytes() for v in sols}))


def loop_draws(variant, h2, wf, p, a, cap=DEFAULT_LIST_CAP, rng=None, size=None) -> list:
    """Each loop's draws for a build of variant on h2, one bottom block or a stack of them.

    The loops draw from rng (default Random(0)) in turn, through
    loop_plan(...).draw(rng, size): size, when given, subsamples every base
    list over it to size entries.  A layout that cannot carry p draws
    None, and its build raises.
    """
    shape = np.shape(h2)
    draw = cmsd.loop_plan(variant, wf, shape[-1], shape[-2], p, a, cap).draw
    rng = random.Random(0) if rng is None else rng
    return [draw(rng, size) for _ in range(shape[0] if len(shape) == 3 else 1)]


def sphere_rank(enum, v: np.ndarray) -> int:
    """Rank of v on the sphere of a SphereEnumerator: the inverse of enum.unrank."""
    r = 0
    budget = enum.w_scaled
    for i in range(enum.n):
        rem = enum.n - i - 1
        row = enum._rows[rem]
        for x in range(int(v[i])):
            left = budget - enum._tab[x]
            if 0 <= left < len(row):
                r += row[left]
        budget -= enum._tab[int(v[i])]
    return r


# -- instance generation, one randrange per entry -----------------------------
#
# fieldlin's rank and random_full_rank_matrix as they were before entries
# were drawn from bulk words; the library must give the same matrices and
# leave the random stream in the same state.  The sequential solver below
# uses this rank too.


def rank(m: FqMatrix) -> int:
    """Rank over F_q via full Gaussian elimination."""
    a = np.array(m.values, dtype=np.int64)
    q = m.q
    r = 0
    for col in range(a.shape[1]):
        if r == a.shape[0]:
            break
        piv = None
        for row in range(r, a.shape[0]):
            if a[row, col] != 0:
                piv = row
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, col]), q - 2, q)
        a[r] = (a[r] * inv) % q
        rest = a[r + 1 :, col].copy()
        a[r + 1 :] = (a[r + 1 :] - np.outer(rest, a[r])) % q
        r += 1
    return r


def random_full_rank_matrix(q: int, rows: int, cols: int, rng: random.Random) -> FqMatrix:
    """Uniformly random matrix conditioned on full row rank (rejection sampling)."""
    validate_modulus(q)
    if not 0 <= rows <= cols:
        raise ValueError("rows must lie in [0, cols] for a full row-rank matrix")
    while True:
        vals = np.array(
            [rng.randrange(q) for _ in range(rows * cols)], dtype=np.int64
        ).reshape(rows, cols)
        m = FqMatrix(q, vals)
        if rank(m) == rows:
            return m


def partial_elim(h: np.ndarray, ell: int, s: np.ndarray, q: int):
    """(h_prime, h_second, s_prime, s_second) as lists of Python ints, or None when singular.

    One matrix, reduced mod q after every operation: column c takes as its
    pivot the first row at or below c that is nonzero there, exchanges it
    with row c, scales it to 1 and eliminates column c from every other
    row; a column without a pivot makes the matrix singular.
    """
    rows, n = h.shape
    a = [[int(x) % q for x in row] + [int(y) % q] for row, y in zip(h.tolist(), s.tolist())]
    lead = rows - ell
    for c in range(lead):
        piv = next((i for i in range(c, rows) if a[i][c]), None)
        if piv is None:
            return None
        a[c], a[piv] = a[piv], a[c]
        inv = pow(a[c][c], q - 2, q)
        a[c] = [x * inv % q for x in a[c]]
        for i in range(rows):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % q for x, y in zip(a[i], a[c])]
    top, bottom = a[:lead], a[lead:]
    return (
        [row[lead:n] for row in top],
        [row[lead:n] for row in bottom],
        [row[n] for row in top],
        [row[n] for row in bottom],
    )


def bisection_crossings(wf, s: float) -> tuple[float, float]:
    """Mean weights below and above the average where the sphere exponent is s.

    A two-element bisection on beta, 72 steps over [0, beta_max] and
    [-beta_max, 0], with the solver's own entropy kernel.  Where even the
    maximal weight has entropy above s, the upper branch returns the top
    weight; the lower branch has no such rule and bisects toward beta_max.
    """
    d = wf._dual_solver
    side = np.array([1.0, -1.0])
    lo, hi = np.array([0.0, -d.beta_max]), np.array([d.beta_max, 0.0])
    for _ in range(72):
        mid = 0.5 * (lo + hi)
        up = side * (d.evaluate(mid)[:, 0] / d.lnq - s) > 0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    w_lo, w_hi = d.evaluate(0.5 * (lo + hi))[:, 1]
    if math.log(d.mult[-1]) / d.lnq > s:
        w_hi = d.w[-1]
    return float(w_lo), float(w_hi)


def prange_q2(rate: float) -> tuple[float, float]:
    """(omega, Prange's exponent) at the lower crossing of binary Hamming at rate R.

    The closed form h2(omega) - (1 - R) h2(omega / (1 - R)) at omega, the
    lower root of h2(omega) = 1 - R from local_maxima_weights, in log_2
    units, which are log_q units at q = 2; no estimator code computes it.
    """
    def h2(x):
        return -x * math.log2(x) - (1 - x) * math.log2(1 - x)

    omega = local_maxima_weights(WeightFunction.hamming(2), rate)[0]
    return omega, h2(omega) - (1 - rate) * h2(omega / (1 - rate))


# -- the sequential solver ----------------------------------------------------
#
# isd_solve as it ran one outer loop at a time, before loops were batched:
# one permutation, one elimination (retried while singular), one build and
# one candidate pass per loop.  The batched solver must give the same report.


def _build_cmsd(inst: SdInstance, params: IsdParams, ech, rng: random.Random):
    args = (ech.h_second, ech.s_second, inst.wf, params.p)
    if params.variant == "prange":
        return cmsd.cmsd_prange(*args)
    if params.variant == "dumer":
        return cmsd.cmsd_dumer(*args, params.list_size_cap)
    build = cmsd.cmsd_wagner_v1 if params.variant == "wagner1" else cmsd.cmsd_wagner_v2_build
    cap = params.list_size_cap
    draws = loop_draws(params.variant, ech.h_second, inst.wf, params.p, params.a, cap, rng)
    return build(*args, params.a, cap, draws=draws)


def _first_hit(inst: SdInstance, desc, ech, perm: Permutation, p, w_rem: int):
    """(first candidate of desc that completes to a solution, candidates tested).

    Candidates go in index order, CANDIDATE_BLOCK at a time; e'' must meet
    H'' e'' = s'' at weight p, and e' = s' - H' e'' must carry the
    remaining scaled weight w_rem.  The count runs up to and including the
    hit, or over all of desc when there is none.  A hit is
    put back in place (coordinate i of the permuted vector is coordinate
    perm.images[i] of e) and leaves as the one FqVector of the loop.
    """
    q = inst.q
    h1, s1 = ech.h_prime, ech.s_prime
    tab = inst.wf.int_table_array()
    for lo in range(0, desc.y, CANDIDATE_BLOCK):
        e2 = evaluate_many(desc, np.arange(lo, min(lo + CANDIDATE_BLOCK, desc.y)))
        e1 = (s1 - e2 @ h1.T) % q
        e2_ok = is_solution(ech.h_second, ech.s_second, inst.wf, p, e2)
        for i in np.flatnonzero(e2_ok & (tab[e1].sum(axis=1) == w_rem)):
            e = np.empty(inst.n, dtype=np.int64)
            e[perm.images] = np.concatenate([e1[i], e2[i]])
            hit = FqVector(q, e)
            if verify_solution(inst, hit):  # soundness guard; never expected to fail
                return hit, lo + int(i) + 1
    return None, desc.y


def isd_solve(inst: SdInstance, params: IsdParams) -> SolveReport:
    """Run the permute / reduce / merge / test loop until a hit or budget end."""
    _loop_plan(inst, params)
    rng = random.Random(params.rng_seed)
    t0 = time.monotonic()
    p1 = _exact_p1(inst, params.ell, params.p)
    # an empty outer sphere means no permutation can ever succeed
    budget = params.max_outer_loops if p1 > 0.0 else 0
    w_rem = inst.wf.scaled(inst.w - params.p)
    singular_retries = 0
    cmsd_calls = 0
    tested = 0
    loops = 0
    solution = None
    while solution is None and loops < budget:
        loops += 1
        perm = None
        ech = None
        # elimination pivots over all rows, so a draw fails only when its
        # leading n-k-ell columns are rank-deficient (probability about
        # q^-(ell+1) for a full-rank H); 256 failures in a row point at H
        for _ in range(256):
            perm = Permutation.random(inst.n, rng)
            elim = partial_gaussian_elim(
                apply_permutation(inst.h.values, perm), params.ell, inst.s.values, inst.q
            )
            if not elim.singular:
                ech = elim
                break
            singular_retries += 1
        if ech is None:
            lead = inst.n - inst.k - params.ell
            if rank(inst.h) < lead:
                raise ValueError(f"H has rank below n-k-ell = {lead}: no information set exists")
            continue
        desc = _build_cmsd(inst, params, ech, rng)
        cmsd_calls += 1
        if loops == 1:
            z_hat = max(float(desc.meta.get("expected_solutions", 1.0)), 1e-300)
            if p1 > 0.0:
                predicted = 10.0 * math.ceil(1.0 / max(p1 * z_hat, 1e-12))
                budget = max(1, min(params.max_outer_loops, int(predicted)))
        solution, n_tested = _first_hit(inst, desc, ech, perm, params.p, w_rem)
        tested += n_tested
    return SolveReport(
        solution=solution,
        outer_loops=loops,
        cmsd_calls=cmsd_calls,
        tested_candidates=tested,
        wall_stats={
            "elapsed_s": time.monotonic() - t0,
            "singular_retries": singular_retries,
            "loop_budget": budget,
        },
    )


# -- the merge layer before packed sort words and survivor evaluation -------------
#
# IndexedList._order_keys's order as one lexsort key per column, merge on
# top of it, the per-split dumer build and wagner2's full-row evaluate with
# its partner tables, as they were before the merge tree was made leaner
# and wagner2's chain became merges.  The library must give the same orders, lists, rows
# and overflow errors.


def sorted_reference(lst: IndexedList, J: tuple[int, ...], nloops: int | None = None):
    """(sort_order, J-keys of the entries in that order), J already checked.

    The keys are encoded for loop ids below nloops (default: this list's).
    """
    if nloops is None:
        nloops = 1 if lst.loop is None or not len(lst) else int(lst.loop.max()) + 1
    loop = lst.loop if nloops > 1 else None
    keys = [np.arange(len(lst))]
    keys += [lst.syndromes[:, c] for c in range(lst.width - 1, -1, -1)]
    keys += [lst.syndromes[:, j] for j in reversed(J)]
    if loop is not None:
        keys.append(loop)
    order = np.lexsort(tuple(keys))
    loop = None if loop is None else loop[order]
    return order, _encode_keys(lst.syndromes[order][:, list(J)], lst.q, loop, nloops)


def merge_reference(L1: IndexedList, L2: IndexedList, J, t, cap: int) -> IndexedList:
    """merge with sorted_reference as its sort; the input checks are left out."""
    q = L1.q
    J = _check_J(J, L1.width)
    cols = list(J)
    tJ = _target_on_J(t, J, L1.width, q)
    nloops = len(tJ)
    order, keys1 = sorted_reference(L1, J, nloops)
    syn1 = L1.syndromes[order]
    t2 = tJ[L2.loop] if nloops > 1 else tJ.reshape(1, -1)
    loop2 = L2.loop if nloops > 1 else None  # every id of a stack of one is 0
    need_keys = _encode_keys((t2 - L2.syndromes[:, cols]) % q, q, loop2, nloops)
    lo = np.searchsorted(keys1, need_keys, side="left")
    hi = np.searchsorted(keys1, need_keys, side="right")
    counts = (hi - lo).astype(np.int64)
    totals = np.bincount(L2.loop, counts, nloops) if nloops > 1 else counts.sum(keepdims=True)
    over = np.flatnonzero(totals > cap)
    if over.size:
        b = int(over[0])
        raise MergeOverflowError(f"merge would produce {int(totals[b])} > cap {cap} entries", b)
    total = int(counts.sum())
    j_idx = np.repeat(np.arange(len(L2), dtype=np.int64), counts)
    pos1 = np.arange(total, dtype=np.int64) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    syn = (syn1[pos1] + L2.syndromes[j_idx]) % q
    loop = None if L2.loop is None else L2.loop[j_idx]
    return IndexedList(q, syn, np.stack([order[pos1], j_idx], axis=1), loop=loop)


def dumer_by_split(h2: np.ndarray, s2: np.ndarray, wf, p, cap: int) -> np.ndarray:
    """dumer on one bottom block as one merge per weight split, in split order.

    Returns the solution rows, split (w1, p - w1) by split.  Raises the
    MergeOverflowError of the first of: a whole base list over cap (the
    first in split order), the first split whose merge exceeds cap, and
    the solutions of all splits together over cap.
    """
    q, (ell, n) = wf.q, h2.shape
    n0 = cmsd._split_lengths(n, 2)[0]
    p_scaled = wf.scaled(p)
    splits = []
    for w1 in range(p_scaled + 1):
        halves = [
            SphereEnumerator(wf, ln, Fraction(w, wf.denominator))
            for ln, w in ((n0, w1), (n - n0, p_scaled - w1))
        ]
        if all(e.count for e in halves):
            splits.append(halves)
    for e in (e for halves in splits for e in halves):
        if e.count > cap:
            raise MergeOverflowError(f"base list of size {e.count} exceeds cap {cap}")
    rows = []
    for halves in splits:
        vecs = [e.all_vectors() for e in halves]
        lists = [
            IndexedList(q, (v @ h2[:, cols].T) % q, np.arange(len(v)))
            for v, cols in zip(vecs, (slice(0, n0), slice(n0, n)))
        ]
        out = merge_reference(*lists, range(ell), s2, cap)
        rows += [np.concatenate([vecs[0][i], vecs[1][j]]) for i, j in out.backrefs]
    if len(rows) > cap:
        raise MergeOverflowError(f"merged output exceeds cap {cap}")
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


@dataclass(frozen=True, eq=False)
class Partners:
    """One side list reduced to its chosen partner per (loop, J-key), keys ascending."""

    keys: np.ndarray
    syn: np.ndarray
    part: np.ndarray  # support parts, columns sup[0]..sup[1]
    sup: tuple[int, int]


def partner_table(node, J: np.ndarray, q: int, loops: int) -> Partners:
    """Per loop and J-key, the entry with the lexicographically smallest support part.

    Ties go to the earlier entry.  Equal support parts have equal
    syndromes, so this is also the first of them in the list sorted on J.
    The stack's loop ids lie below loops.
    """
    syn, loop = node.lst.syndromes, node.lst.loop
    part = node.gather(np.arange(len(syn)))
    order = _key_order(np.concatenate([syn[:, J], part], axis=1), q, loop, loops, 0)[0]
    keys = _encode_keys(syn[order][:, J], q, loop[order], loops)
    first = np.ones(len(keys), dtype=bool)  # the first entry of each run of equal keys
    first[1:] = keys[1:] != keys[:-1]
    pick = order[first]
    return Partners(keys[first], syn[pick], part[pick], node.sup)


def wagner2_full_rows(h2, s2, wf, p, a: int, cap: int, draws, idx) -> tuple[np.ndarray, bool]:
    """(f on idx, whether every partner table is populated) of a wagner2 stack.

    The tree and partner tables come from the library's build steps; the
    evaluation is the one that built a full candidate row for every index
    and zeroed the rows whose chain fails.  Where a merge of the
    materialized side overflows at loop b > 0, the stack is cut there: f
    is that of loops 0..b-1, rebuilt.
    """
    q = wf.q
    loops, ell, n = h2.shape
    plan = cmsd.loop_plan("wagner2", wf, n, ell, p, a, cap)
    (blocks,), j_groups = plan.layouts, plan.j_groups
    last = blocks[-1]
    coords = np.array([d.targets for d in draws]).reshape(loops, -1)
    targets = cmsd._finish_targets(s2, coords, j_groups, q)
    materialized = [cmsd._leaf(h2, q, (b,), (None,)) for b in blocks[:-1]]
    try:
        levels = cmsd._merge_levels(materialized, j_groups, targets, cap)
    except MergeOverflowError as exc:
        if exc.loop == 0:
            raise
        b = exc.loop
        return wagner2_full_rows(h2[:b], s2[:b], wf, p, a, cap, draws[:b], idx)
    partners = [
        partner_table(levels[j - 1][-1], j_groups[j - 1], q, loops) for j in range(1, a + 1)
    ]
    y = min(last.enum.count, cap)
    lazy = [d.leaf_ranks[-1] for d in draws]
    ranks = None if lazy[0] is None else np.array(lazy)
    sub_last = h2[:, :, last.offset : last.offset + last.length]
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
            keys = _encode_keys((t[b][:, J] - acc[:, J]) % q, q, b, loops)
            u = np.minimum(np.searchsorted(pt.keys, keys), len(pt.keys) - 1)
            ok &= pt.keys[u] == keys
            acc = (acc + pt.syn[u]) % q
            out[:, pt.sup[0] : pt.sup[1]] = pt.part[u]
        ok &= (acc == s2[b]).all(axis=1)  # targets telescope to s''; this must hold
        out[~ok] = 0
        return out

    return evaluate(np.asarray(idx, dtype=np.int64)), every_side_populated


def hermite_start(d, key, slopes, t):
    """(beta, lo, hi): the per-point cubic Hermite start of a _newton solve.

    key and slopes are a key of d.nodes and its dbeta/dkey.  The start is
    the cubic Hermite interpolant of beta in the node cell [lo, hi] that
    holds t, clamped to it; a cell with a nan end slope starts from the
    linear interpolant, and an end cell from its neighbour's nodes.
    """
    ends = d.nodes[2]
    cell = np.searchsorted(key, t)
    lo, hi = ends[cell + 1], ends[cell]
    i = np.minimum(np.maximum(cell, 1), len(key) - 1)  # an end cell reads its neighbour's nodes
    h = key[i] - key[i - 1]
    u = np.divide(t - key[i - 1], h, out=np.zeros(len(t)), where=h > 0)
    u = np.minimum(np.maximum(u, 0.0), 1.0)
    b0, run = ends[i], ends[i + 1] - ends[i]
    bend = u * (1.0 - u) * ((1.0 - u) * (h * slopes[i - 1] - run) - u * (h * slopes[i] - run))
    cur = b0 + u * run + np.where(np.isnan(bend), 0.0, bend)
    return np.minimum(np.maximum(cur, lo), hi), lo, hi


# -- exact sphere counts over every weight -------------------------------------
#
# The library packs only the weights up to the one asked for; these pack
# every weight of the row, and unrank from those full rows.


def count_row(int_table: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Counts of length-n vectors of each scaled weight 0..n*max, exact."""
    slot_bytes = (n * max(1, len(int_table).bit_length()) + 8) // 8
    base = sum(1 << (w * 8 * slot_bytes) for w in int_table)
    nslots = n * max(int_table) + 1
    raw = (base**n).to_bytes(nslots * slot_bytes, "little")
    return tuple(
        int.from_bytes(raw[j * slot_bytes : (j + 1) * slot_bytes], "little")
        for j in range(nslots)
    )


def count_rows_by_product(int_table: tuple[int, ...], n: int, w_scaled: int):
    """weights._count_rows as one big-integer product per row, masked to weights 0..w_scaled."""
    if not 0 <= w_scaled <= n * max(int_table):
        return ()
    base, slot_bytes, mask = _kronecker_slots(int_table, n, w_scaled)
    rows, val = [_unpack(1, w_scaled + 1, slot_bytes)], 1
    for _ in range(n):
        val = val * base & mask
        rows.append(_unpack(val, w_scaled + 1, slot_bytes))
    return tuple(rows)


def unrank_full_rows(int_table: tuple[int, ...], n: int, w_scaled: int, r: int) -> np.ndarray:
    """The length-n vector of rank r among those of scaled weight w_scaled, by full rows."""
    rows = [count_row(int_table, i) for i in range(n + 1)]
    out = np.zeros(n, dtype=np.int64)
    budget = w_scaled
    for i in range(n):
        row = rows[n - i - 1]
        for x, cost in enumerate(int_table):
            left = budget - cost
            c = row[left] if 0 <= left < len(row) else 0
            if r < c:
                out[i], budget = x, left
                break
            r -= c
    return out
