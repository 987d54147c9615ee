"""The outer information-set-decoding loop and instance plumbing.

An instance is (H, s) over F_q with a target weight w; solving loops over
random column permutations, reduces H to a partial echelon form, asks a
back end for candidate bottom parts e'' with H'' e'' = s'' and weight p,
and tests whether the induced top part e' = s' - H' e'' carries the
remaining weight w - p.  A hit is mapped back through the permutation.

The loops run in batches: a batch draws the randomness of its loops
ahead (none of it depends on H), eliminates their matrices as one stack,
builds their merge trees as one stack and tests their candidates in
(loop, index) order.  The report is the one the loops would give one at
a time: a batch stops at its first singular elimination and rewinds the
random stream to just after it, and a hit ends the count at its loop.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import cmsd
from .cmsd import VARIANTS
from .fieldlin import (
    FqMatrix,
    FqVector,
    Permutation,
    _to_int,
    apply_permutation,
    mat_vec_mul,
    partial_gaussian_elim,
    rank,
    random_full_rank_matrix,
)
from .merge import DEFAULT_LIST_CAP
from .weights import (
    WeightFunction,
    _to_fraction,
    sample_uniform_weight_w,
    sphere_count_exact,
    vector_weight,
)

# candidates evaluated and tested per block: bounds memory, never changes a result
CANDIDATE_BLOCK = 4096
# loops per batch: at most MAX_BATCH, and at most BATCH_ROWS held rows
# (base-list entries, sampled ranks) in all; like CANDIDATE_BLOCK these
# bound work and memory only
MAX_BATCH = 64
BATCH_ROWS = 1 << 16
# the most entries (n - k) * n of a generated or read H: drawing 2^21 takes
# about 50 MB and 2 s, and memory grows linearly, time faster, with the entries
MAX_H_ENTRIES = 1 << 22


@dataclass(frozen=True, eq=False)
class SdInstance:
    """A syndrome decoding instance, optionally with its planted solution."""

    q: int
    n: int
    k: int
    w: Fraction
    wf: WeightFunction
    h: FqMatrix
    s: FqVector
    planted: FqVector | None = None

    def __post_init__(self):
        for name in ("n", "k"):
            object.__setattr__(self, name, _to_int(getattr(self, name), name))
        object.__setattr__(self, "w", _to_fraction(self.w))
        if not 0 < self.k < self.n:
            raise ValueError("need 0 < k < n")
        if self.h.rows != self.n - self.k or self.h.cols != self.n:
            raise ValueError("H must be (n-k) x n")
        if len(self.s) != self.n - self.k:
            raise ValueError("syndrome must have length n-k")
        if self.q != self.h.q or self.q != self.s.q or self.q != self.wf.q:
            raise ValueError("modulus mismatch within instance")

    def check_well_formed(self) -> None:
        """Full invariant check: rank of H, and the planted solution if any."""
        if rank(self.h) != self.n - self.k:
            raise ValueError("H does not have full rank n-k")
        if self.planted is not None and not verify_solution(self, self.planted):
            raise ValueError("planted vector is not a solution")

    def to_dict(self) -> dict:
        """A JSON document; the weight is named only when it is that built-in table."""
        name = self.wf.name
        builtin = name in ("lee", "hamming") and self.wf == WeightFunction.from_spec(self.q, name)
        doc = {
            "q": self.q,
            "n": self.n,
            "k": self.k,
            "w": _weight_out(self.w),
            "weight": name if builtin else self.wf.to_json(),
            "H": self.h.tolist(),
            "s": self.s.tolist(),
        }
        if self.planted is not None:
            doc["e"] = self.planted.tolist()
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "SdInstance":
        """Read a to_dict document; a non-integer q, n, k or H, s, e entry is a ValueError.

        n, k and the list shapes of H, s and e are checked first, so an
        instance over MAX_H_ENTRIES or of the wrong shape fails before any
        entry is converted or H's rank is taken.
        """
        q = _to_int(doc["q"], "q")
        n, k = _to_int(doc["n"], "n"), _to_int(doc["k"], "k")
        _check_size(n, k)
        _check_lists(doc, "H", n - k, n)
        _check_lists(doc, "s", n - k)
        if "e" in doc:
            _check_lists(doc, "e", n)
        wf = WeightFunction.from_spec(q, doc["weight"])
        inst = cls(
            q=q,
            n=n,
            k=k,
            w=doc["w"],
            wf=wf,
            h=FqMatrix(q, _int_entries(doc, "H")),
            s=FqVector(q, _int_entries(doc, "s")),
            planted=FqVector(q, _int_entries(doc, "e")) if "e" in doc else None,
        )
        inst.check_well_formed()
        return inst


def _check_size(n: int, k: int) -> None:
    """0 < k < n and an H of at most MAX_H_ENTRIES entries, before anything grows with n."""
    if not 0 < k < n:
        raise ValueError("need 0 < k < n")
    if (n - k) * n > MAX_H_ENTRIES:
        raise ValueError(
            f"H would have (n - k) * n = {(n - k) * n} entries, more than {MAX_H_ENTRIES}"
        )


def _check_lists(doc: dict, key: str, rows: int, cols: int | None = None) -> None:
    """doc[key] is a list of rows entries, or of rows lists of cols entries; no entry is read."""
    val = doc[key]
    ok = isinstance(val, list) and len(val) == rows
    if ok and cols is not None:
        ok = all(isinstance(row, list) and len(row) == cols for row in val)
    if not ok:
        shape = f"{rows} lists of {cols} entries" if cols is not None else f"{rows} entries"
        raise ValueError(f"{key} must be a list of {shape}")


def _int_entries(doc: dict, key: str) -> np.ndarray:
    """doc[key] as an int64 array; a float, bool or string entry is an error, not a cast."""
    arr = np.array(doc[key], dtype=object)
    for x in arr.flat:
        _to_int(x, f"{key} entry")
    try:
        return arr.astype(np.int64)
    except OverflowError as exc:
        raise ValueError(f"{key} entry out of range: {exc}") from exc


def _weight_out(w: Fraction):
    return w.numerator if w.denominator == 1 else str(w)


@dataclass(frozen=True)
class IsdParams:
    """Algorithm parameters for one solve call.

    max_outer_loops caps the loop budget; the default budget itself is
    10 * ceil(1 / (P1 * Z)) from the exact success-probability estimate,
    clamped to this cap.
    """

    variant: str = "prange"
    ell: int = 0
    p: Fraction = Fraction(0)
    a: int = 1
    list_size_cap: int = DEFAULT_LIST_CAP
    max_outer_loops: int = 10_000
    rng_seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        object.__setattr__(self, "p", _to_fraction(self.p))
        for name in ("ell", "a", "list_size_cap", "max_outer_loops", "rng_seed"):
            object.__setattr__(self, name, _to_int(getattr(self, name), name))
        if self.ell < 0 or self.a < 1 or self.max_outer_loops < 1:
            raise ValueError("invalid parameter ranges")
        if self.list_size_cap < 1:
            raise ValueError(f"list_size_cap must be at least 1, got {self.list_size_cap}")


@dataclass(eq=False)
class SolveReport:
    """Outcome of one isd_solve call."""

    solution: FqVector | None
    outer_loops: int
    cmsd_calls: int
    tested_candidates: int
    wall_stats: dict = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.solution is not None

    def to_dict(self) -> dict:
        return {
            "found": self.found,
            "solution": self.solution.tolist() if self.solution is not None else None,
            "outer_loops": self.outer_loops,
            "cmsd_calls": self.cmsd_calls,
            "tested_candidates": self.tested_candidates,
            "wall_stats": dict(self.wall_stats),
        }


def generate_instance(
    q: int, n: int, k: int, w, wf: WeightFunction, rng: random.Random
) -> SdInstance:
    """Draw (H, s = He) with H uniform of full rank and e uniform of weight w."""
    n, k = _to_int(n, "n"), _to_int(k, "k")
    _check_size(n, k)
    w = _to_fraction(w)
    if sphere_count_exact(wf, n, w) == 0:
        raise ValueError(f"empty sphere: no vectors of weight {w} in F_{q}^{n}")
    h = random_full_rank_matrix(q, n - k, n, rng)
    e = sample_uniform_weight_w(wf, n, w, rng)
    s = mat_vec_mul(h, e)
    return SdInstance(q=q, n=n, k=k, w=w, wf=wf, h=h, s=s, planted=e)


def verify_solution(inst: SdInstance, e: FqVector) -> bool:
    """True iff He = s and wt(e) = w, both exact."""
    if len(e) != inst.n or e.q != inst.q:
        return False
    if not np.array_equal((inst.h.values @ e.values) % inst.q, inst.s.values):
        return False
    return vector_weight(e, inst.wf) == inst.w


def _exact_p1(inst: SdInstance, ell: int, p: Fraction) -> float:
    """Per-candidate success probability from exact sphere counts."""
    return _p1(inst.wf, inst.n, inst.k, inst.w, ell, p)


@lru_cache(maxsize=256)
def _p1(wf: WeightFunction, n: int, k: int, w: Fraction, ell: int, p: Fraction) -> float:
    """_exact_p1 of every instance of one shape."""
    q = wf.q
    num = sphere_count_exact(wf, n - k - ell, w - p)
    if num == 0:
        return 0.0
    s_n_w = sphere_count_exact(wf, n, w)
    den = max(1, min(s_n_w // q**ell, q ** (n - k - ell)))
    return min(1.0, math.exp(min(math.log(num) - math.log(den), 0.0)))


def _loop_plan(inst: SdInstance, params: IsdParams) -> cmsd.LoopPlan:
    """The back end's plan for bottom blocks of inst, once ell and p fit inst."""
    if not 0 <= params.ell <= inst.n - inst.k:
        raise ValueError(f"ell must lie in [0, {inst.n - inst.k}]")
    if params.p < 0 or params.p > inst.w:
        raise ValueError("weight budget p must lie in [0, w]")
    return cmsd.loop_plan(
        params.variant, inst.wf, inst.k + params.ell, params.ell, params.p, params.a,
        params.list_size_cap,
    )


def _draw_ahead(inst: SdInstance, rng: random.Random, draw, count: int):
    """(permutations, back-end draws) of count loops, in stream order."""
    perms, draws = [], []
    for _ in range(count):
        perms.append(Permutation.random(inst.n, rng))
        draws.append(draw(rng))
    return perms, draws


def _first_hit(inst: SdInstance, desc, ech, perms: list[Permutation], w_rem: int):
    """(loop, hit, candidates tested) for the first candidate of a stack that completes.

    Candidates go in (loop, index) order, one block of CANDIDATE_BLOCK
    domain indices at a time.  Loop b's reduced system
    [[I, H'], [0, H'']] e = (s', s'') turns a candidate e'' into the
    residual (s', s'') - [H'; H''] e'': its top part is e', its bottom part
    must vanish, and e' must carry the remaining scaled weight w_rem.  The
    count is the hit's domain index + 1, or all of desc when there is none.
    A hit is put back in place (coordinate i of loop b's permuted vector is
    coordinate perms[b].images[i] of e) and leaves as the one FqVector of
    the solve.
    """
    q, lead = inst.q, ech.h_prime.shape[1]
    tab = inst.wf.int_table_array()
    # [H'; H'']^T of each loop as float64: with entries below q < 2^16 and
    # fewer than 2^21 columns every product is an exact integer (cmsd._product)
    system = np.concatenate([ech.h_prime, ech.h_second], axis=1).swapaxes(1, 2).astype(np.float64)
    target = np.concatenate([ech.s_prime, ech.s_second], axis=1)
    for lo in range(0, desc.y, CANDIDATE_BLOCK):
        idx, e2 = desc.candidates(lo, min(lo + CANDIDATE_BLOCK, desc.y))
        if not idx.size:
            continue
        loop = np.searchsorted(desc.starts, idx, side="right") - 1
        bounds = [0, *(np.flatnonzero(np.diff(loop)) + 1), len(idx)]  # one run per loop
        e2f = e2.astype(np.float64)
        prod = np.empty((len(idx), system.shape[2]))
        for i, j in zip(bounds[:-1], bounds[1:]):
            np.matmul(e2f[i:j], system[loop[i]], out=prod[i:j])
        res = (target.take(loop, axis=0) - prod.astype(np.int64)) % q
        ok = ~res[:, lead:].any(axis=1) & (tab[res[:, :lead]].sum(axis=1) == w_rem)
        for i in np.flatnonzero(ok):
            e = np.empty(inst.n, dtype=np.int64)
            e[perms[loop[i]].images] = np.concatenate([res[i, :lead], e2[i]])
            hit = FqVector(q, e)
            if verify_solution(inst, hit):  # soundness guard; never expected to fail
                return int(loop[i]), hit, int(idx[i]) + 1
    return None, None, desc.y


def isd_solve(inst: SdInstance, params: IsdParams) -> SolveReport:
    """Run the permute / reduce / merge / test loop until a hit or budget end.

    Loops run in batches of about the loops one hit is expected to take,
    1 / (P1 * Z), and each batch without a hit doubles, within MAX_BATCH,
    BATCH_ROWS and the budget.  Where Z depends on H (dumer, and wagner1
    at a = 1), loop 1 runs alone to learn it.  The budget is set once loop
    1 is built, from its Z.  A batch cut short by a singular elimination
    is followed by one of the length it reached.
    """
    t0 = time.monotonic()
    plan = _loop_plan(inst, params)
    rng = random.Random(params.rng_seed)
    p1 = _exact_p1(inst, params.ell, params.p)
    # an empty outer sphere means no permutation can ever succeed
    budget = params.max_outer_loops if p1 > 0.0 else 0
    w_rem = inst.wf.scaled(inst.w - params.p)
    most = max(1, min(MAX_BATCH, BATCH_ROWS // max(plan.rows, 1)))

    def per_hit(z: float) -> int:
        return math.ceil(1.0 / max(p1 * max(z, 1e-300), 1e-12))

    z_hat = plan.expected
    singular_retries = 0
    cmsd_calls = 0
    tested = 0
    loops = 0
    failures = 0  # singular eliminations of the next loop so far
    size = 1 if z_hat is None else per_hit(z_hat)
    grow = True  # whether a batch without a hit doubles the next one
    solution = None
    while solution is None and loops < budget:
        batch = min(size, most, budget - loops)
        start = rng.getstate()
        perms, draws = _draw_ahead(inst, rng, plan.draw, batch)
        h = np.stack([apply_permutation(inst.h.values, perm) for perm in perms])
        syndromes = np.broadcast_to(inst.s.values, h.shape[:-1])
        ech = partial_gaussian_elim(h, params.ell, syndromes, inst.q)
        # the batch stops before its first singular elimination: the loops
        # before it are built and tested, and that loop draws a new permutation
        cut = int(np.argmax(ech.singular)) if ech.singular.any() else batch
        if cut:
            desc = plan.build(ech.h_second[:cut], ech.s_second[:cut], draws[:cut])
            if loops == 0:  # loop 1 is built: it sets the budget
                if z_hat is None:
                    z_hat = float(desc.meta.get("expected_solutions", 1.0))
                    size, grow = per_hit(z_hat), False
                budget = max(1, min(params.max_outer_loops, int(10.0 * per_hit(z_hat))))
            hit_loop, solution, n_tested = _first_hit(inst, desc, ech, perms, w_rem)
            done = cut if solution is None else hit_loop + 1
            loops += done
            cmsd_calls += done
            tested += n_tested
            if solution is not None:
                break
            if desc.overflow is not None:
                raise desc.overflow
            failures = 0
        if cut == batch:  # grow only once the budget is known
            size, grow = min(2 * size, most) if grow and loops else size, True
            continue
        # the next batch starts after the permutation of member cut
        singular_retries += 1
        failures += 1
        rng.setstate(start)
        _draw_ahead(inst, rng, plan.draw, cut)
        Permutation.random(inst.n, rng)
        size = max(1, cut)
        # elimination pivots over all rows, so a draw fails only when its
        # leading n-k-ell columns are rank-deficient (probability about
        # q^-(ell+1) for a full-rank H); 256 failures in a row point at H
        if failures == 256:
            failures = 0
            lead = inst.n - inst.k - params.ell
            if rank(inst.h) < lead:
                raise ValueError(f"H has rank below n-k-ell = {lead}: no information set exists")
            loops += 1
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
