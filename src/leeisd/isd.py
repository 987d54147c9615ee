"""The outer information-set-decoding loop and instance plumbing.

An instance is (H, s) over F_q with a target weight w; solving loops over
random column permutations, reduces H to a partial echelon form, asks a
back end for candidate bottom parts e'' with H'' e'' = s'' and weight p,
and tests whether the induced top part e' = s' - H' e'' carries the
remaining weight w - p.  A hit is mapped back through the permutation.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import cmsd
from .fieldlin import (
    FqMatrix,
    FqVector,
    Permutation,
    SingularTopLeftError,
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
    _to_int,
    sample_uniform_weight_w,
    sphere_count_exact,
    vector_weight,
)

VARIANTS = ("prange", "dumer", "wagner1", "wagner2")

# candidates evaluated and tested per batch: bounds memory, never changes a result
CANDIDATE_BLOCK = 4096


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
        """Read a to_dict document; a non-integer q, n, k or H, s, e entry is a ValueError."""
        q = _to_int(doc["q"], "q")
        wf = WeightFunction.from_spec(q, doc["weight"])
        inst = cls(
            q=q,
            n=_to_int(doc["n"], "n"),
            k=_to_int(doc["k"], "k"),
            w=doc["w"],
            wf=wf,
            h=FqMatrix(q, _int_entries(doc, "H")),
            s=FqVector(q, _int_entries(doc, "s")),
            planted=FqVector(q, _int_entries(doc, "e")) if "e" in doc else None,
        )
        inst.check_well_formed()
        return inst


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
    if not 0 < k < n:
        raise ValueError("need 0 < k < n")
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
    n, k, q = inst.n, inst.k, inst.q
    num = sphere_count_exact(inst.wf, n - k - ell, inst.w - p)
    if num == 0:
        return 0.0
    s_n_w = sphere_count_exact(inst.wf, n, inst.w)
    den = max(1, min(s_n_w // q**ell, q ** (n - k - ell)))
    return min(1.0, math.exp(min(math.log(num) - math.log(den), 0.0)))


def _build_cmsd(inst: SdInstance, params: IsdParams, ech, rng: random.Random):
    args = (ech.h_second, ech.s_second, inst.wf, params.p)
    if params.variant == "prange":
        return cmsd.cmsd_prange(*args)
    if params.variant == "dumer":
        return cmsd.cmsd_dumer(*args, params.list_size_cap)
    build = cmsd.cmsd_wagner_v1 if params.variant == "wagner1" else cmsd.cmsd_wagner_v2_build
    return build(*args, params.a, params.list_size_cap, rng)


def _check_params(inst: SdInstance, params: IsdParams) -> None:
    if not 0 <= params.ell <= inst.n - inst.k:
        raise ValueError(f"ell must lie in [0, {inst.n - inst.k}]")
    if params.p < 0 or params.p > inst.w:
        raise ValueError("weight budget p must lie in [0, w]")
    cmsd._budget(inst.wf, params.p)
    if params.variant == "prange" and (params.ell != 0 or params.p != 0):
        raise ValueError("prange requires ell = 0 and p = 0")


def _first_hit(inst: SdInstance, desc, ech, perm: Permutation, w_rem: int):
    """(first candidate of desc that completes to a solution, candidates tested).

    Candidates go in index order, CANDIDATE_BLOCK at a time; e' = s' - H' e''
    must carry the remaining scaled weight w_rem.  The count runs up to and
    including the hit, or over all of desc when there is none.  A hit is
    put back in place (coordinate i of the permuted vector is coordinate
    perm.images[i] of e) and leaves as the one FqVector of the loop.
    """
    q = inst.q
    h1, s1 = ech.h_prime, ech.s_prime
    tab = inst.wf.int_table_array()
    for lo in range(0, desc.y, CANDIDATE_BLOCK):
        e2 = desc.evaluate_many(np.arange(lo, min(lo + CANDIDATE_BLOCK, desc.y)))
        e1 = (s1 - e2 @ h1.T) % q
        for i in np.flatnonzero(desc.is_solution(e2) & (tab[e1].sum(axis=1) == w_rem)):
            e = np.empty(inst.n, dtype=np.int64)
            e[perm.images] = np.concatenate([e1[i], e2[i]])
            hit = FqVector(q, e)
            if verify_solution(inst, hit):  # soundness guard; never expected to fail
                return hit, lo + int(i) + 1
    return None, desc.y


def isd_solve(inst: SdInstance, params: IsdParams) -> SolveReport:
    """Run the permute / reduce / merge / test loop until a hit or budget end."""
    _check_params(inst, params)
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
            try:
                ech = partial_gaussian_elim(
                    apply_permutation(inst.h.values, perm), params.ell, inst.s.values, inst.q
                )
                break
            except SingularTopLeftError:
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
        solution, n_tested = _first_hit(inst, desc, ech, perm, w_rem)
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
