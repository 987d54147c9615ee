"""Exact dense linear algebra over prime fields F_q.

Values are machine-integer residues reduced mod q after every operation;
the modulus is restricted to primes below 2**16 so that int64 accumulation
never overflows for any realistic dimension.  FqVector and FqMatrix are the
boundary types: they validate and freeze data where it enters or leaves
the library (instances, solutions, the CLI), and np.asarray turns either
into its values.  Permutation and partial elimination work on plain int64
arrays already reduced mod q; elimination mutates a local scratch copy
only, and pivots over all rows, so it fails only when the leading columns
are rank-deficient.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

MAX_MODULUS = 1 << 16


class SingularTopLeftError(Exception):
    """The leading columns are rank-deficient; re-randomize the permutation."""


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q < 4:
        return True
    if q % 2 == 0:
        return False
    d = 3
    while d * d <= q:
        if q % d == 0:
            return False
        d += 2
    return True


def validate_modulus(q: int) -> int:
    """Check that q is a prime suitable for this library and return it."""
    if not isinstance(q, (int, np.integer)):
        raise TypeError(f"modulus must be an integer, got {type(q).__name__}")
    q = int(q)
    if q >= MAX_MODULUS:
        raise ValueError(f"modulus {q} too large (must be < 2**16)")
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")
    return q


def _integer_array(x) -> np.ndarray:
    """x as an array, which must hold integers: a float or bool entry is a
    ValueError, never truncated.  An empty input passes whatever its dtype."""
    arr = np.asarray(x)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"entries must be integers, not {arr.dtype} values")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.int64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class _FqArray:
    """Immutable int64 array of a fixed rank (_ndim) with entries in [0, q).

    An input of lower rank gains leading axes of length one before the one
    frozen copy is taken, so values is never a view of another array.
    """

    q: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", validate_modulus(self.q))
        vals = _integer_array(self.values)
        vals = _freeze(vals.reshape((1,) * (self._ndim - vals.ndim) + vals.shape))
        if vals.ndim != self._ndim:
            raise ValueError(self._rank_error)
        if vals.size and (vals.min() < 0 or vals.max() >= self.q):
            raise ValueError(f"entries must lie in [0, {self.q})")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_ints(cls, q: int, seq):
        """Build from arbitrary integers, reducing mod q."""
        return cls(q, _integer_array(seq).astype(np.int64) % q)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.q == other.q
            and np.array_equal(self.values, other.values)
        )

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype, copy=copy)

    def tolist(self) -> list:
        return self.values.tolist()


class FqVector(_FqArray):
    """Immutable vector with entries in [0, q)."""

    _ndim, _rank_error = 1, "vector must be one-dimensional"

    @classmethod
    def zeros(cls, q: int, n: int) -> "FqVector":
        return cls(q, np.zeros(n, dtype=np.int64))

    def __len__(self) -> int:
        return int(self.values.shape[0])


class FqMatrix(_FqArray):
    """Immutable row-major matrix with entries in [0, q)."""

    _ndim, _rank_error = 2, "matrix must be two-dimensional"

    @classmethod
    def identity(cls, q: int, n: int) -> "FqMatrix":
        return cls(q, np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, q: int, rows: int, cols: int) -> "FqMatrix":
        return cls(q, np.zeros((rows, cols), dtype=np.int64))

    @property
    def rows(self) -> int:
        return int(self.values.shape[0])

    @property
    def cols(self) -> int:
        return int(self.values.shape[1])


@dataclass(frozen=True, eq=False)
class Permutation:
    """A bijection on n positions, stored as 0-based images."""

    images: np.ndarray

    def __post_init__(self):
        imgs = _freeze(self.images)
        n = imgs.shape[0]
        if imgs.ndim != 1 or not np.array_equal(np.sort(imgs), np.arange(n)):
            raise ValueError("images must be a permutation of 0..n-1")
        object.__setattr__(self, "images", imgs)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n, dtype=np.int64))

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "Permutation":
        imgs = list(range(n))
        rng.shuffle(imgs)
        return cls(np.asarray(imgs, dtype=np.int64))

    def __len__(self) -> int:
        return int(self.images.shape[0])

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self.images, other.images)

    def inverse(self) -> "Permutation":
        inv = np.empty(len(self), dtype=np.int64)
        inv[self.images] = np.arange(len(self), dtype=np.int64)
        return Permutation(inv)


def apply_permutation(values: np.ndarray, perm: Permutation) -> np.ndarray:
    """Reorder the last axis: a vector's coordinates or a matrix's columns.

    result[..., i] = values[..., perm.images[i]].  Applying a permutation
    and then its inverse restores the input.
    """
    if values.shape[-1] != len(perm):
        raise ValueError("permutation size does not match the last axis")
    return values[..., perm.images]


def mat_vec_mul(m: FqMatrix, v: FqVector) -> FqVector:
    """Matrix-vector product over F_q."""
    if m.q != v.q:
        raise ValueError(f"modulus mismatch: {m.q} vs {v.q}")
    if m.cols != len(v):
        raise ValueError(f"dimension mismatch: {m.rows}x{m.cols} times length {len(v)}")
    return FqVector(m.q, (m.values @ v.values) % m.q)


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


@dataclass(frozen=True, eq=False)
class PartialEchelon:
    """Output blocks of partial Gaussian elimination, as int64 arrays.

    An invertible row operation S brings the input to the block form
    [[I, h_prime], [0, h_second]] and maps the syndrome to
    (s_prime, s_second).  S itself is not materialized.
    """

    h_prime: np.ndarray
    h_second: np.ndarray
    s_prime: np.ndarray
    s_second: np.ndarray


def partial_gaussian_elim(h: np.ndarray, ell: int, s: np.ndarray, q: int) -> PartialEchelon:
    """Reduce the first (rows - ell) columns of h to the identity.

    Pivoting is plain row swapping over all rows: column c takes its pivot
    from rows c..rows-1, so the reduction fails with SingularTopLeftError
    only when the first (rows - ell) columns do not have full rank, and
    the caller must then pick a new column permutation.  Row operations
    are carried into s simultaneously.

    Args:
        h: (n - k) x n int64 array with entries in [0, q).
        ell: number of bottom rows left unreduced, 0 <= ell <= n - k.
        s: syndrome of length n - k, entries in [0, q).
        q: the prime modulus.

    Returns:
        PartialEchelon with blocks of shapes (n-k-ell) x (k+ell) and
        ell x (k+ell), plus the transformed syndrome halves.
    """
    r, n = h.shape
    if len(s) != r:
        raise ValueError("syndrome length must equal matrix row count")
    if not 0 <= ell <= r:
        raise ValueError(f"ell must lie in [0, {r}]")
    lead = r - ell
    a = np.concatenate([h, s[:, None]], axis=1).astype(np.int64)
    for c in range(lead):
        piv = None
        for row in range(c, r):
            if a[row, c] != 0:
                piv = row
                break
        if piv is None:
            raise SingularTopLeftError(f"no pivot available in column {c}")
        if piv != c:
            a[[c, piv]] = a[[piv, c]]
        inv = pow(int(a[c, c]), q - 2, q)
        a[c] = (a[c] * inv) % q
        col = a[:, c].copy()
        col[c] = 0
        a = (a - np.outer(col, a[c])) % q
    return PartialEchelon(a[:lead, lead:n], a[lead:, lead:n], a[:lead, n], a[lead:, n])
