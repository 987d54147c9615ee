"""Exact dense linear algebra over prime fields F_q.

Values are machine-integer residues reduced mod q after every operation;
the modulus is restricted to primes below 2**16 so that int64 accumulation
never overflows for any realistic dimension (partial elimination and
rank defer their reductions on that bound).  FqVector and FqMatrix are the
boundary types: they validate and freeze data where it enters or leaves
the library (instances, solutions, the CLI), store each residue in one
byte (two above q = 256), and values or np.asarray gives a read-only
int64 copy.  Permutation and partial elimination work on plain integer
arrays already reduced mod q; elimination mutates a local int64 scratch
copy only, and pivots over all rows, so it flags a matrix singular only
when its leading columns are rank-deficient.
"""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError
from functools import lru_cache

import numpy as np

MAX_MODULUS = 1 << 16


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
        raise ValueError(f"modulus must be an integer, got {type(q).__name__}")
    q = int(q)
    if q >= MAX_MODULUS:
        raise ValueError(f"modulus {q} too large (must be < 2**16)")
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")
    return q


def _integer_array(x) -> np.ndarray:
    """x as an array, which must hold integers: a float or bool entry is a
    ValueError, never truncated.  An empty input passes whatever its dtype.
    An array is judged by its dtype; a list or tuple also entry by entry,
    since numpy reads [1, True] as integers."""
    arr = np.asarray(x)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"entries must be integers, not {arr.dtype} values")
    if isinstance(x, (list, tuple)) and any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(x, dtype=object).flat
    ):
        raise ValueError("entries must be integers, not bool values")
    return arr


def _to_int(x, name: str) -> int:
    """An integer field read from outside: ints and numpy integers pass; bools,
    floats and strings are a ValueError naming the field, never truncated."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {x!r}")
    return int(x)


def _freeze(arr, dtype=np.int64) -> np.ndarray:
    out = np.array(arr, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


class _Frozen:
    """Base of the frozen records: each __init__ sets its fields once, with _assign.

    _fields names the fields in constructor order.  repr shows them, and
    two records of one type are equal, with equal hashes, when their field
    tuples are; a record compared by identity takes object's __eq__ and
    __hash__ back.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _assign(self, **fields):
        # past __setattr__; object.__setattr__ keeps the values inline, where
        # an update of vars(self) would make each record carry its own dict
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"


class _FqArray(_Frozen):
    """Immutable array of a fixed rank (_ndim) with entries in [0, q).

    The entries are stored in the narrowest unsigned type that holds q - 1:
    uint8 for q <= 256, uint16 below MAX_MODULUS.  They are checked on the
    input before it is narrowed, and an input of lower rank gains leading
    axes of length one, so the one frozen copy is never a view of another
    array.  values and np.asarray give the entries as int64.
    """

    _fields = ("q", "_stored")

    def __init__(self, q: int, values):
        q = validate_modulus(q)
        vals = _integer_array(values)
        vals = vals.reshape((1,) * (self._ndim - vals.ndim) + vals.shape)
        if vals.ndim != self._ndim:
            raise ValueError(self._rank_error)
        if vals.size and (vals.min() < 0 or vals.max() >= q):
            raise ValueError(f"entries must lie in [0, {q})")
        self._assign(q=q, _stored=_freeze(vals, np.uint8 if q <= 256 else np.uint16))

    @property
    def residues(self) -> np.ndarray:
        """The stored entries, read-only: integer type not fixed; do arithmetic on `values`."""
        return self._stored

    @property
    def values(self) -> np.ndarray:
        """The entries as a read-only int64 copy, made on each access."""
        return _freeze(self._stored)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.q == other.q
            and np.array_equal(self._stored, other._stored)
        )

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("the int64 entries of an Fq array are always a copy")
        return np.array(self.values, dtype=dtype, copy=copy)

    def tolist(self) -> list:
        return self._stored.tolist()

    def __reduce__(self):  # pickle and deepcopy rebuild through the checks, read-only again
        return type(self), (self.q, self._stored)


class FqVector(_FqArray):
    """Immutable vector with entries in [0, q)."""

    _ndim, _rank_error = 1, "vector must be one-dimensional"

    def __len__(self) -> int:
        return int(self._stored.shape[0])


class FqMatrix(_FqArray):
    """Immutable row-major matrix with entries in [0, q)."""

    _ndim, _rank_error = 2, "matrix must be two-dimensional"

    @property
    def rows(self) -> int:
        return int(self._stored.shape[0])

    @property
    def cols(self) -> int:
        return int(self._stored.shape[1])


class Permutation(_Frozen):
    """A bijection on n positions, stored as 0-based images."""

    _fields = ("images",)

    def __init__(self, images: np.ndarray):
        imgs = _freeze(_integer_array(images))
        n = imgs.shape[0]
        if imgs.ndim != 1 or not np.array_equal(np.sort(imgs), np.arange(n)):
            raise ValueError("images must be a permutation of 0..n-1")
        self._assign(images=imgs)

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "Permutation":
        """The permutation rng.shuffle(list(range(n))) gives, leaving rng as it would.

        For a plain random.Random the shuffle runs inline: each swap index
        is the first getrandbits(k) value at most i, k the bit length of
        i + 1, which is what shuffle's _randbelow(i + 1) draws.
        """
        imgs = list(range(n))
        if type(rng) is random.Random:
            getrandbits = rng.getrandbits
            for i in range(n - 1, 0, -1):
                k = (i + 1).bit_length()
                j = getrandbits(k)
                while j > i:
                    j = getrandbits(k)
                imgs[i], imgs[j] = imgs[j], imgs[i]
        else:  # a subclass may draw differently
            rng.shuffle(imgs)
        perm = object.__new__(cls)  # a shuffle is a permutation: skip the check
        object.__setattr__(perm, "images", _freeze(imgs))
        return perm

    def __len__(self) -> int:
        return int(self.images.shape[0])

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self.images, other.images)

    def __reduce__(self):  # pickle and deepcopy rebuild through the checks, read-only again
        return type(self), (self.images,)


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


@lru_cache(maxsize=64)
def _inverses(q: int) -> np.ndarray:
    """x^(q-2) mod q for every x in [0, q): the inverse of each unit, and 0 at 0."""
    x, out, e = np.arange(q, dtype=np.int64), np.ones(q, dtype=np.int64), q - 2
    while e:
        if e & 1:
            out = out * x % q
        x, e = x * x % q, e >> 1
    out[0] = 0
    out.setflags(write=False)  # one cached table per q, shared by every call
    return out


def rank(m: FqMatrix) -> int:
    """Rank over F_q via Gaussian elimination.

    Column c takes its pivot at the largest reduced entry of rows r..,
    so a zero maximum means no pivot.  As in partial_gaussian_elim,
    entries are reduced mod q only in the pivot column and the pivot row;
    each step moves an entry by less than q^2, so for fewer than 2^15
    steps and q < 2^16 every product stays below 2^63.
    """
    a = np.array(m.residues, dtype=np.int64)
    q, inv = m.q, _inverses(m.q)
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = a[r:, c] % q
        off = int(col.argmax())
        if col[off] == 0:
            continue
        row = a[r + off, c + 1 :] * inv[col[off]] % q
        if off:  # row r moves to the pivot row's place; its own is never read again
            a[r + off, c + 1 :] = a[r, c + 1 :]
            col[off] = col[0]
        a[r + 1 :, c + 1 :] -= col[1:, None] * row  # column c is never read again either
        r += 1
    return r


def _randbelow_many(q: int, count: int, rng: random.Random) -> np.ndarray:
    """count successive rng.randrange(q) values, leaving rng as those calls would.

    randrange(q) takes 32-bit words w and returns the first
    w >> (32 - q.bit_length()) below q.  Each pass draws exactly as many
    words as values are still missing, in one getrandbits call whose
    little-endian bytes are the words in draw order, so no word is drawn
    that the calls one by one would not also draw.
    """
    shift = 32 - q.bit_length()
    out = np.empty(count, dtype=np.int64)
    done = 0
    while done < count:
        need = count - done
        words = np.frombuffer(rng.getrandbits(32 * need).to_bytes(4 * need, "little"), "<u4")
        vals = words >> shift
        kept = vals[vals < q]
        out[done : done + len(kept)] = kept
        done += len(kept)
    return out


def random_full_rank_matrix(q: int, rows: int, cols: int, rng: random.Random) -> FqMatrix:
    """Uniformly random matrix conditioned on full row rank (rejection sampling).

    Entries are drawn row by row as rng.randrange(q) would draw them, so a
    seed gives the same matrix and leaves rng in the same state.
    """
    validate_modulus(q)
    rows, cols = _to_int(rows, "rows"), _to_int(cols, "cols")
    if not 0 <= rows <= cols:
        raise ValueError("rows must lie in [0, cols] for a full row-rank matrix")
    while True:
        m = FqMatrix(q, _randbelow_many(q, rows * cols, rng).reshape(rows, cols))
        if rank(m) == rows:
            return m


class PartialEchelon(_Frozen):
    """Output blocks of partial Gaussian elimination, as int64 arrays.

    An invertible row operation S brings the input to the block form
    [[I, h_prime], [0, h_second]] and maps the syndrome to
    (s_prime, s_second).  S itself is not materialized.  For a stack of
    inputs every block gains the stack's leading shape, and singular, a
    bool array of that shape (0-d for one matrix), flags the members whose
    leading columns are rank-deficient; their blocks mean nothing.
    """

    _fields = ("h_prime", "h_second", "s_prime", "s_second", "singular")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, h_prime, h_second, s_prime, s_second, singular):
        self._assign(h_prime=h_prime, h_second=h_second, s_prime=s_prime)
        self._assign(s_second=s_second, singular=singular)


def partial_gaussian_elim(h: np.ndarray, ell: int, s: np.ndarray, q: int) -> PartialEchelon:
    """Reduce the first (rows - ell) columns of h to the identity.

    Pivoting is plain row exchange over all rows: column c takes its pivot
    from the first row of c..rows-1 with a nonzero entry there, so the
    reduction fails only when the first (rows - ell) columns do not have
    full rank, and the caller must then pick a new column permutation.
    Row operations are carried into s simultaneously.  h may be one
    (rows, n) matrix or a stack of any leading shape, with s of h's shape
    less its last axis; each member takes its own pivot rows, and a failed
    member is flagged in singular, never raised.

    Args:
        h: (n - k) x n array of any integer dtype with entries in [0, q),
            or a stack of them; it is widened to int64 in the one copy made.
        ell: number of bottom rows left unreduced, 0 <= ell <= n - k.
        s: syndrome of length n - k, entries in [0, q), or a stack of them.
        q: the prime modulus.

    Returns:
        PartialEchelon with blocks of shapes (n-k-ell) x (k+ell) and
        ell x (k+ell), plus the transformed syndrome halves, each behind
        h's leading shape.
    """
    r, n = h.shape[-2:]
    if s.shape != h.shape[:-1]:
        raise ValueError("syndrome length must equal matrix row count")
    if not 0 <= ell <= r:
        raise ValueError(f"ell must lie in [0, {r}]")
    lead, stack = r - ell, h.shape[:-2]
    out = np.empty(stack + (r, n + 1), dtype=np.int64)
    out[..., :n], out[..., n] = h, s
    a = out.reshape(-1, r, n + 1)
    rows = a.reshape(-1, n + 1)  # member b's row i is rows[b * r + i]
    starts = np.arange(0, len(rows), r) + np.arange(lead)[:, None]  # row c of each member
    inv = _inverses(q)
    # entries are reduced mod q only where a decision reads them (the pivot
    # column) and once at the end; in between each step moves an entry by
    # less than q^2, so |entry| < (lead + 1) q^2 and even a pivot row times
    # an inverse stays below (lead + 1) q^3 < 2^63 for any lead below 2^15
    for c in range(lead):
        col = a[:, :, c] % q
        piv = starts[c] + (col[:, c:] != 0).argmax(axis=1)
        # a member without a pivot takes row c, scaled by inv[0] = 0: a zero on the diagonal
        row = rows.take(piv, axis=0)[:, c:] * inv.take(col.take(piv))[:, None] % q
        a[:, :, c:] -= col[:, :, None] * row[:, None, :]  # columns left of c are zero in row
        rows[piv, c:] = a[:, c, c:]  # the exchange: reduced row c to the pivot's place
        a[:, c, c:] = row
    a %= q
    singular = (a[:, np.arange(lead), np.arange(lead)] == 0).any(axis=1).reshape(stack)
    top, bottom = out[..., :lead, :], out[..., lead:, :]
    return PartialEchelon(
        top[..., lead:n], bottom[..., lead:n], top[..., n], bottom[..., n], singular
    )
