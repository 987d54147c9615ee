"""Sort-and-match joining of syndrome lists on a coordinate subset.

The central operation combines two lists of vectors in F_q^m into the list
of all pairwise sums whose projection onto a coordinate subset J equals a
target vector there.  One input is sorted lexicographically on J and the
other is streamed against it with binary search, so the cost is
quasi-linear in the larger of the inputs and the output.  Every output
entry keeps index references to the pair that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .weights import _to_int

DEFAULT_LIST_CAP = 1 << 26


class MergeOverflowError(ValueError):
    """Merged output would exceed the configured size cap."""


def _encode_keys(proj: np.ndarray, q: int) -> np.ndarray:
    """Collapse J-projections to scalar sort keys (int64 when they fit)."""
    width = proj.shape[1]
    if width == 0:
        return np.zeros(proj.shape[0], dtype=np.int64)
    if q**width < 2**62:
        keys = np.zeros(proj.shape[0], dtype=np.int64)
        for c in range(width):
            keys = keys * q + proj[:, c]
        return keys
    keys = np.empty(proj.shape[0], dtype=object)
    for i in range(proj.shape[0]):
        acc = 0
        for c in range(width):
            acc = acc * q + int(proj[i, c])
        keys[i] = acc
    return keys


def _check_J(J, width: int) -> tuple[int, ...]:
    J = tuple(_to_int(j, "J entry") for j in J)
    if any(j < 0 or j >= width for j in J):
        raise ValueError(f"J must be a subset of coordinates 0..{width - 1}")
    if len(set(J)) != len(J):
        raise ValueError("J must not contain repeated coordinates")
    return J


@dataclass(eq=False)
class IndexedList:
    """A list of syndrome-space vectors with opaque preimage references.

    backrefs[i] identifies how entry i was produced (a sphere rank for a
    base list, an index pair into the child lists for a merged one).  If
    sorted_on is set, entries are ordered by the projection onto those
    coordinates, with full-vector lexicographic order and then insertion
    order breaking ties, which makes "first match" well defined.
    """

    q: int
    syndromes: np.ndarray
    backrefs: np.ndarray
    sorted_on: tuple[int, ...] | None = None
    _keys: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.syndromes = np.ascontiguousarray(self.syndromes, dtype=np.int64)
        self.backrefs = np.asarray(self.backrefs)
        if self.syndromes.ndim != 2:
            raise ValueError("syndromes must be a 2-D array")
        if len(self.backrefs) != self.syndromes.shape[0]:
            raise ValueError("backrefs length must match syndrome count")

    def __len__(self) -> int:
        return int(self.syndromes.shape[0])

    @property
    def width(self) -> int:
        return int(self.syndromes.shape[1])

    def sort_order(self, J: tuple[int, ...]) -> np.ndarray:
        """Stable ordering by (J-projection, full vector, insertion index)."""
        J = _check_J(J, self.width)
        keys = [np.arange(len(self))]
        for c in range(self.width - 1, -1, -1):
            keys.append(self.syndromes[:, c])
        for j in reversed(J):
            keys.append(self.syndromes[:, j])
        return np.lexsort(tuple(keys))

    def sort_on(self, J) -> "IndexedList":
        """Return a copy ordered by the J-projection (no-op if already sorted)."""
        J = _check_J(J, self.width)
        if self.sorted_on == J and self._keys is not None:
            return self
        order = self.sort_order(J)
        out = IndexedList(
            q=self.q,
            syndromes=self.syndromes[order],
            backrefs=self.backrefs[order],
            sorted_on=J,
        )
        out._keys = _encode_keys(out.syndromes[:, list(J)], self.q)
        return out

    def match_range(self, key) -> tuple[int, int]:
        """Index range of entries whose J-projection encodes to key."""
        if self._keys is None:
            raise ValueError("list is not sorted; call sort_on first")
        lo = int(np.searchsorted(self._keys, key, side="left"))
        hi = int(np.searchsorted(self._keys, key, side="right"))
        return lo, hi


def _target_on_J(t, J: tuple[int, ...], width: int, q: int) -> np.ndarray:
    t = np.asarray(t, dtype=np.int64) % q
    if t.shape == (width,):
        return t[list(J)]
    if t.shape == (len(J),):
        return t
    raise ValueError(f"target must have length {width} or {len(J)}")


def merge(
    L1: IndexedList,
    L2: IndexedList,
    J,
    t,
    cap: int = DEFAULT_LIST_CAP,
) -> IndexedList:
    """All sums x + y with x in L1, y in L2 and (x + y)|J = t|J.

    Returns a new IndexedList whose backrefs are the (N, 2) int64 array of
    (i, j) index pairs into the input lists as given.  Raises
    MergeOverflowError if the output would exceed cap entries.
    """
    if L1.q != L2.q:
        raise ValueError("modulus mismatch between lists")
    if L1.width != L2.width:
        raise ValueError(f"syndrome length mismatch: {L1.width} vs {L2.width}")
    q = L1.q
    J = _check_J(J, L1.width)
    tJ = _target_on_J(t, J, L1.width, q)

    order = L1.sort_order(J)
    syn1 = L1.syndromes[order]
    keys1 = _encode_keys(syn1[:, list(J)], q)
    need_keys = _encode_keys((tJ[None, :] - L2.syndromes[:, list(J)]) % q, q)
    lo = np.searchsorted(keys1, need_keys, side="left")
    hi = np.searchsorted(keys1, need_keys, side="right")
    counts = (hi - lo).astype(np.int64)
    total = int(counts.sum())
    if total > cap:
        raise MergeOverflowError(f"merge would produce {total} > cap {cap} entries")

    # output entry o of L2 row j pairs with sorted L1 row lo[j] + (o - first output of j)
    j_idx = np.repeat(np.arange(len(L2), dtype=np.int64), counts)
    pos1 = np.arange(total, dtype=np.int64) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    syn = (syn1[pos1] + L2.syndromes[j_idx]) % q
    return IndexedList(q, syn, np.stack([order[pos1], j_idx], axis=1))
