"""Sort-and-match joining of syndrome lists on a coordinate subset.

The central operation combines two lists of vectors in F_q^m into the list
of all pairwise sums whose projection onto a coordinate subset J equals a
target vector there.  The left input is sorted on (loop, J-projection,
rest of the row), packed in base q into as few int64 words as hold them
(one 16-bit word where that holds them all, for numpy's radix sort); the
first word also gives each entry's key.  The keys the right input needs
are looked up in one bincount of those keys when the key space is a
small multiple of the lists, else by binary search, so the cost is
quasi-linear in the inputs and the output.  Every output entry keeps
index references to the pair that produced it.  Lists are immutable
values, validated and copied where they enter from outside; a merge's
output is valid by construction and is neither scanned nor copied.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fieldlin import _Frozen, _to_int

DEFAULT_LIST_CAP = 1 << 26


class MergeOverflowError(ValueError):
    """Merged output would exceed the configured size cap.

    loop is the first loop of a stack whose output would (0 for one list).
    """

    def __init__(self, message: str, loop: int = 0):
        super().__init__(message)
        self.loop = loop


@lru_cache(maxsize=256)
def _powers(q: int, width: int) -> np.ndarray:
    """q^(width-1), ..., q, 1 as a read-only int64 array."""
    out = q ** np.arange(width - 1, -1, -1, dtype=np.int64)
    out.setflags(write=False)
    return out


def _encode_keys(proj: np.ndarray, q: int, loop=None, nloops: int = 1) -> np.ndarray:
    """Collapse J-projections to scalar sort keys (int64 when they fit).

    With loop ids (each below nloops) the loop is the most significant
    digit, so the keys of different loops never meet.
    """
    width = proj.shape[1]
    if q**width * nloops < 2**62:
        keys = proj @ _powers(q, width)
        return keys if loop is None else keys + np.asarray(loop, dtype=np.int64) * q**width
    out = np.empty(proj.shape[0], dtype=object)
    for i in range(proj.shape[0]):
        acc = 0 if loop is None else int(loop[i])
        for c in range(width):
            acc = acc * q + int(proj[i, c])
        out[i] = acc
    return out


class _Layout(NamedTuple):
    mult: np.ndarray  # (columns, words): each column's multiplier in each word
    radix: bool  # one word below 2^16: sorted as uint16, numpy's stable radix sort
    top: int  # the loop multiplier of word 0
    div: int | None  # word 0 // div is the key; None where keys need Python ints


@lru_cache(maxsize=1024)
def _sort_layout(q: int, cols: tuple[int, ...], nloops: int, nkey: int) -> _Layout:
    """The sort words of rows ordered by (loop, the columns cols in that order).

    cols names every column once, the digit of highest rank first.  The
    loop (below nloops) leads word 0 and the digits follow in that order,
    each word taking as many as keep it below 2^63: column w of mult makes
    word w, and top multiplies the loop in word 0.  The key is the loop and
    the first nkey columns of cols, an int64 part of word 0 when
    nloops * q^nkey < 2^62, and then word 0 holds all of it.
    """
    starts, size = [0], nloops  # the first digit of each word
    for c in range(len(cols)):
        if size * q > 2**63:
            starts.append(c)
            size = 1
        size *= q
    ends = starts[1:] + [len(cols)]
    mult = np.zeros((len(cols), len(starts)), dtype=np.int64)
    for w, (lo, hi) in enumerate(zip(starts, ends)):
        mult[list(cols[lo:hi]), w] = _powers(q, hi - lo)
    mult.setflags(write=False)
    top = q ** ends[0]
    radix = len(starts) == 1 and nloops * top <= 1 << 16  # word 0 lies below nloops * top
    div = top // q**nkey if nloops * q**nkey < 2**62 else None
    return _Layout(mult, radix, top, div)


def _key_order(rows: np.ndarray, q: int, loop, nloops: int, nkey: int, cols=None):
    """(order, keys): the stable order of rows by (loop, rows[:, cols]), and each row's key.

    rows holds base-q digits and loop ids lie in [0, nloops) (loop None:
    all 0); cols defaults to the columns in order.  The loop and the
    columns are packed into as few int64 words as hold them, and one
    stable sort runs over the words, so ties keep insertion order: a
    lexsort, or numpy's radix sort of one word that fits 16 bits.
    keys[i] is row i's (loop, first nkey columns of cols) key, the int64
    that _encode_keys would give, taken from word 0; None where that key
    needs Python ints.
    """
    cols = tuple(range(rows.shape[1])) if cols is None else cols
    lay = _sort_layout(q, cols, nloops, nkey)
    words = rows @ lay.mult
    if loop is not None and nloops > 1:
        words[:, 0] += loop * lay.top
    first = words[:, 0]
    keys = None if lay.div is None else first if lay.div == 1 else first // lay.div
    if lay.radix:
        return first.astype(np.uint16).argsort(kind="stable"), keys
    return np.lexsort(words.T[::-1]), keys


def _check_J(J, width: int) -> tuple[int, ...]:
    if isinstance(J, np.ndarray) and J.dtype.kind in "iu":
        J = tuple(J.tolist())
    else:
        J = tuple(_to_int(j, "J entry") for j in J)
    if any(j < 0 or j >= width for j in J):
        raise ValueError(f"J must be a subset of coordinates 0..{width - 1}")
    if len(set(J)) != len(J):
        raise ValueError("J must not contain repeated coordinates")
    return J


class IndexedList(_Frozen):
    """An immutable list of syndrome-space vectors (entries in [0, q)) with opaque preimage references.

    backrefs[i] identifies how entry i was produced (a sphere rank for a
    base list, an index pair into the child lists for a merged one).  A
    stack of lists, one per outer loop, is one IndexedList whose loop array
    gives each entry's loop; every sort orders on the loop first.

    The constructor reads q as an integer of at least 2, validates the
    entries and loop ids, keeps read-only int64 copies of both (backrefs
    as given) and records loop_end, one past the largest loop id, which
    merge checks; a negative id reads as a huge one.  Lists that merge and
    the back ends make are valid by construction and skip all that (_made).
    """

    _fields = ("q", "syndromes", "backrefs", "loop", "loop_end")
    __eq__, __hash__ = object.__eq__, object.__hash__
    _keys: np.ndarray | None = None  # set by sort_on

    def __init__(self, q: int, syndromes: np.ndarray, backrefs: np.ndarray, loop=None):
        q = _to_int(q, "q")
        if q < 2:
            raise ValueError(f"q must be at least 2, not {q}")
        syn = np.array(syndromes, dtype=np.int64, order="C")
        backrefs = np.asarray(backrefs)
        if syn.ndim != 2:
            raise ValueError("syndromes must be a 2-D array")
        # sorts pack the entries as base-q digits; a negative one reads as a huge unsigned one
        if syn.size and syn.view(np.uint64).max() >= q:
            raise ValueError(f"syndrome entries must lie in [0, {q})")
        if len(backrefs) != syn.shape[0]:
            raise ValueError("backrefs length must match syndrome count")
        loop = None if loop is None else np.array(loop, dtype=np.int64)
        if loop is not None and loop.shape != (len(backrefs),):
            raise ValueError("loop ids must be one per entry")
        end = int(loop.view(np.uint64).max()) + 1 if loop is not None and len(loop) else 0
        self._set(q, syn, backrefs, loop, end)

    @classmethod
    def _made(cls, q, syndromes, backrefs, loop=None, loop_end=0) -> "IndexedList":
        """A list that is valid by construction: nothing is scanned or copied.

        syndromes is a C-contiguous int64 array with entries in [0, q), and
        every loop id lies below loop_end.  Both arrays are made read-only.
        """
        return cls.__new__(cls)._set(q, syndromes, backrefs, loop, loop_end)

    def _set(self, q, syndromes, backrefs, loop, loop_end) -> "IndexedList":
        for arr in (syndromes, loop):
            if arr is not None:
                arr.setflags(write=False)
        # the fields are frozen, so they are set past __setattr__
        vars(self).update(q=q, syndromes=syndromes, backrefs=backrefs, loop=loop, loop_end=loop_end)
        return self

    def __reduce__(self):  # pickle and deepcopy restore through _made, read-only again
        state = (self.q, self.syndromes, self.backrefs, self.loop, self.loop_end, self._keys)
        return _restore, state

    def __len__(self) -> int:
        return int(self.syndromes.shape[0])

    @property
    def width(self) -> int:
        return int(self.syndromes.shape[1])

    def _order_keys(self, J: tuple[int, ...], nloops: int) -> tuple[np.ndarray, np.ndarray]:
        """(order, the J-key of each entry in list order) for loop ids below nloops.

        The order is by (loop, J-projection, full vector, insertion index);
        entries equal on J differ only off J, so the columns after the
        J-projection are the others alone.  J is already checked.
        """
        loop = self.loop if nloops > 1 else None
        cols = (*J, *(c for c in range(self.width) if c not in J))
        order, keys = _key_order(self.syndromes, self.q, loop, nloops, len(J), cols)
        if keys is None:
            keys = _encode_keys(self.syndromes[:, list(J)], self.q, loop, nloops)
        return order, keys

    def sort_on(self, J) -> "IndexedList":
        """A copy in _order_keys's order on J, whose J-keys match_range searches."""
        J = _check_J(J, self.width)
        order, keys = self._order_keys(J, max(self.loop_end, 1))
        loop = None if self.loop is None else self.loop.take(order)
        syn, refs = self.syndromes.take(order, axis=0), self.backrefs.take(order, axis=0)
        out = IndexedList._made(self.q, syn, refs, loop, self.loop_end)
        vars(out).update(_keys=keys[order])
        return out

    def match_range(self, key) -> tuple[int, int]:
        """Index range of entries whose J-projection encodes to key."""
        if self._keys is None:
            raise ValueError("list is not sorted; call sort_on first")
        lo = int(np.searchsorted(self._keys, key, side="left"))
        hi = int(np.searchsorted(self._keys, key, side="right"))
        return lo, hi


def _restore(q, syndromes, backrefs, loop, loop_end, keys) -> IndexedList:
    """The IndexedList of a __reduce__ state: its loop_end and sort keys kept."""
    out = IndexedList._made(q, syndromes, backrefs, loop, loop_end)
    vars(out).update(_keys=keys)
    return out


def _target_on_J(t, J: tuple[int, ...], width: int, q: int, stacked: bool) -> np.ndarray:
    t = np.asarray(t, dtype=np.int64) % q
    if t.ndim == 1 + stacked and t.shape[-1] in (width, len(J)):
        return t[..., list(J)] if t.shape[-1] == width else t
    raise ValueError(f"target must have length {width} or {len(J)}" + " per loop" * stacked)


# a join counts L1's entries per key with one bincount when the key space
# is at most this many times the entries of both lists, else it searches
_BUCKETS_PER_ENTRY = 8


def merge(
    L1: IndexedList,
    L2: IndexedList,
    J,
    t,
    cap: int = DEFAULT_LIST_CAP,
) -> IndexedList:
    """All sums x + y with x in L1, y in L2 and (x + y)|J = t|J.

    Returns a new IndexedList whose backrefs are the (N, 2) int64 array of
    (i, j) index pairs into the input lists as given, in the order of L2's
    entries.  Raises MergeOverflowError if the output would exceed cap
    entries.

    Two stacks (both lists with loop ids) merge every loop in one pass: t
    holds one target per loop, entries of different loops never pair, and
    each loop's entries come out in the order its own merge would give
    them.  cap bounds each loop's output, and the error names the first
    loop over it.

    L1 is sorted on its sort words, whose word 0 also gives its keys.
    Each L2 entry's match range comes from a bincount of L1's keys where
    the key space nloops * q^|J| is small, else from a binary search of
    L1's sorted keys.
    """
    if L1.q != L2.q:
        raise ValueError("modulus mismatch between lists")
    if L1.width != L2.width:
        raise ValueError(f"syndrome length mismatch: {L1.width} vs {L2.width}")
    stacked = L1.loop is not None
    if stacked != (L2.loop is not None):
        raise ValueError("a stack of lists merges only with another stack")
    q = L1.q
    J = _check_J(J, L1.width)
    tJ = _target_on_J(t, J, L1.width, q, stacked)
    nloops = len(tJ) if stacked else 1
    if stacked and max(L1.loop_end, L2.loop_end) > nloops:
        raise ValueError(f"loop ids must lie in [0, {nloops})")
    loop2 = L2.loop if nloops > 1 else None  # every id of a stack of one is 0
    span = nloops * q ** len(J)  # the key space
    order, keys1 = L1._order_keys(J, nloops)
    t2 = tJ.take(loop2, axis=0) if loop2 is not None else tJ.reshape(1, -1)
    need = t2 - L2.syndromes[:, list(J)]
    need += (need >> 63) & q  # (t - y) mod q: adds q where the difference is negative
    need_keys = _encode_keys(need, q, loop2, nloops)
    if span <= _BUCKETS_PER_ENTRY * (len(L1) + len(L2)):
        per_key = np.bincount(keys1, minlength=span)  # any order of L1's keys counts alike
        counts = per_key.take(need_keys)
        lo = (per_key.cumsum() - per_key).take(need_keys)
    else:
        keys1 = keys1[order]
        lo = keys1.searchsorted(need_keys, side="left")
        counts = keys1.searchsorted(need_keys, side="right") - lo
    total = int(counts.sum())
    if total > cap:
        totals = np.bincount(loop2, counts, nloops) if loop2 is not None else [total]
        over = np.flatnonzero(np.asarray(totals) > cap)
        if over.size:
            b = int(over[0])
            raise MergeOverflowError(f"merge would produce {int(totals[b])} > cap {cap} entries", b)

    # output entry o of L2 row j pairs with sorted L1 row lo[j] + (o - first output of j)
    j_idx = np.arange(len(L2), dtype=np.int64).repeat(counts)
    pos1 = np.arange(total, dtype=np.int64) + (lo - (counts.cumsum() - counts)).repeat(counts)
    refs = np.empty((total, 2), dtype=np.int64)
    refs[:, 0] = order.take(pos1)
    refs[:, 1] = j_idx
    syn = (L1.syndromes.take(refs[:, 0], axis=0) + L2.syndromes.take(j_idx, axis=0)) % q
    loop = None if L2.loop is None else L2.loop.take(j_idx)
    return IndexedList._made(q, syn, refs, loop, L2.loop_end)
