"""Property tests: merge against the brute-force double loop, sphere rank round trips.

Every test runs under derandomize=True with no example database, so each
run draws the same cases.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from leeisd.merge import IndexedList, _encode_keys, merge
from leeisd.weights import SphereEnumerator, WeightFunction

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def merge_cases(draw, qs, widths, min_j):
    """Two lists, a coordinate subset J and a target (half the time the sum of a pair).

    Rows are copies of a few seed rows, about half of them with one
    coordinate redrawn, so matches and near misses on a wide J are common.
    """
    q = draw(st.sampled_from(qs))
    m = draw(widths)
    J = draw(st.lists(st.integers(0, m - 1), min_size=min(min_j, m), max_size=m, unique=True))
    coords = st.lists(st.integers(0, q - 1), min_size=m, max_size=m)
    seeds = draw(st.lists(coords, min_size=1, max_size=3))

    def rows():
        out = []
        for _ in range(draw(st.integers(1, 12))):
            row = list(draw(st.sampled_from(seeds)))
            if draw(st.booleans()):
                row[draw(st.integers(0, m - 1))] = draw(st.integers(0, q - 1))
            out.append(row)
        return np.array(out, dtype=np.int64)

    a, b = rows(), rows()
    if draw(st.booleans()):
        t = (a[draw(st.integers(0, len(a) - 1))] + b[draw(st.integers(0, len(b) - 1))]) % q
    else:
        t = np.array(draw(coords), dtype=np.int64)
    return q, IndexedList(q, a, np.arange(len(a))), IndexedList(q, b, np.arange(len(b))), J, t


def check_against_double_loop(q, L1, L2, J, t):
    out = merge(L1, L2, J, t)
    want = {
        (i, j)
        for i in range(len(L1))
        for j in range(len(L2))
        if np.array_equal((L1.syndromes[i] + L2.syndromes[j])[J] % q, t[J] % q)
    }
    pairs = [tuple(p) for p in out.backrefs.tolist()]
    assert len(pairs) == len(set(pairs)) == len(want)  # complete, no pair twice
    assert set(pairs) == want  # sound
    for (i, j), syn in zip(pairs, out.syndromes):
        assert np.array_equal(syn, (L1.syndromes[i] + L2.syndromes[j]) % q)


@FIXED
@given(merge_cases(qs=(2, 3, 5, 7), widths=st.integers(1, 5), min_j=0))
def test_merge_matches_double_loop(case):
    check_against_double_loop(*case)


@FIXED
@given(merge_cases(qs=(331,), widths=st.integers(8, 10), min_j=8))
def test_merge_matches_double_loop_object_keys(case):
    q, L1, L2, J, t = case
    assert _encode_keys(L1.syndromes[:, J], q).dtype == object  # q^|J| >= 2^62
    check_against_double_loop(*case)


TABLES = (
    WeightFunction.lee(3),
    WeightFunction.hamming(3),
    WeightFunction.lee(5),
    WeightFunction.hamming(7),
    WeightFunction(5, (0, 0, Fraction(1, 2), Fraction(3, 2), 1)),
    WeightFunction.lee(331),  # n = 10 spheres of mid weight hold more than 2^63 vectors
    WeightFunction.hamming(331),
)


@st.composite
def sphere_cases(draw):
    wf = draw(st.sampled_from(TABLES))
    n = draw(st.integers(1, 4 if wf.q == 331 else 10) | st.just(10))
    top = int(wf.int_table_array().max()) * n
    w_scaled = draw(st.integers(0, top))
    enum = SphereEnumerator(wf, n, Fraction(w_scaled, wf.denominator))
    ranks = draw(st.lists(st.integers(0, enum.count - 1), max_size=16)) if enum.count else []
    return wf, enum, w_scaled, ranks


@FIXED
@given(sphere_cases())
def test_sphere_rank_unrank_round_trips(case):
    wf, enum, w_scaled, ranks = case
    rows = enum.unrank_many(ranks)
    assert rows.shape == (len(ranks), enum.n)
    for r, row in zip(ranks, rows):
        assert np.array_equal(row, enum.unrank(r))
        assert enum.rank(row) == r
        assert int(wf.int_table_array()[row].sum()) == w_scaled
