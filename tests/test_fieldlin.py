import random

import numpy as np
import pytest

from leeisd.fieldlin import (
    FqMatrix,
    FqVector,
    Permutation,
    SingularTopLeftError,
    apply_permutation,
    mat_vec_mul,
    partial_gaussian_elim,
    random_full_rank_matrix,
    rank,
    validate_modulus,
)


def test_modulus_validation():
    validate_modulus(2)
    validate_modulus(65521)
    with pytest.raises(ValueError):
        validate_modulus(4)
    with pytest.raises(ValueError):
        validate_modulus(1)
    with pytest.raises(ValueError):
        validate_modulus(1 << 17)


def test_vector_construction_and_range():
    v = FqVector(5, [0, 4, 2])
    assert v.tolist() == [0, 4, 2]
    with pytest.raises(ValueError):
        FqVector(5, [0, 5, 1])
    assert FqVector.from_ints(5, [-1, 7]).tolist() == [4, 2]
    with pytest.raises(ValueError):
        v.values[0] = 1  # frozen storage


def test_boundary_types_reject_non_integer_entries():
    for build in (
        lambda: FqVector(3, [1.7, 0.2]),
        lambda: FqVector(3, np.array([1.0, 2.0])),  # integral floats too
        lambda: FqVector(3, [True, False]),
        lambda: FqMatrix(3, [[True, 2.9]]),
        lambda: FqVector.from_ints(3, [4.5]),
        lambda: FqMatrix.from_ints(3, [[False]]),
    ):
        with pytest.raises(ValueError, match="integers"):
            build()
    # an empty list reads as float64 and stays valid
    assert FqVector(3, []).tolist() == []
    assert FqVector.from_ints(3, []).tolist() == []
    assert FqMatrix(3, np.zeros((0, 2))).values.shape == (0, 2)
    assert FqVector(3, np.array([2], dtype=np.uint8)).tolist() == [2]


def test_mat_vec_identity_and_zero():
    v = FqVector(3, [1, 2, 0])
    assert mat_vec_mul(FqMatrix.identity(3, 3), v) == v
    z = mat_vec_mul(FqMatrix.zeros(3, 2, 3), v)
    assert z.tolist() == [0, 0]


def test_mat_vec_hand_example_vs_schoolbook():
    m = FqMatrix(3, [[1, 2], [2, 2]])
    v = FqVector(3, [2, 1])
    got = mat_vec_mul(m, v)
    # independent schoolbook accumulation
    expect = []
    for i in range(m.rows):
        acc = 0
        for j in range(m.cols):
            acc += int(m.values[i, j]) * int(v.values[j])
        expect.append(acc % 3)
    assert got.tolist() == expect == [1, 0]


def test_mat_vec_errors():
    with pytest.raises(ValueError):
        mat_vec_mul(FqMatrix.identity(3, 3), FqVector(3, [1, 2]))
    with pytest.raises(ValueError):
        mat_vec_mul(FqMatrix.identity(3, 3), FqVector(5, [1, 2, 0]))


def test_mat_vec_linearity():
    rng = random.Random(101)
    q = 7
    for _ in range(100):
        m = FqMatrix.from_ints(q, [[rng.randrange(q) for _ in range(4)] for _ in range(3)])
        v = FqVector.from_ints(q, [rng.randrange(q) for _ in range(4)])
        w = FqVector.from_ints(q, [rng.randrange(q) for _ in range(4)])
        a, b = rng.randrange(q), rng.randrange(q)
        lhs = mat_vec_mul(m, FqVector(q, (a * v.values + b * w.values) % q)).values
        rhs = (a * mat_vec_mul(m, v).values + b * mat_vec_mul(m, w).values) % q
        assert np.array_equal(lhs, rhs)


def test_rank_basics():
    assert rank(FqMatrix.identity(5, 4)) == 4
    assert rank(FqMatrix.zeros(3, 3, 5)) == 0
    dependent = FqMatrix(5, [[1, 2], [2, 4]])  # second row = 2 * first
    assert rank(dependent) == 1


def test_random_full_rank_matrix():
    rng = random.Random(7)
    m = random_full_rank_matrix(3, 2, 4, rng)
    assert (m.rows, m.cols) == (2, 4) and rank(m) == 2
    only = random_full_rank_matrix(2, 1, 1, rng)
    assert only.tolist() == [[1]]
    for _ in range(200):
        assert rank(random_full_rank_matrix(5, 3, 6, rng)) == 3
    with pytest.raises(ValueError):
        random_full_rank_matrix(3, 4, 2, rng)


def test_permutation_roundtrip_and_oracle():
    rng = random.Random(13)
    v = FqVector.from_ints(7, [rng.randrange(7) for _ in range(9)]).values
    assert np.array_equal(apply_permutation(v, Permutation.identity(9)), v)
    perm = Permutation.random(9, rng)
    there = apply_permutation(v, perm)
    assert np.array_equal(apply_permutation(there, perm.inverse()), v)
    # naive index-loop oracle
    naive = [int(v[int(perm.images[i])]) for i in range(9)]
    assert there.tolist() == naive


def test_permutation_on_matrix_columns():
    rng = random.Random(3)
    m = FqMatrix.from_ints(5, [[rng.randrange(5) for _ in range(6)] for _ in range(2)])
    perm = Permutation.random(6, rng)
    pm = apply_permutation(m.values, perm)
    for j in range(6):
        assert pm[:, j].tolist() == m.values[:, int(perm.images[j])].tolist()
    with pytest.raises(ValueError):
        apply_permutation(m.values, Permutation.identity(5))


def test_partial_elim_ell_zero_systematic():
    q = 3
    a = np.array([[1, 0, 2, 1], [0, 1, 1, 2]], dtype=np.int64)
    h = FqMatrix(q, a)
    s = FqVector(q, [2, 1])
    ech = partial_gaussian_elim(h.values, 0, s.values, q)
    assert ech.h_prime.tolist() == [[2, 1], [1, 2]]
    assert ech.h_second.shape[0] == 0 and len(ech.s_second) == 0
    assert np.array_equal(ech.s_prime, s.values)


def test_partial_elim_singular_top_left():
    q = 3
    h = FqMatrix(q, [[0, 1, 1], [0, 2, 1]])  # zero first column
    s = FqVector(q, [1, 2])
    with pytest.raises(SingularTopLeftError):
        partial_gaussian_elim(h.values, 1, s.values, q)


def _consistent_pair(q, rows, cols, rng):
    m = random_full_rank_matrix(q, rows, cols, rng)
    x = FqVector.from_ints(q, [rng.randrange(q) for _ in range(cols)])
    return m, x, mat_vec_mul(m, x)


def test_partial_elim_blocks_and_consistency():
    rng = random.Random(29)
    q, rows, cols, ell = 3, 4, 7, 2
    for _ in range(25):
        h, x, s = _consistent_pair(q, rows, cols, rng)
        try:
            ech = partial_gaussian_elim(h.values, ell, s.values, q)
        except SingularTopLeftError:
            continue
        lead = rows - ell
        assert ech.h_prime.shape == (lead, cols - lead)
        assert ech.h_second.shape == (ell, cols - lead)
        # any solution x of Hx = s satisfies the reduced system
        x1, x2 = x.values[:lead], x.values[lead:]
        lhs1 = (x1 + ech.h_prime @ x2) % q
        lhs2 = (ech.h_second @ x2) % q
        assert np.array_equal(lhs1, ech.s_prime)
        assert np.array_equal(lhs2, ech.s_second)


def _assert_same_solution_set(h, s, ech, ell, q):
    rows, cols = h.shape
    lead = rows - ell
    full = np.zeros((rows, cols), dtype=np.int64)
    full[:lead, :lead] = np.eye(lead, dtype=np.int64)
    full[:lead, lead:] = ech.h_prime
    full[lead:, lead:] = ech.h_second
    s_full = np.concatenate([ech.s_prime, ech.s_second])
    for idx in range(q**cols):
        v = np.array([(idx // q**i) % q for i in range(cols)], dtype=np.int64)
        lhs_orig = np.array_equal((h @ v) % q, s)
        lhs_red = np.array_equal((full @ v) % q, s_full)
        assert lhs_orig == lhs_red


def test_partial_elim_block_form_reconstruction():
    # the reduction is a row operation: solution sets must coincide exactly
    rng = random.Random(31)
    q, rows, cols, ell = 3, 3, 5, 1
    h, _, s = _consistent_pair(q, rows, cols, rng)
    while True:
        try:
            ech = partial_gaussian_elim(h.values, ell, s.values, q)
            break
        except SingularTopLeftError:
            h, _, s = _consistent_pair(q, rows, cols, rng)
    _assert_same_solution_set(h.values, s.values, ech, ell, q)


def test_partial_elim_pivots_below_the_top_block():
    # the top-left 2x2 block is singular, but the first two columns have
    # full rank: the pivot of column 1 comes from the bottom row
    q, ell = 3, 1
    h = np.array([[1, 1, 0, 2, 1], [1, 1, 1, 0, 2], [0, 1, 2, 1, 0]], dtype=np.int64)
    assert rank(FqMatrix(q, h[:2, :2])) == 1 and rank(FqMatrix(q, h[:, :2])) == 2
    s = (h @ np.array([2, 0, 1, 1, 0])) % q
    ech = partial_gaussian_elim(h, ell, s, q)
    assert ech.h_prime.shape == (2, 3) and ech.h_second.shape == (1, 3)
    _assert_same_solution_set(h, s, ech, ell, q)


def test_partial_elim_bad_args():
    h = FqMatrix.identity(3, 3)
    s = FqVector(3, [0, 0, 0])
    with pytest.raises(ValueError):
        partial_gaussian_elim(h.values, 4, s.values, 3)
    with pytest.raises(ValueError):
        partial_gaussian_elim(h.values, 1, FqVector(3, [0, 0]).values, 3)
