import copy
import pickle
import random
import warnings

import numpy as np
import pytest

import leeisd.isd as isd
import oracles
from leeisd.fieldlin import (
    FqMatrix,
    FqVector,
    Permutation,
    apply_permutation,
    mat_vec_mul,
    partial_gaussian_elim,
    random_full_rank_matrix,
    rank,
    validate_modulus,
)
from leeisd.isd import SdInstance, verify_solution
from leeisd.merge import IndexedList
from leeisd.weights import WeightFunction, sphere_exponent


def test_modulus_validation():
    validate_modulus(2)
    validate_modulus(65521)
    with pytest.raises(ValueError):
        validate_modulus(4)
    with pytest.raises(ValueError):
        validate_modulus(1)
    with pytest.raises(ValueError):
        validate_modulus(1 << 17)


def test_non_integer_modulus_is_a_value_error():
    # a float modulus raised TypeError, outside the library's ValueError contract
    for build in (
        lambda: validate_modulus(3.0),
        lambda: FqVector(3.0, [1]),
        lambda: FqMatrix(3.0, [[1]]),
    ):
        with pytest.raises(ValueError, match="modulus must be an integer"):
            build()


def test_vector_construction_and_range():
    v = FqVector(5, [0, 4, 2])
    assert v.tolist() == [0, 4, 2]
    with pytest.raises(ValueError):
        FqVector(5, [0, 5, 1])
    with pytest.raises(ValueError):
        v.values[0] = 1  # frozen storage


def test_boundary_types_reject_non_integer_entries():
    for build in (
        lambda: FqVector(3, [1.7, 0.2]),
        lambda: FqVector(3, np.array([1.0, 2.0])),  # integral floats too
        lambda: FqVector(3, [True, False]),
        lambda: FqMatrix(3, [[True, 2.9]]),
        lambda: FqVector(3, [4.5]),
        lambda: FqMatrix(3, [[False]]),
    ):
        with pytest.raises(ValueError, match="integers"):
            build()
    # an empty list reads as float64 and stays valid
    assert FqVector(3, []).tolist() == []
    assert FqMatrix(3, np.zeros((0, 2))).values.shape == (0, 2)
    assert FqVector(3, np.array([2], dtype=np.uint8)).tolist() == [2]


def test_boundary_types_reject_a_bool_among_integers():
    # numpy reads [1, True] as int64, so the bool came back as 1
    for build in (
        lambda: FqVector(3, [1, True]),
        lambda: FqMatrix(3, [[1, True]]),
        lambda: FqMatrix(3, [[2, 0], (1, np.True_)]),
    ):
        with pytest.raises(ValueError, match="not bool values"):
            build()
    assert FqVector(3, [np.int64(1), 2]).tolist() == [1, 2]
    assert FqMatrix(3, [np.array([1, 2], dtype=np.int32)]).tolist() == [[1, 2]]


def test_permutation_rejects_non_integer_images():
    # the int64 copy used to truncate floats and read bools as 0 and 1
    for images in (np.array([0, 1.0]), [True, False], [1, True, 0]):
        with pytest.raises(ValueError, match="integers"):
            Permutation(images)
    assert Permutation(np.array([1, 0], dtype=np.int32)).images.tolist() == [1, 0]
    assert Permutation([np.int64(1), 0]).images.tolist() == [1, 0]


def test_mat_vec_identity_and_zero():
    v = FqVector(3, [1, 2, 0])
    assert mat_vec_mul(FqMatrix(3, np.eye(3, dtype=np.int64)), v) == v
    z = mat_vec_mul(FqMatrix(3, np.zeros((2, 3), dtype=np.int64)), v)
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
        mat_vec_mul(FqMatrix(3, np.eye(3, dtype=np.int64)), FqVector(3, [1, 2]))
    with pytest.raises(ValueError):
        mat_vec_mul(FqMatrix(3, np.eye(3, dtype=np.int64)), FqVector(5, [1, 2, 0]))


def test_mat_vec_linearity():
    rng = random.Random(101)
    q = 7
    for _ in range(100):
        m = FqMatrix(q, [[rng.randrange(q) for _ in range(4)] for _ in range(3)])
        v = FqVector(q, [rng.randrange(q) for _ in range(4)])
        w = FqVector(q, [rng.randrange(q) for _ in range(4)])
        a, b = rng.randrange(q), rng.randrange(q)
        lhs = mat_vec_mul(m, FqVector(q, (a * v.values + b * w.values) % q)).values
        rhs = (a * mat_vec_mul(m, v).values + b * mat_vec_mul(m, w).values) % q
        assert np.array_equal(lhs, rhs)


def test_rank_basics():
    assert rank(FqMatrix(5, np.eye(4, dtype=np.int64))) == 4
    assert rank(FqMatrix(3, np.zeros((3, 5), dtype=np.int64))) == 0
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


@pytest.mark.parametrize("q", [2, 3, 5, 13, 331, 65521])
def test_bulk_draw_matches_per_entry_randrange(q):
    # the same matrices and the same stream state after every call, rank
    # rejections included: over q = 2 a 4 x 4 matrix has full rank with
    # probability about 0.31, and a 1 x 1 one only as [[1]]
    redrawn = 0
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        for rows, cols in ((0, 3), (1, 1), (4, 4), (3, 7)):
            once = random.Random()
            once.setstate(ours.getstate())
            m = random_full_rank_matrix(q, rows, cols, ours)
            assert m == oracles.random_full_rank_matrix(q, rows, cols, theirs)
            assert ours.getstate() == theirs.getstate()
            [once.randrange(q) for _ in range(rows * cols)]
            redrawn += (rows, cols) == (4, 4) and once.getstate() != ours.getstate()
    if q == 2:
        assert redrawn > 100


def test_rank_matches_the_elimination_oracle():
    rng = np.random.default_rng(11)
    deficient = 0
    for q in (2, 3, 5, 13, 65521):
        for seed in range(40):
            rows, cols = (int(x) for x in rng.integers(1, 9, size=2))
            inner = int(rng.integers(0, min(rows, cols)))
            product = rng.integers(0, q, (rows, inner)) @ rng.integers(0, q, (inner, cols)) % q
            full = random_full_rank_matrix(q, min(rows, cols), max(rows, cols), random.Random(seed))
            for m in (
                FqMatrix(q, product),  # rank at most inner < min(rows, cols)
                full,
                FqMatrix(q, full.values.T.copy()),  # tall
                FqMatrix(q, np.zeros((rows, cols), dtype=np.int64)),
            ):
                assert rank(m) == oracles.rank(m)
            deficient += rank(FqMatrix(q, product)) < min(rows, cols)
    assert deficient == 5 * 40
    # many steps of deferred reductions at the largest modulus
    big = rng.integers(0, 65521, (40, 30)) @ rng.integers(0, 65521, (30, 60)) % 65521
    assert rank(FqMatrix(65521, big)) == oracles.rank(FqMatrix(65521, big)) == 30


@pytest.mark.parametrize("rows, cols", [(2.0, 4), (True, 4), (2, 4.0), (2, "4")])
def test_non_integer_dimensions_are_a_value_error(rows, cols):
    with pytest.raises(ValueError, match="must be an integer"):
        random_full_rank_matrix(3, rows, cols, random.Random(1))


def test_permutation_roundtrip_and_oracle():
    rng = random.Random(13)
    v = FqVector(7, [rng.randrange(7) for _ in range(9)]).values
    assert np.array_equal(apply_permutation(v, Permutation(np.arange(9))), v)
    perm = Permutation.random(9, rng)
    there = apply_permutation(v, perm)
    assert np.array_equal(apply_permutation(there, Permutation(np.argsort(perm.images))), v)
    # naive index-loop oracle
    naive = [int(v[int(perm.images[i])]) for i in range(9)]
    assert there.tolist() == naive


def test_random_permutation_is_the_shuffle_of_range():
    # Permutation.random runs shuffle's loop inline: the same list and the
    # same stream state after it, draw after draw, on every supported Python
    for seed in range(200):
        rng, ref = random.Random(seed), random.Random(seed)
        for n in [*range(71), 257]:
            want = list(range(n))
            ref.shuffle(want)
            assert Permutation.random(n, rng).images.tolist() == want, (seed, n)
            assert rng.getstate() == ref.getstate(), (seed, n)
    # a subclass may draw its own way: it gets its own shuffle
    Halves = type("Halves", (random.Random,), {"random": lambda self: 0.5})
    want = list(range(40))
    Halves(1).shuffle(want)
    assert Permutation.random(40, Halves(1)).images.tolist() == want


def test_permutation_on_matrix_columns():
    rng = random.Random(3)
    m = FqMatrix(5, [[rng.randrange(5) for _ in range(6)] for _ in range(2)])
    perm = Permutation.random(6, rng)
    pm = apply_permutation(m.values, perm)
    for j in range(6):
        assert pm[:, j].tolist() == m.values[:, int(perm.images[j])].tolist()
    with pytest.raises(ValueError):
        apply_permutation(m.values, Permutation(np.arange(5)))


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
    ech = partial_gaussian_elim(h.values, 1, s.values, q)
    assert ech.singular.shape == () and ech.singular


def _consistent_pair(q, rows, cols, rng):
    m = random_full_rank_matrix(q, rows, cols, rng)
    x = FqVector(q, [rng.randrange(q) for _ in range(cols)])
    return m, x, mat_vec_mul(m, x)


def test_partial_elim_blocks_and_consistency():
    rng = random.Random(29)
    q, rows, cols, ell = 3, 4, 7, 2
    for _ in range(25):
        h, x, s = _consistent_pair(q, rows, cols, rng)
        ech = partial_gaussian_elim(h.values, ell, s.values, q)
        if ech.singular:
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
    while (ech := partial_gaussian_elim(h.values, ell, s.values, q)).singular:
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
    h = FqMatrix(3, np.eye(3, dtype=np.int64))
    s = FqVector(3, [0, 0, 0])
    with pytest.raises(ValueError):
        partial_gaussian_elim(h.values, 4, s.values, 3)
    with pytest.raises(ValueError):
        partial_gaussian_elim(h.values, 1, FqVector(3, [0, 0]).values, 3)


BLOCKS = ("h_prime", "h_second", "s_prime", "s_second")


def _assert_matches_reference(ech, h, ell, s, q):
    """Each member's singular flag, and a regular member's four blocks, equal oracles.partial_elim."""
    stack = h.shape[:-2]
    assert ech.singular.shape == stack
    flagged = 0
    for b in np.ndindex(stack):
        ref = oracles.partial_elim(h[b], ell, s[b], q)
        assert bool(ech.singular[b]) == (ref is None), (q, b)
        if ref is None:
            flagged += 1
            continue
        for block, want in zip(BLOCKS, ref):
            assert getattr(ech, block)[b].tolist() == want, (q, b, block)
    return flagged


@pytest.mark.parametrize("q", (2, 3, 331, 65521))
def test_elimination_matches_the_python_int_reference(q):
    # sparse members make some stacks partly singular; every member must be
    # flagged exactly where the reference finds no pivot, and match it elsewhere
    rng = np.random.default_rng(q)
    flagged = regular = 0
    for batch in (1, 5, 16):
        for _ in range(6):
            rows = int(rng.integers(1, 9))
            n, ell = rows + int(rng.integers(0, 6)), int(rng.integers(0, rows + 1))
            h = rng.integers(0, q, (batch, rows, n)) * (rng.random((batch, rows, n)) < 0.5)
            s = rng.integers(0, q, (batch, rows))
            ech = partial_gaussian_elim(h, ell, s, q)
            found = _assert_matches_reference(ech, h, ell, s, q)
            flagged, regular = flagged + found, regular + batch - found
    assert flagged > 0 and regular > 0
    # a stack of any leading shape is the same members, flagged in that shape
    ech = partial_gaussian_elim(h.reshape(4, 4, rows, n), ell, s.reshape(4, 4, rows), q)
    _assert_matches_reference(ech, h.reshape(4, 4, rows, n), ell, s.reshape(4, 4, rows), q)


def test_elimination_of_a_wide_lead_at_the_largest_modulus():
    # 72 lead columns at q = 65521: unreduced entries grow to about 73 q^2
    # (2^38) and a scaled pivot row to about 2^54, inside the int64 bound
    q, rows, n, ell = 65521, 76, 100, 4
    rng = np.random.default_rng(5)
    h, s = rng.integers(0, q, (rows, n)), rng.integers(0, q, rows)
    ech = partial_gaussian_elim(h, ell, s, q)
    assert _assert_matches_reference(ech, h, ell, s, q) == 0


@pytest.mark.parametrize("q", (2, 3, 5, 7))
def test_stacked_elimination_matches_one_matrix_at_a_time(q):
    # sparse random matrices make singular members common; each member of
    # the stack must equal its own call, and be flagged where that is
    rng = np.random.default_rng(q)
    flagged = 0
    for _ in range(40):
        rows = int(rng.integers(1, 7))
        n, ell, batch = rows + int(rng.integers(0, 5)), int(rng.integers(0, rows + 1)), 6
        h = rng.integers(0, q, (batch, rows, n)) * (rng.random((batch, rows, n)) < 0.6)
        s = rng.integers(0, q, (batch, rows))
        stack = partial_gaussian_elim(h, ell, s, q)
        assert stack.singular.shape == (batch,)
        for b in range(batch):
            one = partial_gaussian_elim(h[b], ell, s[b], q)
            if one.singular:
                assert stack.singular[b]
                flagged += 1
                continue
            assert not stack.singular[b]
            for block in ("h_prime", "h_second", "s_prime", "s_second"):
                assert np.array_equal(getattr(stack, block)[b], getattr(one, block))
    assert flagged > 0


def test_residues_are_stored_in_one_byte_or_two():
    for q, width in ((3, 1), (251, 1), (257, 2), (65521, 2)):
        v, m = FqVector(q, [0, q - 1]), FqMatrix(q, [[q - 1], [1]])
        assert v.residues.itemsize == m.residues.itemsize == width, q
        assert not v.residues.flags.writeable and not m.residues.flags.writeable
        assert v.tolist() == [0, q - 1] and m.tolist() == [[q - 1], [1]]
        assert (len(v), m.rows, m.cols) == (2, 2, 1)
        assert v == FqVector(q, np.array([0, q - 1])) and m != FqMatrix(q, [[q - 1], [0]])


def test_entries_are_checked_before_they_are_narrowed():
    # each of these wraps to 1 in the storage type of its q
    for q, x in ((3, 257), (3, -255), (257, 65537)):
        with pytest.raises(ValueError, match="entries must lie"):
            FqVector(q, [x])


def test_values_and_asarray_are_read_only_int64_copies():
    v = FqVector(251, [250, 3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an __array__ without copy= warns under numpy 2
        for arr in (v.values, np.asarray(v), FqMatrix(3, [[2]]).values):
            assert arr.dtype == np.int64 and not arr.flags.writeable
        assert v.values is not v.values
        with pytest.raises(ValueError, match="copy"):
            np.asarray(v, copy=False)  # the int64 entries never exist without a copy
        fresh = np.array(v)
        fresh[0] = 0
        assert fresh.dtype == np.int64 and v.tolist() == [250, 3]
        assert np.asarray(v, dtype=np.float64).tolist() == [250.0, 3.0]


def test_products_at_the_largest_modulus_match_python_ints(monkeypatch):
    # entries up to q - 1 are stored in uint16: a product taken before the
    # widening to int64 would wrap, so each result is checked on Python ints
    q, n, k, seed = 65521, 100, 60, 3
    rng = random.Random(7)
    h = random_full_rank_matrix(q, n - k, n, rng)
    e = [0] * n
    for i in rng.sample(range(n), 3):
        e[i] = q - 1 - rng.randrange(8)
    rows = h.tolist()
    s = [sum(x * y for x, y in zip(row, e)) % q for row in rows]
    assert mat_vec_mul(h, FqVector(q, e)).tolist() == s
    inst = SdInstance(q, n, k, 3, WeightFunction.hamming(q), h, FqVector(q, s), FqVector(q, e))
    assert verify_solution(inst, inst.planted)
    i = next(i for i, x in enumerate(e) if x)
    assert not verify_solution(inst, FqVector(q, e[:i] + [e[i] - 1] + e[i + 1 :]))
    seen = []

    def elim(h_stack, ell, s_stack, q):
        seen.append((h_stack, s_stack))
        return partial_gaussian_elim(h_stack, ell, s_stack, q)

    monkeypatch.setattr(isd, "partial_gaussian_elim", elim)
    isd.isd_solve(inst, isd.IsdParams(max_outer_loops=1, rng_seed=seed))
    h_stack, s_stack = seen[0]
    images = Permutation.random(n, random.Random(seed)).images.tolist()
    assert h_stack[0].tolist() == [[row[j] for j in images] for row in rows]
    assert s_stack[0].tolist() == s
    _assert_matches_reference(partial_gaussian_elim(h_stack, 0, s_stack, q), h_stack, 0, s_stack, q)


FROZEN = {  # a value of each frozen type, and its arrays that must stay read-only
    "FqVector": (lambda: FqVector(257, [256, 3]), ("residues",)),
    "FqMatrix": (lambda: FqMatrix(3, [[2, 0], [1, 1]]), ("residues",)),
    "Permutation": (lambda: Permutation([2, 0, 1]), ("images",)),
    "IndexedList": (
        lambda: IndexedList(3, [[0, 1], [1, 2], [2, 2]], [0, 1, 2], loop=[0, 2, 2]).sort_on((1,)),
        ("syndromes", "loop"),
    ),
    "EntropyProfile": (lambda: sphere_exponent(WeightFunction.lee(5), 0.5), ("lam",)),
}


@pytest.mark.parametrize("make,frozen", FROZEN.values(), ids=FROZEN.keys())
def test_frozen_values_stay_read_only_through_pickle_and_deepcopy(make, frozen):
    # numpy's pickles drop the read-only flag, so each type rebuilds through its own checks
    value = make()
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value)
        for name in vars(value):  # every field: the types hold nothing else
            got, want = getattr(twin, name), getattr(value, name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want), name
            else:
                assert got == want, name
        for name in frozen:
            assert not getattr(twin, name).flags.writeable, name
