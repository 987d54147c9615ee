import dataclasses
import random
import re
from collections import Counter

import numpy as np
import pytest

import oracles
from leeisd.merge import (
    _BUCKETS_PER_ENTRY,
    DEFAULT_LIST_CAP,
    IndexedList,
    MergeOverflowError,
    _sort_layout,
    merge,
)


def random_list(q, m, size, rng, tag=0):
    syn = np.array([[rng.randrange(q) for _ in range(m)] for _ in range(size)], dtype=np.int64)
    return IndexedList(q, syn, [(tag, i) for i in range(size)])


def brute_merge(L1, L2, J, t, q):
    out = []
    for i in range(len(L1)):
        for j in range(len(L2)):
            z = (L1.syndromes[i] + L2.syndromes[j]) % q
            if all(z[c] == t[c] % q for c in J):
                out.append(tuple(z.tolist()))
    return Counter(out)


def test_hand_example():
    L1 = IndexedList(3, np.array([[0, 1], [1, 2]]), ["a", "b"])
    L2 = IndexedList(3, np.array([[2, 1], [1, 0]]), ["c", "d"])
    out = merge(L1, L2, (0,), np.array([0, 0]))
    assert len(out) == 1
    assert out.syndromes[0].tolist() == [0, 0]
    assert out.backrefs[0].tolist() == [1, 0]  # (1,2) + (2,1)


def test_empty_right_list():
    L1 = IndexedList(3, np.array([[0, 1]]), [0])
    L2 = IndexedList(3, np.zeros((0, 2), dtype=np.int64), [])
    assert len(merge(L1, L2, (0,), [0, 0])) == 0
    assert len(merge(L2, L1, (0,), [0, 0])) == 0


def test_soundness_replay_and_completeness():
    rng = random.Random(11)
    q, m = 5, 3
    for trial in range(20):
        L1 = random_list(q, m, rng.randrange(1, 40), rng, tag=1)
        L2 = random_list(q, m, rng.randrange(1, 40), rng, tag=2)
        J = tuple(sorted(rng.sample(range(m), rng.randrange(1, m + 1))))
        t = np.array([rng.randrange(q) for _ in range(m)], dtype=np.int64)
        out = merge(L1, L2, J, t)
        # soundness: every entry hits the target on J and is the backref'd sum
        for pos in range(len(out)):
            i, j = out.backrefs[pos]
            z = (L1.syndromes[i] + L2.syndromes[j]) % q
            assert np.array_equal(z, out.syndromes[pos])
            assert all(z[c] == t[c] for c in J)
        # completeness: multiset equality against the double loop
        got = Counter(tuple(row.tolist()) for row in out.syndromes)
        assert got == brute_merge(L1, L2, J, t, q)


def test_commutativity_up_to_backrefs():
    rng = random.Random(23)
    q, m = 3, 4
    L1 = random_list(q, m, 33, rng)
    L2 = random_list(q, m, 21, rng)
    J = (1, 3)
    t = np.array([0, 2, 0, 1], dtype=np.int64)
    a = Counter(tuple(r.tolist()) for r in merge(L1, L2, J, t).syndromes)
    b = Counter(tuple(r.tolist()) for r in merge(L2, L1, J, t).syndromes)
    assert a == b


def test_reuses_presorted_left_list():
    rng = random.Random(4)
    q, m = 3, 3
    L1 = random_list(q, m, 30, rng).sort_on((0, 1))
    L2 = random_list(q, m, 10, rng)
    t = np.zeros(m, dtype=np.int64)
    out_pre = merge(L1, L2, (0, 1), t)
    out_raw = merge(IndexedList(q, L1.syndromes, L1.backrefs), L2, (0, 1), t)
    assert Counter(tuple(r.tolist()) for r in out_pre.syndromes) == Counter(
        tuple(r.tolist()) for r in out_raw.syndromes
    )


def test_average_size_law():
    rng = random.Random(2024)
    q, m, size, jcount = 3, 8, 1 << 10, 4
    expected = size * size / q**jcount
    ok = 0
    for trial in range(20):
        L1 = random_list(q, m, size, rng)
        L2 = random_list(q, m, size, rng)
        t = np.array([rng.randrange(q) for _ in range(m)], dtype=np.int64)
        out = merge(L1, L2, tuple(range(jcount)), t)
        if expected / 4 <= len(out) <= expected * 4:
            ok += 1
    assert ok >= 18


def test_cap_enforced():
    q, m = 3, 2
    L1 = IndexedList(q, np.zeros((50, m), dtype=np.int64), list(range(50)))
    L2 = IndexedList(q, np.zeros((50, m), dtype=np.int64), list(range(50)))
    with pytest.raises(MergeOverflowError):
        merge(L1, L2, (0,), np.zeros(m, dtype=np.int64), cap=100)


def test_bad_inputs():
    L1 = IndexedList(3, np.zeros((1, 2), dtype=np.int64), [0])
    L2 = IndexedList(3, np.zeros((1, 3), dtype=np.int64), [0])
    with pytest.raises(ValueError):
        merge(L1, L2, (0,), [0, 0])
    L3 = IndexedList(5, np.zeros((1, 2), dtype=np.int64), [0])
    with pytest.raises(ValueError):
        merge(L1, L3, (0,), [0, 0])
    with pytest.raises(ValueError):
        merge(L1, IndexedList(3, np.zeros((1, 2), dtype=np.int64), [0]), (5,), [0, 0])


def test_syndrome_entries_outside_the_field_are_rejected():
    # the sort packs entries as base-q digits, so 3 or -1 over F_3 would mis-sort
    for bad in (3, -1):
        with pytest.raises(ValueError, match=r"syndrome entries must lie in \[0, 3\)"):
            IndexedList(3, np.array([[0, bad]]), [0])
    assert len(IndexedList(3, np.zeros((0, 2), dtype=np.int64), [])) == 0


def test_non_integer_J_is_rejected():
    # int(0.5) used to merge on coordinate 0
    L1 = IndexedList(3, np.array([[0, 1], [1, 2]]), [0, 1])
    L2 = IndexedList(3, np.array([[2, 1], [1, 0]]), [0, 1])
    for J in ((0.5,), (True,), [1.0]):
        with pytest.raises(ValueError, match="^J entry must be an integer"):
            merge(L1, L2, J, np.array([0, 0]))
    assert len(merge(L1, L2, np.array([0]), np.array([0, 0]))) == 1


def test_deterministic_tie_order():
    # equal J-keys sort by full vector then insertion order
    q = 3
    syn = np.array([[1, 2], [1, 0], [1, 0]], dtype=np.int64)
    lst = IndexedList(q, syn, ["x", "y", "z"]).sort_on((0,))
    assert lst.backrefs.tolist() == ["y", "z", "x"]
    lo, hi = lst.match_range(1)
    assert (lo, hi) == (0, 3)


@pytest.mark.parametrize("q,m", [(3, 4), (331, 9)])  # 331^|J| can need object keys
def test_stacked_merge_is_each_loops_merge(q, m):
    # a stack merges loop by loop: the same entries in the same order, with
    # backrefs shifted to the stack, and the first loop over cap named
    rng = np.random.default_rng(q)
    overflowed = 0
    for _ in range(60):
        loops = int(rng.integers(1, 6))
        n1, n2 = rng.integers(0, 12, loops), rng.integers(0, 12, loops)
        lists1 = [rng.integers(0, q, (n, m)) for n in n1]
        lists2 = [rng.integers(0, q, (n, m)) for n in n2]
        J = tuple(sorted(rng.choice(m, int(rng.integers(0, m + 1)), replace=False).tolist()))
        t, cap = rng.integers(0, q, (loops, m)), int(rng.integers(1, 30))
        ids1, ids2 = np.repeat(np.arange(loops), n1), np.repeat(np.arange(loops), n2)
        stack1 = IndexedList(q, np.concatenate(lists1), np.arange(n1.sum()), loop=ids1)
        stack2 = IndexedList(q, np.concatenate(lists2), np.arange(n2.sum()), loop=ids2)
        off1, off2 = np.cumsum(n1) - n1, np.cumsum(n2) - n2
        outs = []
        for b in range(loops):
            try:
                outs.append(merge(IndexedList(q, lists1[b], np.arange(n1[b])),
                                  IndexedList(q, lists2[b], np.arange(n2[b])), J, t[b], cap))
            except MergeOverflowError as exc:
                with pytest.raises(MergeOverflowError) as stacked:
                    merge(stack1, stack2, J, t, cap)
                assert stacked.value.loop == b and str(stacked.value) == str(exc)
                overflowed += 1
                break
        else:
            out = merge(stack1, stack2, J, t, cap)
            assert np.array_equal(out.syndromes, np.concatenate([o.syndromes for o in outs]))
            refs = [o.backrefs + (off1[b], off2[b]) for b, o in enumerate(outs)]
            assert np.array_equal(out.backrefs.reshape(-1, 2), np.concatenate(refs).reshape(-1, 2))
            assert out.loop.tolist() == [b for b, o in enumerate(outs) for _ in range(len(o))]
    assert overflowed


@pytest.mark.parametrize("q", [2, 3, 13, 65521])
def test_packed_sort_matches_the_per_column_lexsort(q):
    # widths that pack into one word and widths that need two or more, rows
    # drawn from a small pool so that ties occur, empty lists, and stacks
    # whose loop ids come in any order
    rng = np.random.default_rng(q)
    digits_per_word = int(63 // np.log2(q))
    words_seen = set()
    for trial in range(40):
        m = int(rng.choice([1, 3, digits_per_word + 2, 2 * digits_per_word + 1]))
        size1, size2 = (0, 0) if trial < 2 else rng.integers(1, 40, 2)
        pool = rng.integers(0, q, (6, m))
        L1, L2 = (
            IndexedList(q, pool[rng.integers(0, 6, size)], np.arange(size))
            if trial % 2
            else IndexedList(q, rng.integers(0, q, (size, m)), np.arange(size))
            for size in (size1, size2)
        )
        loops = 1
        if trial % 4 == 3:  # a stack
            loops = int(rng.integers(2, 5))
            L1, L2 = (
                IndexedList(q, L.syndromes, L.backrefs, loop=rng.integers(0, loops, len(L)))
                for L in (L1, L2)
            )
        J = tuple(rng.choice(m, int(rng.integers(0, m + 1)), replace=False).tolist())
        words_seen.add(_sort_layout(q, tuple(range(m)), loops, 0).mult.shape[1])
        assert np.array_equal(L1._order_keys(J, loops)[0], oracles.sorted_reference(L1, J)[0])
        t = rng.integers(0, q, (loops, m) if L1.loop is not None else m)
        got = merge(L1, L2, J, t)
        want = oracles.merge_reference(L1, L2, J, t, DEFAULT_LIST_CAP)
        assert np.array_equal(got.syndromes, want.syndromes)
        assert np.array_equal(got.backrefs.reshape(-1, 2), want.backrefs.reshape(-1, 2))
        assert (got.loop is None) == (want.loop is None)
        assert got.loop is None or np.array_equal(got.loop, want.loop)
    assert words_seen >= {1, 2}


# (q, width, |J|, loops; loops 0 for a plain list): between them every side
# of each choice the join makes -- bucket counts or a binary search, a radix
# sort of one 16-bit word or a lexsort of one or more int64 words, int64 or
# Python-int keys -- and a left list handed over sorted on J or not
JOIN_SHAPES = (
    (3, 4, 2, 3),
    (3, 4, 4, 0),
    (2, 16, 3, 0),  # one 16-bit word, full
    (2, 16, 3, 2),  # one word just past 16 bits
    (3, 30, 3, 4),
    (3, 50, 10, 3),
    (331, 9, 8, 2),
    (65521, 5, 4, 0),
    (2, 70, 65, 2),
    (65521, 3, 0, 5),
)


def join_paths(L1, J, nloops):
    """The choices merge makes for a left list L1 joined on J over nloops loops."""
    span = nloops * L1.q ** len(J)
    paths = {"object keys" if span >= 2**62 else "int keys"}
    paths.add("buckets" if span <= _BUCKETS_PER_ENTRY * 2 * len(L1) else "search")
    cols = (*J, *(c for c in range(L1.width) if c not in J))
    layout = _sort_layout(L1.q, cols, nloops, len(J))
    words = layout.mult.shape[1]
    return paths | {"16-bit radix" if layout.radix else "one int64 word" if words == 1 else "multi-word"}


def test_join_matches_the_reference_on_every_path():
    rng = np.random.default_rng(28)
    seen = set()
    for q, m, nJ, loops in JOIN_SHAPES:
        for trial in range(8):
            size = 0 if trial == 0 else int(rng.integers(1, 40))
            pool = rng.integers(0, q, (5, m))  # drawn from a pool, rows tie on J and off it
            L1, L2 = (
                IndexedList(
                    q,
                    pool[rng.integers(0, 5, size)] if trial % 2 else rng.integers(0, q, (size, m)),
                    np.arange(size),
                    loop=rng.integers(0, loops, size) if loops else None,
                )
                for _ in range(2)
            )
            J = tuple(rng.choice(m, nJ, replace=False).tolist())
            if trial % 3 == 1:  # handed over sorted on J
                L1 = L1.sort_on(J)
                seen.add("sorted on J")
            elif trial % 3 == 2 and nJ:  # or on another J
                L1 = L1.sort_on(J[1:])
            t = rng.integers(0, q, (loops, m) if loops else m)
            seen |= join_paths(L1, J, max(loops, 1))
            got = merge(L1, L2, J, t)
            want = oracles.merge_reference(L1, L2, J, t, DEFAULT_LIST_CAP)
            assert np.array_equal(got.syndromes, want.syndromes)
            assert np.array_equal(got.backrefs.reshape(-1, 2), want.backrefs.reshape(-1, 2))
            assert (got.loop is None) == (want.loop is None)
            assert got.loop is None or np.array_equal(got.loop, want.loop)
    assert seen == {
        "buckets", "search", "16-bit radix", "one int64 word", "multi-word",
        "int keys", "object keys", "sorted on J",
    }


def test_lists_are_immutable_values():
    # a list keeps read-only copies of its syndromes and loop ids, so no
    # edit after construction gets past the checks made there
    a, b, ids = np.array([[0, 1], [1, 2]]), np.array([[2, 1], [1, 0]]), np.array([0, 1])
    L1, L2 = IndexedList(3, a, [0, 1]), IndexedList(3, b, [0, 1])
    S1 = IndexedList(3, a, [0, 1], loop=ids)
    S2 = IndexedList(3, np.zeros((2, 2), int), [0, 1], loop=[0, 0])
    t = np.zeros((2, 2), int)
    for lst in (S1, merge(S1, S2, (0,), t)):
        for name, value in (("loop", np.array([0, 2])), ("syndromes", a), ("q", 5)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(lst, name, value)
        for arr in (lst.syndromes, lst.loop):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 2
    a[1, 0], ids[1] = 7, 2  # the caller's arrays, not the lists' copies
    assert merge(L1, L2, (0,), [0, 0]).syndromes.tolist() == [[0, 0]]
    assert S1.loop.tolist() == [0, 1] and len(merge(S1, S2, (0,), t)) == 2
    for bad in ([0, 2], [-1, 0]):
        with pytest.raises(ValueError, match=r"loop ids must lie in \[0, 2\)"):
            merge(IndexedList(3, np.zeros((2, 2), int), [0, 1], loop=bad), S2, (0,), t)


def test_the_modulus_is_read_where_it_enters():
    # a float or bool q was stored as given, its layouts then answered every
    # later merge at the int q from the caches, and an np.int64 q overflowed
    def join(q, syn, J):  # every row of syn meets its negation
        L, R = (IndexedList(q, s, np.arange(len(syn))) for s in (syn, -syn % q))
        return merge(L, R, J, np.zeros(syn.shape[1], dtype=np.int64)), L, R

    syn = np.random.default_rng(29).integers(0, 3, (20, 7))
    for q, msg in ((3.0, "an integer, not 3.0"), (True, "an integer, not True"), (1, "at least 2, not 1")):
        with pytest.raises(ValueError, match=f"^q must be {re.escape(msg)}$"):
            join(q, syn * 0, (6, 2, 5))
    got, L, R = join(3, syn, (6, 2, 5))
    want = oracles.merge_reference(L, R, (6, 2, 5), np.zeros(7, dtype=np.int64), DEFAULT_LIST_CAP)
    assert type(got.q) is int and np.array_equal(got.backrefs, want.backrefs)
    syn = np.random.default_rng(331).integers(0, 331, (30, 9))
    J = (8, 0, 7, 1, 6, 2, 5, 3)
    got, want = join(np.int64(331), syn, J)[0], join(331, syn, J)[0]
    assert type(got.q) is int and len(got) >= 30
    assert np.array_equal(got.syndromes, want.syndromes) and np.array_equal(got.backrefs, want.backrefs)


def assert_same_list(got, want):
    """got and want hold equal fields, the sort keys sort_on sets included."""
    assert vars(got).keys() == vars(want).keys()
    for name, value in vars(want).items():
        if isinstance(value, np.ndarray):
            assert value.dtype == getattr(got, name).dtype, name
            assert np.array_equal(value, getattr(got, name)), name
        else:
            assert value == getattr(got, name), name


def test_a_list_without_loop_ids_is_a_stack_of_one():
    # the same list with explicit zero ids: the same fields, the same sort
    # and the same merge, under a 1-D target and under a (1, width) one
    rng = np.random.default_rng(42)
    q, m = 5, 3
    for _ in range(30):
        syns = [rng.integers(0, q, (int(rng.integers(0, 25)), m)) for _ in "ab"]
        bare = [IndexedList(q, s, np.arange(len(s))) for s in syns]
        zero = [IndexedList(q, s, np.arange(len(s)), loop=np.zeros(len(s), int)) for s in syns]
        J = tuple(rng.choice(m, int(rng.integers(0, m + 1)), replace=False).tolist())
        for lst, twin in zip(bare, zero):
            assert_same_list(lst, twin)
            assert lst.loop.tolist() == [0] * len(lst) and lst.loop_end == min(len(lst), 1)
            assert_same_list(lst.sort_on(J), twin.sort_on(J))
        t = rng.integers(0, q, m)
        want = merge(*zero, J, t[None])
        ref = oracles.merge_reference(*zero, J, t, DEFAULT_LIST_CAP)
        for name in ("syndromes", "backrefs", "loop"):  # its loop_end is the largest id + 1
            assert np.array_equal(getattr(want, name), getattr(ref, name)), name
        for target in (t, t[None]):
            for L1, L2 in ((bare[0], bare[1]), (bare[0], zero[1]), (zero[0], bare[1])):
                assert_same_list(merge(L1, L2, J, target), want)


def test_a_list_without_loop_ids_merges_with_a_stack_within_loop_0():
    # a list without ids is loop 0 of a stack, so it pairs with that loop's
    # entries of the other list only, on either side
    rng = np.random.default_rng(17)
    q, m, loops = 3, 4, 3
    paired = 0
    for _ in range(30):
        n1, n2 = rng.integers(0, 20, 2)
        bare = IndexedList(q, rng.integers(0, q, (n1, m)), np.arange(n1))
        ids = rng.integers(0, loops, n2)
        stack = IndexedList(q, rng.integers(0, q, (n2, m)), np.arange(n2), loop=ids)
        J = tuple(rng.choice(m, int(rng.integers(0, m + 1)), replace=False).tolist())
        t = rng.integers(0, q, (loops, m))
        at0 = np.flatnonzero(ids == 0)
        head = IndexedList(q, stack.syndromes[at0], at0)  # the stack's loop 0 alone
        for side, (L1, L2) in enumerate(((bare, stack), (stack, bare))):
            got = merge(L1, L2, J, t)
            want = oracles.merge_reference(L1, L2, J, t, DEFAULT_LIST_CAP)
            for name in ("syndromes", "backrefs", "loop"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            one = merge(*((bare, head) if side == 0 else (head, bare)), J, t[0])
            refs = one.backrefs.copy()
            refs[:, 1 - side] = at0[refs[:, 1 - side]]  # head's positions in the stack
            assert np.array_equal(got.syndromes, one.syndromes)
            assert np.array_equal(got.backrefs, refs)
            assert not got.loop.any() and got.loop_end == L2.loop_end
            paired += len(got)
    assert paired
