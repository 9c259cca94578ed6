"""Unit tests for the seeded random source and the Zipfian generator."""

import functools
import math
import random
import tracemalloc
from bisect import bisect_left
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import RandomSource, ZipfGenerator
from repro.sim.rng import HEAD_RANKS, MARK_EVERY


def _loop_bisect(zipf: ZipfGenerator, point: float) -> int:
    """``ZipfGenerator._bisect`` as it was before DR-14: the hand-written
    search over the scalar loop's table that every lookup must agree with."""
    table = _loop_table(zipf.n_items, zipf.coefficient)
    low, high = 0, zipf.n_items - 1
    while low < high:
        mid = (low + high) // 2
        if table[mid] < point:
            low = mid + 1
        else:
            high = mid
    return low


@functools.lru_cache(maxsize=None)
def _loop_table(n_items: int, coefficient: float) -> tuple:
    """``ZipfGenerator``'s inverse CDF as the scalar loop built it before
    DR-28: the table whose head and marks the build must equal bit for bit,
    and whose ``bisect_left`` every lookup must equal.  The total is a
    left-to-right ``+=``, which is what the loop's ``sum()`` did up to
    Python 3.11 (3.12's ``sum()`` of floats compensates).  Built once per
    shape and session; a tuple, so no test can change it for the next."""
    weights = [1.0 / ((rank + 1) ** coefficient) for rank in range(n_items)]
    total = 0.0
    for weight in weights:
        total += weight
    cumulative = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cumulative.append(running)
    cumulative[-1] = 1.0
    return tuple(cumulative)


def _assert_head_and_marks_equal_the_loop(zipf: ZipfGenerator) -> None:
    """The head is the loop table's prefix, and each mark is the loop
    table's value at the last rank of its run (DESIGN.md DR-37)."""
    n_items, table = zipf.n_items, _loop_table(zipf.n_items, zipf.coefficient)
    head = min(HEAD_RANKS, n_items)
    assert type(zipf._head) is list
    assert zipf._head == list(table[:head])
    assert zipf._marks.typecode == "d"
    assert len(zipf._marks) == -(-(n_items - head) // MARK_EVERY)
    assert list(zipf._marks) == [
        table[min(head + MARK_EVERY * (run + 1), n_items) - 1]
        for run in range(len(zipf._marks))]


def _assert_lookups_equal_bisect_left(zipf: ZipfGenerator, ranks) -> None:
    """At each ranked CDF value and at both of its neighbouring doubles, the
    lookup is ``bisect_left`` over the loop table, clamped as ``_bisect``
    clamps a point past 1.0."""
    table = _loop_table(zipf.n_items, zipf.coefficient)
    points = {0.0, 1.5}
    for rank in ranks:
        value = table[rank]
        points.update((value, math.nextafter(value, 0.0),
                       math.nextafter(value, 2.0)))
    for point in sorted(points):
        assert zipf._bisect(point) == \
            min(bisect_left(table, point), zipf.n_items - 1), point


def _draws(zipf: ZipfGenerator, count: int) -> list:
    return [zipf.next() for _ in range(count)]


def _loop_draws(n_items: int, coefficient: float, seed: int, count: int) -> list:
    """Seeded draws over ``_loop_table``, looked up as ``_bisect`` does."""
    table, rng = _loop_table(n_items, coefficient), RandomSource(seed)
    return [min(bisect_left(table, rng.random()), n_items - 1)
            for _ in range(count)]


class TestRandomSource:
    def test_same_seed_same_sequence(self):
        a = RandomSource(7)
        b = RandomSource(7)
        assert [a.randint(0, 100) for _ in range(10)] == \
               [b.randint(0, 100) for _ in range(10)]

    def test_different_seed_different_sequence(self):
        a = [RandomSource(1).randint(0, 1_000_000) for _ in range(5)]
        b = [RandomSource(2).randint(0, 1_000_000) for _ in range(5)]
        assert a != b

    def test_spawn_is_deterministic_and_independent(self):
        parent = RandomSource(3)
        child1 = parent.spawn("zipf")
        child2 = RandomSource(3).spawn("zipf")
        assert [child1.random() for _ in range(5)] == [child2.random() for _ in range(5)]

    def test_choice_rejects_empty(self):
        with pytest.raises(ValueError):
            RandomSource(0).choice([])

    def test_choice_returns_member(self):
        rng = RandomSource(0)
        items = ["a", "b", "c"]
        assert rng.choice(items) in items

    @pytest.mark.parametrize("items", [
        ["a", "b", "c", "d", "e"],
        ("a", "b", "c", "d", "e"),
        dict.fromkeys("abcde").keys(),
    ], ids=["list", "tuple", "keys-view"])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**16])
    def test_choice_draws_as_random_choice_of_a_copy(self, items, seed):
        """Indexing a sequence in place picks what a copy would, and leaves
        the generator in the same state."""
        ours, theirs = RandomSource(seed), random.Random(seed)
        for _ in range(3):
            assert ours.choice(items) == theirs.choice(list(items))
        assert ours._rng.getstate() == theirs.getstate()

    def test_shuffle_returns_permutation_without_mutating(self):
        rng = RandomSource(5)
        items = list(range(20))
        shuffled = rng.shuffle(items)
        assert items == list(range(20))
        assert sorted(shuffled) == items

    def test_lognormal_positive_and_centered(self):
        rng = RandomSource(11)
        samples = [rng.lognormal(10.0, 0.2) for _ in range(500)]
        assert all(s > 0 for s in samples)
        assert 8.0 < sorted(samples)[len(samples) // 2] < 12.5

    def test_lognormal_rejects_nonpositive_median(self):
        with pytest.raises(ValueError):
            RandomSource(0).lognormal(0.0, 0.1)

    def test_exponential_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            RandomSource(0).exponential(0.0)


class TestZipfGenerator:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ZipfGenerator(0)
        with pytest.raises(ValueError):
            ZipfGenerator(10, coefficient=-1.0)
        with pytest.raises(ValueError):
            ZipfGenerator(10, coefficient=math.nan)

    def test_draws_within_range(self):
        zipf = ZipfGenerator(100, 1.0, RandomSource(1))
        draws = _draws(zipf, 1_000)
        assert all(0 <= d < 100 for d in draws)

    def test_skew_favours_low_ranks(self):
        zipf = ZipfGenerator(1_000, 1.0, RandomSource(2))
        draws = _draws(zipf, 5_000)
        head = sum(1 for d in draws if d < 10)
        tail = sum(1 for d in draws if d >= 500)
        assert head > tail

    def test_higher_coefficient_is_more_skewed(self):
        flat = _draws(ZipfGenerator(1_000, 0.5, RandomSource(3)), 3_000)
        steep = _draws(ZipfGenerator(1_000, 1.5, RandomSource(3)), 3_000)
        head_flat = sum(1 for d in flat if d == 0)
        head_steep = sum(1 for d in steep if d == 0)
        assert head_steep > head_flat

    def test_zero_coefficient_is_roughly_uniform(self):
        zipf = ZipfGenerator(10, 0.0, RandomSource(4))
        draws = _draws(zipf, 10_000)
        counts = [draws.count(i) for i in range(10)]
        assert min(counts) > 500


    @given(n_items=st.integers(1, 5_000),
           coefficient=st.sampled_from([0.0, 0.5, 1.0, 1.5]),
           points=st.lists(st.floats(0.0, 1.0), max_size=30), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_inverse_cdf_lookup_matches_the_old_loop(self, n_items, coefficient,
                                                     points, data):
        zipf = ZipfGenerator(n_items, coefficient)
        table = _loop_table(n_items, coefficient)
        # Exact CDF values sit on the `<` / `>=` edge of the search; a point
        # past the end (``random()`` never draws one) clamps to the last rank.
        ranks = data.draw(st.lists(st.integers(0, n_items - 1), max_size=10))
        for point in [0.0, 1.0, 1.5, *points, *(table[r] for r in ranks)]:
            assert zipf._bisect(point) == _loop_bisect(zipf, point)

    def test_seeded_draws_match_the_old_loop(self):
        zipf = ZipfGenerator(1_000, 1.0, RandomSource(6))
        twin = RandomSource(6)
        assert _draws(zipf, 2_000) == [_loop_bisect(zipf, twin.random())
                                       for _ in range(2_000)]

    @pytest.mark.parametrize("n_items", [
        1, 2, 16, 17, 200, 777, 4_096, 4_097, 4_112, 5_000])
    @pytest.mark.parametrize("coefficient", [0.0, 0.5, 0.99, 1.0, 1.5, 2.0, 3.0])
    def test_head_marks_and_lookups_equal_the_scalar_loop(self, n_items,
                                                          coefficient):
        """4,096 and 4,097 sit on the head's edge, 4,112 ends a whole run
        past it, and 5,000 ends a short one."""
        zipf = ZipfGenerator(n_items, coefficient)
        _assert_head_and_marks_equal_the_loop(zipf)
        _assert_lookups_equal_bisect_left(zipf, range(n_items))

    def test_every_lookup_of_a_steep_tail_is_bisect_left_over_the_loop_table(self):
        """At 3.0 the running sum stops moving long before the last rank, so
        whole runs repeat one value and a lookup must find the first."""
        zipf = ZipfGenerator(300_000, 3.0)
        _assert_lookups_equal_bisect_left(zipf, range(300_000))

    @pytest.mark.parametrize("n_items, coefficient", [
        (300_000, 3.0), (208_064, 3.0), (3, 60.0), (5, math.inf)])
    def test_past_the_exact_range_each_power_is_the_scalar_pow(self, n_items,
                                                               coefficient):
        """208_064 ** 3 is the first cube past 2**53: one rank more than the
        closed form's exact range, so every weight is ``pow``'s again, as it
        is for an exponent past 53 and for an infinite one.  The build
        computes each weight twice, once for the total and once for the
        running sums, so it calls ``pow`` twice per rank.  A plain counting
        wrapper, not a ``Mock``: 600,000 mock calls would cost seconds."""
        calls = []

        def scalar_pow(base, exponent):
            calls.append(base)
            return pow(base, exponent)

        with mock.patch("repro.sim.rng.pow", scalar_pow, create=True):
            zipf = ZipfGenerator(n_items, coefficient)
        assert len(calls) == 2 * n_items
        _assert_head_and_marks_equal_the_loop(zipf)

    def test_the_million_key_table_at_1_0_calls_no_scalar_pow(self):
        """§6.2's table is built, and drawn from, with integer powers
        (DESIGN.md DR-35)."""
        with mock.patch("repro.sim.rng.pow", create=True,
                        side_effect=AssertionError("scalar pow called")):
            zipf = ZipfGenerator(1_000_000, 1.0, RandomSource(9))
            _draws(zipf, 2_000)
        assert zipf._marks[-1] == 1.0

    def test_million_key_head_marks_and_lookups_equal_the_scalar_loop(self):
        """§6.2's shape, where a pairwise total would move the table; the
        lookups at a seeded sample of its ranks."""
        zipf = ZipfGenerator(1_000_000, 1.0)
        _assert_head_and_marks_equal_the_loop(zipf)
        _assert_lookups_equal_bisect_left(
            zipf, random.Random(37).sample(range(1_000_000), 20_000))

    def test_the_million_key_generator_holds_no_table_sized_array(self):
        """A full table is 8 MB of doubles (DESIGN.md DR-37): the generator
        holds its head and marks, and the build no more than a chunk more."""
        tracemalloc.start()
        try:
            zipf = ZipfGenerator(1_000_000, 1.0)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert zipf.n_items == 1_000_000
        assert held < 1_000_000  # bytes: 8.50 MB before DR-37
        assert peak < 2_000_000  # 24.50 MB before DR-37

    @pytest.mark.parametrize("n_items, coefficient", [
        (1_000_000, 1.0), (200, 1.5), (5_000, 1.0), (777, 0.5), (1, 1.0)])
    def test_seeded_draws_equal_the_scalar_loop(self, n_items, coefficient):
        zipf = ZipfGenerator(n_items, coefficient, RandomSource(9))
        assert _draws(zipf, 2_000) == _loop_draws(n_items, coefficient, 9, 2_000)
