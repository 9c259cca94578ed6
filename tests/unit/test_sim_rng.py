"""Unit tests for the seeded random source and the Zipfian generator."""

import math
import random
from bisect import bisect_left
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import RandomSource, ZipfGenerator


def _loop_bisect(zipf: ZipfGenerator, point: float) -> int:
    """``ZipfGenerator._bisect`` as it was before DR-14: the hand-written
    search the ``bisect_left`` body must agree with on every point."""
    low, high = 0, zipf.n_items - 1
    while low < high:
        mid = (low + high) // 2
        if zipf._cumulative[mid] < point:
            low = mid + 1
        else:
            high = mid
    return low


def _loop_table(n_items: int, coefficient: float) -> list:
    """``ZipfGenerator``'s inverse CDF as the scalar loop built it before
    DR-28: the table the vectorised pass must equal bit for bit.  The total
    is a left-to-right ``+=``, which is what the loop's ``sum()`` did up to
    Python 3.11 (3.12's ``sum()`` of floats compensates)."""
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
    return cumulative


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


    @given(n_items=st.integers(1, 400),
           coefficient=st.sampled_from([0.0, 0.5, 1.0, 1.5]),
           points=st.lists(st.floats(0.0, 1.0), max_size=30), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_inverse_cdf_lookup_matches_the_old_loop(self, n_items, coefficient,
                                                     points, data):
        zipf = ZipfGenerator(n_items, coefficient)
        # Exact CDF values sit on the `<` / `>=` edge of the search; a point
        # past the end (``random()`` never draws one) clamps to the last rank.
        ranks = data.draw(st.lists(st.integers(0, n_items - 1), max_size=10))
        for point in [0.0, 1.0, 1.5, *points, *(zipf._cumulative[r] for r in ranks)]:
            assert zipf._bisect(point) == _loop_bisect(zipf, point)

    def test_seeded_draws_match_the_old_loop(self):
        zipf = ZipfGenerator(1_000, 1.0, RandomSource(6))
        twin = RandomSource(6)
        assert _draws(zipf, 2_000) == [_loop_bisect(zipf, twin.random())
                                       for _ in range(2_000)]

    @pytest.mark.parametrize("n_items", [1, 2, 200, 777, 5_000])
    @pytest.mark.parametrize("coefficient", [0.0, 0.5, 0.99, 1.0, 1.5, 2.0, 3.0])
    def test_table_equals_the_scalar_loop(self, n_items, coefficient):
        zipf = ZipfGenerator(n_items, coefficient)
        assert zipf._cumulative.typecode == "d"
        assert list(zipf._cumulative) == _loop_table(n_items, coefficient)

    @pytest.mark.parametrize("n_items, coefficient", [
        (300_000, 3.0), (208_064, 3.0), (3, 60.0), (5, math.inf)])
    def test_past_the_exact_range_each_power_is_the_scalar_pow(self, n_items,
                                                               coefficient):
        """208_064 ** 3 is the first cube past 2**53: one rank more than the
        closed form's exact range, so every weight is ``pow``'s again, as it
        is for an exponent past 53 and for an infinite one."""
        with mock.patch("repro.sim.rng.pow", side_effect=pow,
                        create=True) as scalar_pow:
            zipf = ZipfGenerator(n_items, coefficient)
        assert scalar_pow.call_count == n_items
        assert list(zipf._cumulative) == _loop_table(n_items, coefficient)

    def test_the_million_key_table_at_1_0_calls_no_scalar_pow(self):
        """§6.2's table is built from integer powers (DESIGN.md DR-35)."""
        with mock.patch("repro.sim.rng.pow", create=True,
                        side_effect=AssertionError("scalar pow called")):
            zipf = ZipfGenerator(1_000_000, 1.0)
        assert zipf._cumulative[-1] == 1.0

    def test_million_key_table_equals_the_scalar_loop(self):
        """§6.2's shape, where a pairwise total would move the table."""
        zipf = ZipfGenerator(1_000_000, 1.0)
        assert list(zipf._cumulative) == _loop_table(1_000_000, 1.0)

    @pytest.mark.parametrize("n_items, coefficient", [
        (1_000_000, 1.0), (200, 1.5), (5_000, 1.0), (777, 0.5), (1, 1.0)])
    def test_seeded_draws_equal_the_scalar_loop(self, n_items, coefficient):
        zipf = ZipfGenerator(n_items, coefficient, RandomSource(9))
        assert _draws(zipf, 2_000) == _loop_draws(n_items, coefficient, 9, 2_000)
