"""Tests for repro.util.rng."""

import numpy as np
import pytest

from repro.util.rng import NodeStreams, RandomSource, SharedCoin


class TestRandomSource:
    def test_same_seed_reproduces_stream(self):
        a = RandomSource(7)
        b = RandomSource(7)
        assert [a.uniform_int(0, 100) for _ in range(20)] == [
            b.uniform_int(0, 100) for _ in range(20)
        ]

    def test_different_seeds_differ(self):
        a = RandomSource(1)
        b = RandomSource(2)
        assert [a.uniform_int(0, 10**9) for _ in range(5)] != [
            b.uniform_int(0, 10**9) for _ in range(5)
        ]

    def test_spawn_children_are_independent_and_reproducible(self):
        children_a = RandomSource(3).spawn_many(4)
        children_b = RandomSource(3).spawn_many(4)
        streams_a = [[c.uniform_int(0, 10**9) for _ in range(5)] for c in children_a]
        streams_b = [[c.uniform_int(0, 10**9) for _ in range(5)] for c in children_b]
        assert streams_a == streams_b
        # distinct children produce distinct streams
        assert streams_a[0] != streams_a[1]

    def test_spawn_differs_from_parent_stream(self):
        parent = RandomSource(5)
        child = parent.spawn()
        assert [parent.uniform_int(0, 10**9) for _ in range(5)] != [
            child.uniform_int(0, 10**9) for _ in range(5)
        ]

    def test_bernoulli_bounds(self):
        src = RandomSource(0)
        assert all(not src.bernoulli(0.0) for _ in range(50))
        assert all(src.bernoulli(1.0) for _ in range(50))

    def test_bernoulli_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            RandomSource(0).bernoulli(1.5)
        with pytest.raises(ValueError):
            RandomSource(0).bernoulli(-0.1)

    def test_bernoulli_rate_roughly_matches(self):
        src = RandomSource(42)
        hits = sum(src.bernoulli(0.3) for _ in range(5000))
        assert 0.25 < hits / 5000 < 0.35

    def test_uniform_int_inclusive_range(self):
        src = RandomSource(9)
        values = {src.uniform_int(3, 5) for _ in range(200)}
        assert values == {3, 4, 5}

    def test_uniform_int_single_point(self):
        assert RandomSource(0).uniform_int(4, 4) == 4

    def test_uniform_int_rejects_empty_range(self):
        with pytest.raises(ValueError):
            RandomSource(0).uniform_int(5, 4)

    def test_uniform_in_unit_interval(self):
        src = RandomSource(1)
        assert all(0.0 <= src.uniform() < 1.0 for _ in range(100))

    def test_sample_without_replacement_distinct(self):
        src = RandomSource(2)
        sample = src.sample_without_replacement(50, 20)
        assert len(set(int(x) for x in sample)) == 20
        assert all(0 <= x < 50 for x in sample)

    def test_sample_without_replacement_rejects_oversample(self):
        with pytest.raises(ValueError):
            RandomSource(0).sample_without_replacement(3, 5)

    def test_shuffled_is_permutation(self):
        src = RandomSource(3)
        items = list(range(30))
        shuffled = src.shuffled(items)
        assert sorted(shuffled) == items
        assert items == list(range(30))  # original untouched

    def test_seed_entropy_exposed(self):
        assert RandomSource(123).seed_entropy == 123

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(77)
        src = RandomSource(seq)
        assert src.seed_entropy == 77


#: (root seed, root spawn key, children spawned before ``spawn_many``).
#: ``None`` draws 128 bits of OS entropy; ``2**33 + 5`` is a two-word key.
ROOTS = [
    (0, (), 0),
    (7, (), 2),
    (2**40 + 7, (3,), 0),
    (None, (1, 2**33 + 5), 1),
]
CHILDREN = 512
#: Spans of ``uniform_int``: numpy's special cases (1, 2^32), both Lemire
#: paths, 2^31 + 11 (about half its rows are Lemire rejections), the
#: n = 16384 rank space, and 2^62 + 1 (RandomSource's chunked path).
SPANS = [
    1, 2, 10, 2**31 + 11, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3,
    16384**4, 3 * 2**60 + 12345, 2**62, 2**62 + 1,
]


def _root(seed, key, spawned):
    """A root source plus the oracle's children of its next spawn_many."""
    sequence = np.random.SeedSequence(seed, spawn_key=key)
    root = RandomSource(sequence)
    for _ in range(spawned):
        root.spawn()
    oracle = np.random.SeedSequence(sequence.entropy, spawn_key=key).spawn(
        spawned + CHILDREN
    )[spawned:]
    return root, oracle


def _assert_next_draws_match(streams, oracle_sources):
    """Every child's next five draws equal its eager oracle's."""
    for child, expected in zip(streams, oracle_sources):
        assert [child.uniform() for _ in range(5)] == [
            expected.uniform() for _ in range(5)
        ]


@pytest.mark.parametrize("seed,key,spawned", ROOTS)
class TestNodeStreamsOracle:
    """``NodeStreams`` against ``SeedSequence.spawn`` + ``default_rng``."""

    def test_children_match_eager_spawn(self, seed, key, spawned):
        root, oracle = _root(seed, key, spawned)
        streams = root.spawn_many(CHILDREN)
        assert [child.generator.random() for child in streams] == [
            np.random.default_rng(sequence).random() for sequence in oracle
        ]

    @pytest.mark.parametrize("probability", [0.0, 1e-3, 0.5, 1.0])
    def test_first_bernoulli(self, seed, key, spawned, probability):
        root, oracle = _root(seed, key, spawned)
        streams = root.spawn_many(CHILDREN)
        flips = streams.bernoulli(probability)
        expected = [RandomSource(sequence) for sequence in oracle]
        assert flips.dtype == bool
        assert flips.tolist() == [s.bernoulli(probability) for s in expected]
        _assert_next_draws_match(streams, expected)

    @pytest.mark.parametrize("span", SPANS)
    def test_first_uniform_int(self, seed, key, spawned, span):
        root, oracle = _root(seed, key, spawned)
        streams = root.spawn_many(CHILDREN)
        low = 5
        values = streams.uniform_int(low, low + span - 1)
        expected = [RandomSource(sequence) for sequence in oracle]
        assert values.dtype == np.int64
        assert values.tolist() == [
            s.uniform_int(low, low + span - 1) for s in expected
        ]
        _assert_next_draws_match(streams, expected)


class TestNodeStreams:
    def test_len_index_slice_and_iteration(self):
        streams = RandomSource(4).spawn_many(6)
        oracle = np.random.SeedSequence(4).spawn(6)
        assert isinstance(streams, NodeStreams)
        assert len(streams) == 6
        draws = [child.uniform() for child in RandomSource(4).spawn_many(6)]
        assert draws == [np.random.default_rng(s).random() for s in oracle]
        assert streams[-1] is streams[5]
        assert streams[1:6:2] == [streams[1], streams[3], streams[5]]
        assert list(streams) == [streams[i] for i in range(6)]
        with pytest.raises(IndexError):
            streams[6]

    def test_spawn_after_spawn_many_continues_the_counter(self):
        # RandomSource(s).spawn_many(n).spawn() is child n, bit for bit.
        root = RandomSource(9)
        root.spawn_many(100)
        after = root.spawn()
        oracle = np.random.SeedSequence(9).spawn(101)[100]
        assert after.generator.random() == np.random.default_rng(oracle).random()
        assert root.spawn_many(3)[0].uniform() == RandomSource(
            np.random.SeedSequence(9).spawn(102)[101]
        ).uniform()

    def test_uniform_int_beyond_int64_gives_python_ints(self):
        streams = RandomSource(2).spawn_many(8)
        values = streams.uniform_int(1, 2**70)
        oracle = [
            RandomSource(s).uniform_int(1, 2**70)
            for s in np.random.SeedSequence(2).spawn(8)
        ]
        assert values.dtype == object
        assert values.tolist() == oracle

    def test_second_vectorized_draw_is_rejected(self):
        streams = RandomSource(1).spawn_many(4)
        streams.bernoulli(0.5)
        with pytest.raises(RuntimeError, match="already made"):
            streams.uniform_int(1, 10)

    def test_vectorized_draw_after_building_a_child_is_rejected(self):
        streams = RandomSource(1).spawn_many(4)
        streams[2].uniform()
        with pytest.raises(RuntimeError, match="precede"):
            streams.bernoulli(0.5)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            RandomSource(0).spawn_many(3).bernoulli(1.5)
        with pytest.raises(ValueError):
            RandomSource(0).spawn_many(3).uniform_int(5, 4)


class TestSharedCoin:
    def test_values_in_unit_interval(self):
        coin = SharedCoin(RandomSource(0))
        assert all(0.0 <= coin.next_uniform() < 1.0 for _ in range(50))

    def test_flip_counter(self):
        coin = SharedCoin(RandomSource(0))
        coin.next_uniform()
        coin.next_bits(3)
        assert coin.flips == 4

    def test_bits_are_binary(self):
        coin = SharedCoin(RandomSource(1))
        assert set(coin.next_bits(200)) <= {0, 1}

    def test_same_seed_same_shared_sequence(self):
        a = SharedCoin(RandomSource(5))
        b = SharedCoin(RandomSource(5))
        assert [a.next_uniform() for _ in range(10)] == [
            b.next_uniform() for _ in range(10)
        ]
