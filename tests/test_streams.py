"""Stream keys derived in one pass against numpy's SeedSequence, streams
opened from them, and the seeds derived from them."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlpf import streams

SEEDS = st.integers(0, 2 ** 64 - 1)
KEY_PARTS = st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=4)


def seed_sequence_key(seed: int, key) -> np.ndarray:
    """The Philox key that numpy derives from ``SeedSequence(seed, spawn_key=key)``."""
    return np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(key))).state["state"]["key"]


def seed_sequence_generator(seed: int, key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(key))))


@settings(max_examples=300, deadline=None)
@given(SEEDS, KEY_PARTS)
def test_keys_equal_seed_sequence_keys(seed, key):
    assert np.array_equal(streams.stream_keys(seed, *key), seed_sequence_key(seed, key))


@settings(max_examples=50, deadline=None)
@given(st.lists(SEEDS, min_size=1, max_size=6), KEY_PARTS)
def test_one_pass_over_arrays_equals_each_key(seeds, key):
    """Seeds along axis 0 and the last key part along axis 1, broadcast."""
    last = np.arange(key[-1], key[-1] + 3) % 2 ** 32
    keys = streams.stream_keys(np.array(seeds, dtype=np.uint64)[:, None], *key[:-1], last)
    assert keys.shape == (len(seeds), 3, 2) and keys.dtype == np.uint64
    for i, seed in enumerate(seeds):
        for j, part in enumerate(last.tolist()):
            assert np.array_equal(keys[i, j], seed_sequence_key(seed, key[:-1] + [part]))


@pytest.mark.parametrize("seed", [0, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1])
def test_a_seed_without_a_spawn_key(seed):
    ref = np.random.Philox(np.random.SeedSequence(seed)).state["state"]["key"]
    assert np.array_equal(streams.stream_keys(seed), ref)


@settings(max_examples=50, deadline=None)
@given(SEEDS, KEY_PARTS)
def test_keyed_streams_draw_what_seed_sequence_generators_draw(seed, key):
    keyed = streams.open_stream(streams.stream_keys(seed, *key))
    ref = seed_sequence_generator(seed, key)
    assert np.array_equal(keyed.standard_normal(7), ref.standard_normal(7))
    assert np.array_equal(keyed.integers(2 ** 63, size=5), ref.integers(2 ** 63, size=5))
    assert np.array_equal(streams.generator(seed, *key).standard_normal(7),
                          seed_sequence_generator(seed, key).standard_normal(7))


def test_reopening_a_used_generator_starts_the_stream_afresh():
    """A reset clears the counter, the buffered words and a held half word."""
    keys = streams.stream_keys(11, 0, 3, np.arange(2))
    stream = streams.open_stream(keys[0])
    stream.standard_normal(5)
    stream.integers(10, dtype=np.uint32)  # leaves half of a 64-bit word held
    assert stream.bit_generator.state["has_uint32"] == 1
    assert streams.open_stream(keys[1], stream) is stream
    ref = seed_sequence_generator(11, (0, 3, 1))
    assert np.array_equal(stream.integers(10, size=9, dtype=np.uint32),
                          ref.integers(10, size=9, dtype=np.uint32))
    assert np.array_equal(stream.standard_normal(9), ref.standard_normal(9))


@pytest.mark.parametrize("args,name", [
    ((1, 2 ** 32), "key part 0"),
    ((1, 0, 2, -1), "key part 2"),
    ((1, 0, np.array([0, 2 ** 32])), "key part 1"),
    ((1, 0, [1, 2 ** 40]), "key part 1"),
    ((1, 1.0), "key part 0"),
    ((2 ** 64, 0), "seed"),
    ((-1, 0), "seed"),
    ((np.array([-1]), 0), "seed"),
    ((True, 0), "seed"),
])
def test_out_of_range_words_are_rejected_by_name(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer in "):
        streams.stream_keys(*args)


@pytest.mark.parametrize("derive,tag", [(streams.level_seed, streams.TAG_LEVEL),
                                        (streams.replicate_seed, streams.TAG_REPLICATE)])
@pytest.mark.parametrize("master", [0, 42, 77, 2 ** 32 + 5, 2 ** 64 - 1])
def test_derived_seeds_are_the_seed_sequence_words(derive, tag, master):
    """Word 0 of a key is ``generate_state(1, uint64)``, which these seeds
    were before they were derived from keys; an array gives them in one pass."""
    index = np.arange(12)
    expect = [int(np.random.SeedSequence(master, spawn_key=(tag, i)).generate_state(1, np.uint64)[0])
              for i in range(12)]
    assert [derive(master, i) for i in range(12)] == expect
    assert derive(master, index).tolist() == expect
    assert derive(np.array([master, 3], dtype=np.uint64), index[:, None])[:, 0].tolist() == expect
