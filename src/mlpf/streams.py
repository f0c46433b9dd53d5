"""Counter-based random streams for schedule-independent simulation.

Every random draw is produced by a Philox generator.  Philox is keyed and
counter-based, so a stream is fully given by its 128-bit key and counter 0.
The key of stream ``(seed, purpose, level, unit_interval)`` is the one
numpy's ``SeedSequence(seed, spawn_key=(purpose, level, unit_interval))``
would give, and the mapping from (particle, step) to a Gaussian variate is a
pure function of those integers, so results do not depend on execution
order, worker count, or how many other levels are being run.

``stream_keys`` derives the keys of many streams in one vectorized pass of
the ``SeedSequence`` mixing, and ``open_stream`` opens a stream from its key
by resetting a reused generator, at a few microseconds a stream where a
``SeedSequence`` and a new generator cost tens.  The filters derive all
their noise and resampling keys at the start of a call and open every
stream this way.  ``generator`` builds a new generator from a seed and a
spawn key, for the few draws outside the filters; ``level_seed`` and
``replicate_seed`` are word 0 of a key, and take arrays for one pass.

A noise block can be drawn into a caller's buffer (``noise_block(...,
out=...)``), which is how the filters reuse one buffer for every interval of
a call, and in successive row ranges from one opened stream
(``noise_block(..., stream=...)``), which is how they cut a block into
tiles.  ``check_count`` and ``check_seed`` are the checks of an integer
count or seed at the API boundary.
"""

from __future__ import annotations

import numbers

import numpy as np

# spawn-key purpose tags; keep stable, they define the reproducible stream layout
TAG_NOISE = 0
TAG_RESAMPLE = 1
TAG_OBS = 2
TAG_LATENT = 3
TAG_LEVEL = 4
TAG_REPLICATE = 5
TAG_TRUTH = 6

# a seed is any integer in [0, SEED_BOUND); a key part one in [0, 2**32)
SEED_BOUND = 1 << 64

# numpy's SeedSequence: pool size, hash and mix constants (numpy/random/bit_generator.pyx)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# the pool slots that each slot is mixed into, in order
_OTHERS = [np.array([d for d in range(_POOL) if d != s]) for s in range(_POOL)]


def is_count(value, least: int) -> bool:
    """An integer, not a bool, of at least ``least``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


def check_count(value, name: str, least: int) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is an integer,
    not a bool, of at least ``least``."""
    if not is_count(value, least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def is_seed(value) -> bool:
    """An integer in [0, 2**64), not a bool."""
    return is_count(value, 0) and value < SEED_BOUND


def check_seed(value, name: str = "seed") -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is a seed."""
    check_count(value, name, 0)
    if value >= SEED_BOUND:
        raise ValueError(f"{name} must be less than 2**64, got {value!r}")


def _hash_constants(init: int, mult: int, calls: int) -> tuple:
    """The xor and multiply constants of ``calls`` successive hash calls, as
    two new (calls, 1) uint32 column vectors, made at each call: call i xors
    with init*mult**i and multiplies by init*mult**(i+1), modulo 2**32."""
    powers = [init]
    for _ in range(calls):
        powers.append(powers[-1] * mult & 0xFFFFFFFF)
    column = np.array(powers, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


def _hash(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    out = values ^ xor
    out *= mul
    out ^= out >> 16
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L
    out -= y * _MIX_R
    out ^= out >> 16
    return out


def _words(values, bits: int, name: str):
    """``values`` as a Python int or a uint64 array, each an integer in [0, 2**bits)."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        ok = values.size == 0 or (values.min() >= 0 and values.max() < 1 << bits)
        words = values.astype(np.uint64, copy=False)
    elif is_count(values, 0):
        ok, words = values < 1 << bits, int(values)
    else:  # Python ints: an object array keeps every bit, where numpy's own guess may be float
        a = np.asarray(values, dtype=object)
        ok = all(is_count(v, 0) and v < 1 << bits for v in a.flat)
        words = a.astype(np.uint64) if ok else None
    if not ok:
        raise ValueError(f"{name} must be an integer in [0, 2**{bits}), got {values!r}")
    return words


def stream_keys(seeds, *key) -> np.ndarray:
    """The Philox keys of ``generator(seed, *key)`` for every seed, as a
    (..., 2) uint64 array.

    ``seeds`` is an integer or an array of integers in [0, 2**64), and each
    key part an integer or an array of integers in [0, 2**32); all are
    broadcast against each other.  One pass runs numpy's ``SeedSequence``
    mixing (pool size 4) on uint32 rows, one column per key, and its
    ``generate_state(2, uint64)``.  A seed is the entropy words [low, high];
    with a spawn key it is zero-padded to the pool, and without one the
    pool's missing words hash as 0, which is the same.
    """
    seed = _words(seeds, 64, "seed")
    parts = [_words(k, 32, f"key part {i}") for i, k in enumerate(key)]
    shape = np.broadcast_shapes(*(np.shape(w) for w in [seed, *parts]))
    entropy = np.zeros((_POOL + len(parts),) + shape, dtype=np.uint32)
    entropy[0] = seed & 0xFFFFFFFF
    entropy[1] = seed >> 32
    for i, part in enumerate(parts):
        entropy[_POOL + i] = part
    entropy = entropy.reshape(len(entropy), -1)
    xor, mul = _hash_constants(_INIT_A, _MULT_A, _POOL * (_POOL + len(parts)))
    # fill the pool, then mix every slot into every other one ...
    pool = _hash(entropy[:_POOL], xor[:_POOL], mul[:_POOL])
    c = _POOL
    for src, dst in enumerate(_OTHERS):
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[c:c + 3], mul[c:c + 3]))
        c += 3
    # ... then mix each spawn-key word into every slot, its hashes taken at once
    words = _hash(entropy[_POOL:, None], xor[c:].reshape(-1, _POOL, 1), mul[c:].reshape(-1, _POOL, 1))
    for hashed in words:
        pool = _mix(pool, hashed)
    xor, mul = _hash_constants(_INIT_B, _MULT_B, _POOL)
    state = _hash(pool, xor, mul).astype(np.uint64)
    keys = np.empty(state.shape[1:] + (2,), dtype=np.uint64)
    keys[:, 0] = state[0] | state[1] << 32
    keys[:, 1] = state[2] | state[3] << 32
    return keys.reshape(shape + (2,))


def open_stream(key, stream: np.random.Generator | None = None) -> np.random.Generator:
    """The Philox stream of ``key``, a row of ``stream_keys``, at its start.

    With ``stream``, a generator made here, its Philox is reset in place to
    the key, counter 0 and an empty buffer, and ``stream`` is returned; a
    caller that draws streams one after another reuses one generator.
    """
    if stream is None:
        stream = np.random.Generator(np.random.Philox(0))
    stream.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (int(key[0]), int(key[1]))},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return stream


def generator(seed: int, *key: int) -> np.random.Generator:
    """A new Philox generator keyed by ``seed`` and an integer spawn key."""
    return open_stream(stream_keys(seed, *key))


def noise_block(seed: int, level: int, interval: int, n: int,
                out: np.ndarray | None = None,
                stream: np.random.Generator | None = None) -> np.ndarray:
    """Standard-normal block of shape (n, 2**level) for one unit interval.

    Particle ``i`` owns row ``i``; step ``k`` of particle ``i`` is column
    ``k``.  Callers scale by sqrt(step size) to obtain Brownian increments.

    With ``out``, a C-contiguous float64 array of that shape (for example a
    row slice of a larger buffer), the block is drawn into it in place and
    ``out`` is returned; the values are the same as those of a new block.

    With ``stream``, opened by ``open_stream`` from the key
    ``stream_keys(seed, TAG_NOISE, level, interval)``, the n rows are drawn
    from it where it stands: after draws of k rows in all, they are rows
    k .. k+n-1 of the whole block, so a block may be drawn in successive row
    ranges.
    """
    shape = (n, 2 ** level)
    g = generator(seed, TAG_NOISE, level, interval) if stream is None else stream
    if out is None:
        return g.standard_normal(shape)
    if out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, expected {shape}")
    g.standard_normal(out=out)
    return out


def _first_word(keys: np.ndarray):
    words = keys[..., 0]
    return int(words) if words.ndim == 0 else words


def level_seed(master_seed, level):
    """Derive an independent per-level seed for multilevel runs.

    ``master_seed`` and ``level`` may be arrays, broadcast against each
    other, which gives a uint64 array of seeds from one pass.
    """
    return _first_word(stream_keys(master_seed, TAG_LEVEL, level))


def replicate_seed(master_seed, index):
    """Derive an independent seed for replicate ``index`` of a benchmark
    run; ``index`` may be an array, as for ``level_seed``."""
    return _first_word(stream_keys(master_seed, TAG_REPLICATE, index))
