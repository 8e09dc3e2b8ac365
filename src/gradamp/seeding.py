"""Deterministic RNG streams keyed by (seed, round, client, ...) tuples.

Each stream is an independent PCG64 generator, so clients can train in any
order, or in parallel, without perturbing one another's draws.  Two entry
points give the same generators:

  * ``rng_stream(*key)`` is ``default_rng(SeedSequence(key))``, one stream
    for any key of non-negative ints: setup sub-seeds, attacks, reports and
    tests use it.
  * ``round_streams(seed, round_idx, clients)`` is the list of
    ``rng_stream(seed, round_idx, c)`` for a round's clients, from one pass
    of the hash: the seed and round words stay Python ints and only the
    client word is a uint64 array, so each step the client word does not
    reach runs once per round.  Each client's ``generate_state(4, uint64)``
    row seeds its ``PCG64`` through ``_Preset`` without a second hash.
    ``LocalTraining.train_all`` builds its training streams with it.

The hash follows numpy's documented ``SeedSequence``, O'Neill's
``seed_seq_fe``: a pool of 4 uint32 words, mixed, then ``generate_state``,
from which ``PCG64`` takes its state and increment (O'Neill 2014, "PCG: A
Family of Simple Fast Space-Efficient Statistically Good Algorithms for
Random Number Generation").  The array path is uint64 arithmetic with
explicit uint64 operands, so it leans on no promotion rule; it may wrap,
which is harmless, since every value is masked to 32 bits before a shift
reads its high bits.  ``tests/test_seeding.py`` compares every
``round_streams`` state with ``rng_stream``'s, and ``tests/test_golden.py``
pins the run bytes per numpy build, so a numpy that changes
``SeedSequence`` fails loudly.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_POOL = 4
_MASK32 = 0xFFFFFFFF
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def rng_stream(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def round_streams(seed: int, round_idx: int, clients) -> list[np.random.Generator]:
    """One generator per client, each with the state of
    ``rng_stream(seed, round_idx, c)``.  A client id outside [0, 2**32)
    takes ``rng_stream`` itself, so a negative one raises as it does."""
    clients = [int(c) for c in clients]
    if not clients:
        return []
    shared = _words(seed) + _words(round_idx)
    fits = [0 <= c <= _MASK32 for c in clients]
    ids = np.array([c for c, ok in zip(clients, fits) if ok], dtype=np.uint64)
    rows = iter(np.stack(_seed_state([*shared, ids]), axis=1))
    return [
        np.random.Generator(np.random.PCG64(_Preset(next(rows))))
        if ok
        else rng_stream(seed, round_idx, c)
        for c, ok in zip(clients, fits)
    ]


class _Preset(ISeedSequence):
    """A seed sequence whose one output is a precomputed
    ``generate_state(4, np.uint64)`` row, a C-contiguous (4,) uint64 array:
    what ``PCG64`` asks of a seed sequence, and all it asks."""

    def __init__(self, row: np.ndarray):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a preset state is 4 uint64 words, not {n_words} {np.dtype(dtype)}")
        return self.row


def _words(n: int) -> list[int]:
    """``n`` as SeedSequence splits an int: little-endian uint32 words, [0]
    for 0."""
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _u64(x):
    """``x`` as an explicit uint64 operand: a 0-d array, numpy's cheapest
    operand next to an array."""
    return x if isinstance(x, np.ndarray) else np.array(x, dtype=np.uint64)


def _constants(init: int, mult: int, calls: int) -> list[tuple]:
    """The hash multipliers init * mult**k mod 2**32, k = 0..calls, each as
    (int, uint64 operand)."""
    out = [init]
    for _ in range(calls):
        out.append(out[-1] * mult & _MASK32)
    return [(k, _u64(k)) for k in out]


_A = _constants(_INIT_A, _MULT_A, _POOL * _POOL)  # entropy of at most 4 words
_B = _constants(_INIT_B, _MULT_B, 2 * _POOL)  # generate_state(4, np.uint64)
_U_MASK32, _U_XSHIFT, _U_MIX_L, _U_MIX_R, _U_32 = map(_u64, (_MASK32, _XSHIFT, _MIX_L, _MIX_R, 32))


def _hashmix(value, xor: tuple, mult: tuple):
    if isinstance(value, np.ndarray):
        value = (value ^ xor[1]) * mult[1] & _U_MASK32
        return value ^ (value >> _U_XSHIFT)
    value = (value ^ xor[0]) * mult[0] & _MASK32
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        out = (_U_MIX_L * _u64(x) - _U_MIX_R * _u64(y)) & _U_MASK32
        return out ^ (out >> _U_XSHIFT)
    out = (_MIX_L * x - _MIX_R * y) & _MASK32
    return out ^ (out >> _XSHIFT)


def _seed_state(entropy: list) -> list:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` as 4 words,
    over uint32 entropy words that are ints or uint64 arrays: a pool word
    turns into an array at the first step that mixes an array into it."""
    n = len(entropy)
    a = _A if n <= _POOL else _constants(_INIT_A, _MULT_A, _POOL * n)
    calls = iter(zip(a, a[1:]))

    def hashmix(value):
        return _hashmix(value, *next(calls))

    pool = [hashmix(entropy[i] if i < n else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, n):
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(entropy[src]))
    # generate_state: 8 uint32 words, read as 4 little-endian uint64 words
    half = [_hashmix(pool[i % _POOL], _B[i], _B[i + 1]) for i in range(2 * _POOL)]
    return [half[2 * j] | (half[2 * j + 1] << _U_32) for j in range(_POOL)]
