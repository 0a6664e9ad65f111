"""Deterministic per-trial seeding.

Trials receive :class:`numpy.random.SeedSequence` children derived from a
single root seed.  Child ``i`` is a pure function of the root's entropy and
spawn key plus ``i``, so trial ``i`` sees the same stream whether the
experiment runs on 1 worker or 32 — the property the HPC guides call
"reproducible regardless of schedule" — and whether or not the root
object was used before (``SeedSequence.spawn`` advances its root, so a
second call would hand out different children).

:func:`trial_states` gives the native kernels' per-replica xoshiro256++
states — child ``i``'s ``generate_state(4, uint64)`` — for all ``n``
children in one vectorized pass instead of ``n`` ``SeedSequence`` objects.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any, List, Tuple

import numpy as np
import numpy.typing as npt

from ..errors import ConfigurationError
from ..rng import as_seed_sequence
from ..types import SeedLike

__all__ = ["trial_seeds", "trial_seed", "trial_states"]


def trial_seeds(seed: SeedLike, n_trials: int) -> List[np.random.SeedSequence]:
    """One independent seed sequence per trial: ``trial_seed(seed, i)``.

    These equal the children ``SeedSequence.spawn`` gives a fresh root, but
    the root is left untouched, so the same seed object yields the same
    children every time.
    """
    if n_trials < 0:
        raise ConfigurationError(f"n_trials must be >= 0, got {n_trials}")
    root = as_seed_sequence(seed)
    return [trial_seed(root, i) for i in range(n_trials)]


def trial_seed(seed: SeedLike, trial_index: int) -> np.random.SeedSequence:
    """The seed sequence of a single trial, without spawning the whole list.

    ``trial_seed(s, i)`` equals ``trial_seeds(s, n)[i]`` for every ``n > i``,
    and ``s.spawn(n)[i]`` for a root that has not spawned before.  The
    root's own ``spawn_key`` is part of the derivation, so two distinct
    spawned children of one ancestor yield *independent* trial streams —
    not copies of each other.

    Because the derivation is a pure function of ``(entropy, spawn_key)``
    — it never mutates the root the way ``SeedSequence.spawn`` does — a
    derived seed can be serialized as that pair and reconstructed
    exactly.  The ensemble engine's start and simulation streams, the
    trial runner's per-trial streams, the sweep planner's per-point
    streams and
    :mod:`repro.verify`'s per-case/per-horizon streams (including replay
    from counterexample artifacts) all rely on this contract.
    """
    if trial_index < 0:
        raise ConfigurationError(f"trial_index must be >= 0, got {trial_index}")
    base = as_seed_sequence(seed)
    return np.random.SeedSequence(
        entropy=base.entropy, spawn_key=tuple(base.spawn_key) + (trial_index,)
    )


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx); the hash
# constant schedule they drive does not depend on the data, so it stays in
# Python ints masked to 32 bits while the data words are uint32 arrays
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4

_Words = npt.NDArray[np.unsignedinteger[Any]]


def trial_states(seed: SeedLike, n: int) -> npt.NDArray[np.uint64]:
    """Every trial's 4-word uint64 state at once: an ``(n, 4)`` array.

    Row ``i`` equals ``trial_seed(seed, i).generate_state(4, dtype=np.uint64)``
    bit for bit — the per-replica xoshiro256++ states of the native
    kernels — but all ``n`` children are hashed together as uint32 array
    operations instead of one ``SeedSequence`` object each.  The seed
    object is not advanced.  ``n`` is capped at ``2**32`` so every child
    index is a single spawn-key word.

    >>> row = trial_seed(7, 2).generate_state(4, dtype=np.uint64)
    >>> bool((trial_states(7, 3)[2] == row).all())
    True
    """
    if n < 0:
        raise ConfigurationError(f"n must be >= 0, got {n}")
    if n > 2**32:
        raise ConfigurationError(
            f"n must be <= 2**32 (a larger child index takes two spawn-key "
            f"words), got {n}"
        )
    root = as_seed_sequence(seed)
    # SeedSequence.get_assembled_entropy for the child (entropy,
    # spawn_key + (i,)): the run entropy is zero-padded to the pool size
    # because the spawn key is non-empty, and index i < 2**32 is one word
    run_entropy = _uint32_words(root.entropy)
    run_entropy += [0] * (_POOL_SIZE - len(run_entropy))
    shared = run_entropy + _uint32_words(root.spawn_key)
    entropy: List[_Words] = [np.array([word], dtype=np.uint32) for word in shared]
    entropy.append(np.arange(n, dtype=np.uint32))
    words = _generate_state(_mix_entropy(entropy), 2 * 4)
    # little-endian word pairs, as generate_state builds its uint64 words
    pairs = np.stack(words, axis=-1).astype("<u4")
    return pairs.view("<u8").astype(np.uint64)


def _uint32_words(value: object) -> List[int]:
    """``value`` as SeedSequence coerces it: little-endian uint32 words.

    Entropy is an int or a (nested) sequence of ints, as ``SeedSequence``
    documents it; strings, which numpy versions parse differently, are
    refused.
    """
    if isinstance(value, (int, np.integer)):
        number = int(value)
        if number < 0:
            raise ValueError("expected non-negative integer")
        words = [number & _MASK32]
        while number > _MASK32:
            number >>= 32
            words.append(number & _MASK32)
        return words
    if isinstance(value, str) or not isinstance(value, Iterable):
        raise TypeError(f"seed entropy must be integers, got {value!r}")
    return [word for item in value for word in _uint32_words(item)]


def _hashmix(value: _Words, const: int, mult: int) -> Tuple[_Words, int]:
    """SeedSequence's hash step: the mixed words and the next hash constant."""
    mixed: _Words = value ^ np.uint32(const)
    const = const * mult & _MASK32
    mixed *= np.uint32(const)
    mixed ^= mixed >> _XSHIFT
    return mixed, const


def _mix(x: _Words, y: _Words) -> _Words:
    result: _Words = x * _MIX_MULT_L - y * _MIX_MULT_R
    result ^= result >> _XSHIFT
    return result


def _mix_entropy(entropy: List[_Words]) -> List[_Words]:
    """SeedSequence.mix_entropy into a fresh pool; entropy exceeds the pool.

    Each entropy word is a uint32 array broadcast across the children, so
    a word shared by all of them is hashed once.
    """
    const = _INIT_A
    pool: List[_Words] = []
    for word in entropy[:_POOL_SIZE]:
        mixed, const = _hashmix(word, const, _MULT_A)
        pool.append(mixed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], mixed)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            mixed, const = _hashmix(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], mixed)
    return pool


def _generate_state(pool: List[_Words], n_words: int) -> List[_Words]:
    """SeedSequence.generate_state's uint32 words, cycling the pool."""
    const = _INIT_B
    words: List[_Words] = []
    for index in range(n_words):
        word, const = _hashmix(pool[index % _POOL_SIZE], const, _MULT_B)
        words.append(word)
    return words
