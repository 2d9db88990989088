"""Deterministic random-number management.

Every stochastic component in the reproduction (walkers, negative samplers,
partitioner tie-breaks, dataset generators) receives an explicit
:class:`numpy.random.Generator`.  Centralising construction here keeps all
experiments reproducible: a single integer seed fans out into independent
streams via :func:`spawn_rngs`.

Per-walker counter streams (the shared seed protocol)
-----------------------------------------------------
The walk engine additionally needs randomness that is *private to each
walker* and *independent of scheduling*: the per-walker loop of the test
oracle advances walkers in BSP queue order while the lock-step rounds
advance them together, and the two must still consume identical random
sequences for the reference-parity suite to assert byte-identical
corpora.  Stateful generators cannot provide
that (draw order differs between the two), so walker randomness is
**counter-based**: a walker's stream key is derived from
``(seed, walk_id)`` by :func:`walker_stream_keys` and its ``t``-th
uniform is a pure function of ``(key, t)`` computed by
:func:`stream_uniforms` -- the splitmix64 output function evaluated on
``key + t·γ``.  The lock-step rounds evaluate it on arrays, the
per-walker loop on Python ints through :class:`WalkerStream`; both are
exact integer arithmetic, which guarantees bit-identical values
regardless of batching, machine count, or superstep interleaving.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]

#: splitmix64's additive constant (the golden-ratio gamma).
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MUL2 = np.uint64(0x94D049BB133111EB)
#: 2**-53: maps the top 53 bits of a uint64 onto [0, 1).
_U53_INV = float(2.0 ** -53)


def default_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts ``None`` (non-deterministic), an integer seed, an existing
    generator (returned unchanged so callers can thread one generator
    through a pipeline), or a :class:`numpy.random.SeedSequence`.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Spawn ``count`` independent generators from a single ``seed``.

    Used to give each simulated machine (or thread) its own stream so that
    changing the number of machines does not perturb unrelated streams.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive children from the generator's own bit stream.
        seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def _mix64(z: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """splitmix64's output function (finalising mix), **in place**.

    ``z`` must be a ``uint64`` array the caller owns: every shift lands in
    ``scratch`` (same shape; allocated when omitted) and every xor and
    multiply writes back into ``z``, which is also returned.  The integer
    operations are the ones the expression form
    ``(z ^ (z >> 30)) * M1 ...`` performs, so the values are identical;
    what changes is that a block of lanes is mixed through two buffers
    instead of eight temporaries -- the walk engine's trial blocks and the
    trainer's negative draws (:meth:`CounterStream.uniforms`) both go
    through here.
    """
    if scratch is None:
        scratch = np.empty_like(z)
    np.right_shift(z, np.uint64(30), out=scratch)
    z ^= scratch
    z *= _SM64_MUL1
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= _SM64_MUL2
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    return z


def walker_seed_root(seed: SeedLike) -> int:
    """Canonical 64-bit root all per-walker streams derive from.

    Deterministic for integer seeds and seed sequences; draws from the
    generator's own bit stream for Generator inputs; fresh OS entropy for
    ``None`` (so explicitly non-deterministic runs stay non-deterministic).
    """
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**63 - 1))
    if isinstance(seed, np.random.SeedSequence):
        return int(seed.generate_state(1, np.uint64)[0])
    return int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])


def walker_stream_keys(root: int, walk_ids: np.ndarray) -> np.ndarray:
    """Stream key for every walker: ``mix64(root + (walk_id + 1)·γ)``.

    ``walk_ids`` must be non-negative; the returned ``uint64`` array is the
    counter-stream key each walker keeps for its whole life, including
    across machine hops (the key, not a generator, is what a walker message
    conceptually carries).
    """
    ids = np.asarray(walk_ids, dtype=np.uint64)
    return _mix64(np.asarray(
        np.uint64(root) + _SM64_GAMMA * (ids + np.uint64(1))))


def stream_arguments(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """``keys + γ·(counters + 1)`` mod 2**64, as a fresh ``uint64`` array.

    The splitmix64 state whose mix is uniform number ``counters[i]`` of
    stream ``keys[i]``.  Consecutive counters of one stream sit exactly
    ``γ`` apart (unsigned arithmetic wraps, and wrapping is what
    splitmix64 specifies), so a caller that advances an argument by
    :func:`stream_stride` ``(k)`` itself addresses counter ``+k`` of the
    same stream -- how the walk engine lays a block of trials out without
    per-lane key and counter gathers.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    counters = np.asarray(counters, dtype=np.uint64)
    return np.asarray(keys + _SM64_GAMMA * (counters + np.uint64(1)))


def argument_uniforms(args: np.ndarray, out: Optional[np.ndarray] = None,
                      scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Uniforms in [0, 1) of the stream arguments ``args`` (consumed).

    ``args`` is mixed in place (see :func:`_mix64`) and its top 53 bits
    are scaled by 2**-53 into ``out`` (``float64``, allocated when
    omitted); ``scratch`` is the mix's ``uint64`` buffer.
    """
    z = _mix64(args, scratch)
    z >>= np.uint64(11)
    # uint64 -> float64 is exact below 2**53 and so is the power-of-two
    # scaling, so this is ``(z >> 11).astype(float64) * 2**-53`` without
    # the two temporaries.
    return np.multiply(z, _U53_INV, out=out)


def stream_uniforms(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """The ``counters[i]``-th uniform of each stream ``keys[i]`` in [0, 1).

    A pure function of ``(key, counter)`` -- evaluation order, batching and
    interleaving across walkers cannot change any value, which is the
    property the loop/vectorized parity protocol rests on.
    """
    return argument_uniforms(stream_arguments(keys, counters))


#: Python-int mirrors of the uint64 constants (for the scalar fast path).
_U64_MASK = (1 << 64) - 1
_SM64_GAMMA_INT = int(_SM64_GAMMA)
_SM64_MUL1_INT = int(_SM64_MUL1)
_SM64_MUL2_INT = int(_SM64_MUL2)


def stream_stride(counters: int) -> np.uint64:
    """``counters·γ`` mod 2**64: how far apart the stream arguments of two
    counters ``counters`` apart sit (see :func:`stream_arguments`)."""
    return np.uint64((counters * _SM64_GAMMA_INT) & _U64_MASK)


def _mix64_int(z: int) -> int:
    """splitmix64 output function on a Python int (mod 2**64).

    Unsigned 64-bit integer arithmetic is exact, so this is bit-identical
    to :func:`_mix64` on uint64 arrays -- the scalar fast path the
    per-walker loop uses per trial without paying NumPy array overhead.
    """
    z = ((z ^ (z >> 30)) * _SM64_MUL1_INT) & _U64_MASK
    z = ((z ^ (z >> 27)) * _SM64_MUL2_INT) & _U64_MASK
    return z ^ (z >> 31)


class WalkerStream:
    """Scalar view of one walker's counter stream (the per-walker loop's side).

    Wraps ``(key, counter)`` and evaluates the same splitmix64 counter
    function as :func:`stream_uniforms`, in plain integer arithmetic --
    integer ops and the ``(z >> 11) * 2**-53`` conversion are exact, so
    every value is bit-identical to what the lock-step rounds compute for
    the same walker at the same counter (property-tested in
    ``tests/test_walks_vectorized_properties.py``).
    """

    __slots__ = ("key", "counter")

    def __init__(self, key: int, counter: int = 0) -> None:
        self.key = int(key)
        self.counter = int(counter)

    def next_pair(self) -> Tuple[float, float]:
        """Consume and return the next two uniforms (one sampling trial)."""
        c = self.counter
        z1 = _mix64_int((self.key + _SM64_GAMMA_INT * (c + 1)) & _U64_MASK)
        z2 = _mix64_int((self.key + _SM64_GAMMA_INT * (c + 2)) & _U64_MASK)
        self.counter = c + 2
        return (z1 >> 11) * _U53_INV, (z2 >> 11) * _U53_INV


class CounterStream:
    """Vector view of one counter-based stream (the shared-draw protocol).

    Where :class:`WalkerStream` serves the walk engines one scalar pair at a
    time, :class:`CounterStream` hands out *arrays* of uniforms for the
    training side: negative sampling draws batches of many values at once.
    Because every value is the pure function :func:`stream_uniforms` of
    ``(key, counter)``, the batching is irrelevant -- drawing ``3`` then
    ``5`` uniforms yields exactly the same eight values as drawing ``8`` in
    one call, which is what lets the loop and vectorized trainers consume
    identical negative samples while batching their draws differently.
    """

    __slots__ = ("key", "counter")

    def __init__(self, key: int, counter: int = 0) -> None:
        self.key = int(key)
        self.counter = int(counter)

    def uniforms(self, count: int) -> np.ndarray:
        """Consume and return the next ``count`` uniforms in [0, 1)."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        counters = np.arange(self.counter, self.counter + count,
                             dtype=np.uint64)
        self.counter += count
        return stream_uniforms(np.uint64(self.key), counters)


def derive_seed(seed: Optional[int], *salt: int) -> Optional[int]:
    """Combine ``seed`` with integer ``salt`` values into a new seed.

    Returns ``None`` when the base seed is ``None`` so that explicitly
    non-deterministic runs stay non-deterministic.
    """
    if seed is None:
        return None
    mixed = np.random.SeedSequence([seed, *salt])
    return int(mixed.generate_state(1)[0])
