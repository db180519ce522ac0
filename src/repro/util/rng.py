"""Seeded randomness for reproducible distributed simulations.

The paper's model gives every node access to *private* unbiased random bits,
and (for the agreement protocol of Section 6 only) a *global shared coin*.
``RandomSource`` materializes that split: a root source spawns independent
child generators — one per node — while ``SharedCoin`` wraps one generator
that all nodes may read but none may bias.

Per-node children are derived lazily by :class:`NodeStreams`, which can also
compute every node's *first* coin in one vectorized pass that is bit-identical
to drawing it from each child's own ``Generator``.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["NodeStreams", "RandomSource", "SharedCoin"]


class RandomSource:
    """A tree of independent, reproducible random generators.

    Children are derived with :class:`numpy.random.SeedSequence` spawning, so
    two children never share a stream and re-running with the same root seed
    reproduces every coin flip in the simulation.
    """

    def __init__(self, seed: int | np.random.SeedSequence | None = None):
        if isinstance(seed, np.random.SeedSequence):
            self._sequence = seed
        else:
            self._sequence = np.random.SeedSequence(seed)
        self.generator = np.random.default_rng(self._sequence)

    @property
    def seed_entropy(self) -> int | None:
        """Root entropy, for logging/reproduction."""
        entropy = self._sequence.entropy
        if isinstance(entropy, (list, tuple)):
            return int(entropy[0])
        return None if entropy is None else int(entropy)

    def spawn(self) -> "RandomSource":
        """Derive one independent child source."""
        return RandomSource(self._sequence.spawn(1)[0])

    def spawn_many(self, count: int) -> "NodeStreams":
        """Derive ``count`` independent child sources, lazily.

        Child ``i`` is bit-identical to the ``i``-th source of
        ``SeedSequence.spawn(count)``, and a later :meth:`spawn` continues at
        child ``count`` exactly as if all of them had been spawned eagerly.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        sequence = self._sequence
        streams = NodeStreams(sequence, count)
        # SeedSequence's child counter is read-only: advance it by swapping
        # in an equal sequence whose counter sits ``count`` children later.
        self._sequence = np.random.SeedSequence(
            sequence.entropy,
            spawn_key=sequence.spawn_key,
            pool_size=sequence.pool_size,
            n_children_spawned=sequence.n_children_spawned + count,
        )
        return streams

    # -- convenience wrappers -------------------------------------------------

    def bernoulli(self, probability: float) -> bool:
        """One private coin flip with success probability ``probability``."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        return bool(self.generator.random() < probability)

    def uniform_int(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high].

        Handles ranges beyond int64 (the rank space {1, …, n⁴} overflows
        64 bits already at n = 2^16) by rejection-sampling 32-bit chunks.
        """
        if low > high:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        if span <= 1 << 62:
            return low + int(self.generator.integers(0, span))
        bits = span.bit_length()
        while True:
            value = 0
            remaining = bits
            while remaining > 0:
                chunk = min(remaining, 32)
                value = (value << chunk) | int(
                    self.generator.integers(0, 1 << chunk)
                )
                remaining -= chunk
            if value < span:
                return low + value

    def uniform(self) -> float:
        """Uniform float in [0, 1)."""
        return float(self.generator.random())

    def choice(self, items, size=None, replace=True):
        """Uniform choice from a sequence (delegates to numpy)."""
        return self.generator.choice(items, size=size, replace=replace)

    def sample_without_replacement(self, population: int, count: int) -> np.ndarray:
        """``count`` distinct integers drawn uniformly from range(population)."""
        if count > population:
            raise ValueError(
                f"cannot sample {count} distinct items from a population of {population}"
            )
        return self.generator.choice(population, size=count, replace=False)

    def shuffled(self, items: list) -> list:
        """A new list with the items in uniformly random order."""
        order = self.generator.permutation(len(items))
        return [items[i] for i in order]


# -- vectorized first draws ----------------------------------------------------
#
# numpy's SeedSequence -> PCG64 -> Generator pipeline, replayed for many
# children at once in uint64 arrays that hold 32-bit words.  The constants are
# numpy's own (SeedSequence hashing, the PCG64 multiplier, ``random()``'s
# 53-bit scaling); every result is checked against the per-child Generator.

_MASK32 = 0xFFFFFFFF
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_SQUARED = _PCG_MULT * _PCG_MULT % (1 << 128)
_TWO_POW_MINUS_53 = 1.0 / (1 << 53)
#: Rows per vectorized pass: bounds the temporaries at n = 10^6.
_CHUNK = 1 << 16


def _uint32_words(value) -> list[int]:
    """SeedSequence's coercion of entropy or a spawn key to uint32 words."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if value < 0:
            raise ValueError("seed words must be non-negative")
        words = [value & _MASK32]
        while value >> 32:
            value >>= 32
            words.append(value & _MASK32)
        return words
    return [word for item in value for word in _uint32_words(item)]


def _hashmix(value: int, const: int) -> tuple[int, int]:
    """SeedSequence's ``hashmix``; returns the advanced constant too."""
    value ^= const
    const = const * _SS_MULT_A & _MASK32
    value = value * const & _MASK32
    return value ^ (value >> 16), const


def _mix(x: int, y: int) -> int:
    """SeedSequence's ``mix`` of two pool words."""
    result = (_SS_MIX_L * x - _SS_MIX_R * y) & _MASK32
    return result ^ (result >> 16)


def _pool_before_last_word(entropy, spawn_key: tuple, pool_size: int):
    """A child's SeedSequence pool before its own index word is mixed in.

    Every child of one parent shares the assembled entropy except the final
    spawn-key word (its index), which SeedSequence mixes in last.  Returns
    that shared pool and the hash constant each pool word meets when the
    final word is mixed in.
    """
    run = _uint32_words(entropy)
    # A child always has a spawn key, so its run entropy is zero-padded.
    words = run + [0] * (pool_size - len(run)) + _uint32_words(spawn_key)
    const = _SS_INIT_A
    pool = []
    for word in words[:pool_size]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(pool_size):
        for dst in range(pool_size):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    for word in words[pool_size:]:
        for dst in range(pool_size):
            hashed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], hashed)
    consts = []
    for _ in range(pool_size):
        consts.append(const)
        const = const * _SS_MULT_A & _MASK32
    return pool, consts


def _add128(a: list, b: list) -> list:
    """Sum mod 2^128 of two numbers held as four little-endian 32-bit limbs."""
    out, carry = [], 0
    for x, y in zip(a, b):
        total = x + y + carry
        out.append(total & _MASK32)
        carry = total >> 32
    return out


def _mul128(a: list, constant: int) -> list:
    """Product mod 2^128 of a four-limb number and a 128-bit constant."""
    c = [(constant >> (32 * j)) & _MASK32 for j in range(4)]
    columns = [0, 0, 0, 0]
    for i in range(4):
        for j in range(4 - i):
            product = a[i] * c[j]
            columns[i + j] = columns[i + j] + (product & _MASK32)
            if i + j < 3:
                columns[i + j + 1] = columns[i + j + 1] + (product >> 32)
    out, carry = [], 0
    for column in columns:
        total = column + carry
        out.append(total & _MASK32)
        carry = total >> 32
    return out


def _first_pcg64_outputs(
    pool: list, consts: list, indices: np.ndarray
) -> np.ndarray:
    """The first 64-bit PCG64 output of each child index (uint64 array)."""
    words = []
    for word, const in zip(pool, consts):
        hashed = (indices ^ const) * (const * _SS_MULT_A & _MASK32) & _MASK32
        hashed ^= hashed >> 16
        # mix(word, hashed) with -R·y taken as (2^32 - R)·y mod 2^32.
        mixed = (_SS_MIX_L * word & _MASK32) + ((1 << 32) - _SS_MIX_R) * hashed
        mixed &= _MASK32
        words.append(mixed ^ (mixed >> 16))
    # SeedSequence.generate_state(4, uint64): eight words cycled off the pool.
    state, const = [], _SS_INIT_B
    for k in range(8):
        data = words[k % len(words)] ^ const
        const = const * _SS_MULT_B & _MASK32
        data = data * const & _MASK32
        state.append(data ^ (data >> 16))
    # PCG64 seeding: initstate = s0:s1, initseq = s2:s3 (high:low uint64s),
    # inc = 2·initseq + 1; two LCG steps seed, a third yields the output.
    initstate = [state[2], state[3], state[0], state[1]]
    seq = [state[6], state[7], state[4], state[5]]
    inc = [(seq[0] << 1 | 1) & _MASK32] + [
        (seq[k] << 1 | seq[k - 1] >> 31) & _MASK32 for k in range(1, 4)
    ]
    x = _add128(
        _mul128(_add128(inc, initstate), _PCG_MULT_SQUARED),
        _mul128(inc, _PCG_MULT + 1),
    )
    # XSL-RR output: (high ^ low) rotated right by the state's top 6 bits.
    folded = ((x[3] ^ x[1]) << 32) | (x[2] ^ x[0])
    rotation = x[3] >> 26
    return (folded >> rotation) | (folded << ((64 - rotation) & 63))


def _bernoulli_rows(probability: float):
    def draw(outputs):
        # Generator.random(): the top 53 bits scaled into [0, 1).
        return (outputs >> 11) * _TWO_POW_MINUS_53 < probability, None

    return draw


def _bounded_rows(low: int, span: int, dtype):
    """numpy's Lemire draw of ``integers(0, span)`` for 1 < span <= 2^62.

    Rows Lemire would reject (and redraw) are flagged for the fallback.
    """

    def draw(outputs):
        if span < 1 << 32:
            # 32-bit bounded path: the low half of the output (next_uint32).
            scaled = (outputs & _MASK32) * span
            values = scaled >> 32
            rejected = (scaled & _MASK32) < ((1 << 32) - span) % span
        else:
            lo, hi = outputs & _MASK32, outputs >> 32
            span_lo, span_hi = span & _MASK32, span >> 32
            p0, p1, p2 = lo * span_lo, hi * span_lo, lo * span_hi
            middle = (p0 >> 32) + (p1 & _MASK32) + (p2 & _MASK32)
            values = hi * span_hi + (p1 >> 32) + (p2 >> 32) + (middle >> 32)
            bottom = ((middle & _MASK32) << 32) | (p0 & _MASK32)
            rejected = bottom < ((1 << 64) - span) % span
        return values.astype(dtype) + low, rejected

    return draw


class NodeStreams:
    """The ``count`` children of one :meth:`RandomSource.spawn_many` call.

    Children are derived lazily: child ``i`` is built on first access and is
    bit-identical to the ``i``-th source ``SeedSequence.spawn`` would give.
    Supports ``len``, integer indexing, slicing (a list) and iteration.

    :meth:`bernoulli` and :meth:`uniform_int` return *every* child's first
    draw in one vectorized pass.  A child built afterwards replays that draw
    on its own generator, so all of its later draws are unchanged.  One
    vectorized draw is allowed per instance, and only before any child has
    been built.
    """

    def __init__(self, parent: np.random.SeedSequence, count: int):
        """The next ``count`` children of ``parent`` (not advanced here)."""
        self._entropy = parent.entropy
        self._spawn_key = parent.spawn_key
        self._pool_size = parent.pool_size
        self._start = parent.n_children_spawned
        self._count = count
        self._children: dict[int, RandomSource] = {}
        self._first_draw: tuple[str, tuple] | None = None

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        for index in range(self._count):
            yield self[index]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._count))]
        index = operator.index(index)
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(
                f"child {index} out of range for {self._count} streams"
            )
        child = self._children.get(index)
        if child is None:
            child = self._child(index)
            if self._first_draw is not None:
                name, args = self._first_draw
                getattr(child, name)(*args)
            self._children[index] = child
        return child

    def _child(self, index: int) -> RandomSource:
        return RandomSource(
            np.random.SeedSequence(
                self._entropy,
                spawn_key=self._spawn_key + (self._start + index,),
                pool_size=self._pool_size,
            )
        )

    def bernoulli(self, probability: float) -> np.ndarray:
        """Every child's first :meth:`RandomSource.bernoulli` flip (bool array)."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        return self._draw(
            "bernoulli", (probability,), bool, _bernoulli_rows(probability)
        )

    def uniform_int(self, low: int, high: int) -> np.ndarray:
        """Every child's first :meth:`RandomSource.uniform_int` draw.

        An int64 array when [low, high] fits in int64, else an object array
        of Python ints.
        """
        if low > high:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        dtype = np.int64 if -(1 << 63) <= low and high < 1 << 63 else object
        # numpy special-cases span 1 (no bits) and 2^32 (buffered next_uint32);
        # spans beyond 2^62 take RandomSource's chunked path.
        vectorized = 1 < span <= 1 << 62 and span != 1 << 32
        rows = _bounded_rows(low, span, dtype) if vectorized else None
        return self._draw("uniform_int", (low, high), dtype, rows)

    def _draw(self, name: str, args: tuple, dtype, rows) -> np.ndarray:
        """Every child's first ``name(*args)``: ``rows`` vectorized, the rest
        (rejections, unsupported ranges) on the child's own generator."""
        if self._first_draw is not None:
            raise RuntimeError(
                "NodeStreams already made its vectorized first draw; "
                "draw again through the children"
            )
        if self._children:
            raise RuntimeError(
                "a vectorized first draw must precede building any child"
            )
        self._first_draw = (name, args)
        out = np.empty(self._count, dtype=dtype)
        fallback: list[int] | range = []
        # The vectorized hash assumes every child index is one uint32 word.
        if rows is not None and self._start + self._count <= 1 << 32:
            pool, consts = _pool_before_last_word(
                self._entropy, self._spawn_key, self._pool_size
            )
            for lo in range(0, self._count, _CHUNK):
                hi = min(lo + _CHUNK, self._count)
                indices = np.arange(
                    self._start + lo, self._start + hi, dtype=np.uint64
                )
                values, rejected = rows(_first_pcg64_outputs(pool, consts, indices))
                out[lo:hi] = values
                if rejected is not None:
                    fallback.extend((np.flatnonzero(rejected) + lo).tolist())
        else:
            fallback = range(self._count)
        for row in fallback:
            child = self._child(row)
            out[row] = getattr(child, name)(*args)
            self._children[row] = child
        return out


class SharedCoin:
    """The global shared coin of Section 6 (oblivious to the input adversary).

    All nodes observe the *same* sequence of values; the simulation enforces
    this by routing every read through one generator owned by the coin.
    """

    def __init__(self, source: RandomSource):
        self._source = source
        self._flips = 0

    @property
    def flips(self) -> int:
        """Number of shared values drawn so far."""
        return self._flips

    def next_uniform(self) -> float:
        """Next shared uniform value in [0, 1) (Algorithm 4, line 5)."""
        self._flips += 1
        return self._source.uniform()

    def next_bits(self, count: int) -> list[int]:
        """Next ``count`` shared unbiased bits."""
        self._flips += count
        return [self._source.uniform_int(0, 1) for _ in range(count)]
