"""Sampling the row-constrained 0-1 matrix X, the weight matrix Z, and their
termwise product Y.

Reproducibility contract: every trial's generator is
``PCG64(SeedSequence(master_seed, spawn_key=(trial_index,)))``, a pure
function of the (master_seed, trial_index) pair. Within a trial the draw
order is fixed: row supports for rows 0..n-1 first (partial Fisher-Yates),
then the weight matrix W as a single (n, n) block. The Fisher-Yates picks
of all rows come from one ``integers(lows, n)`` call, ``lows`` being
0..r_i-1 for each row in turn; numpy draws such an array element by
element, so the stream is the one of a separate ``integers(i, n)`` call per
swap. Reproducibility is across runs on the same build; changing generator
or draw order is a breaking change.

``trial_rng`` builds that generator for one trial. A span of trials instead
derives a piece of trials' PCG64 (state, inc) at a time as uint64 words in
one numpy stage, SeedSequence's published hash then PCG's seeding, and writes
each into one generator; the states are ``trial_rng``'s, so the streams are too.

One sampler, ``_StackSampler``, draws every trial, a single trial as a
stack of one. It takes the trials' states as (trials, 4) uint64 struct
words; a single trial converts ``trial_rng``'s state to words once. The
picks are ``integers(lows, n)``'s stream, read as raw 64-bit words, one
``random_raw`` call per trial, with numpy's 32-bit Lemire rule applied to
the whole stack; a trial with a rejected draw makes the ``integers`` call
itself. Tests pin this against numpy's own calls.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from .core import _FAMILIES, DenseMatrix, ModelSpec

__all__ = [
    "TrialSeed",
    "trial_rng",
    "sample_constrained_matrix",
]


@dataclass(frozen=True)
class TrialSeed:
    """Addressing for one trial's random stream.

    Distinct (master_seed, trial_index) pairs yield independent-quality
    streams via the counter-style spawn-key derivation below.
    """

    master_seed: int
    trial_index: int

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a 64-bit nonnegative integer")
        if self.trial_index < 0:
            raise ValueError("trial_index must be nonnegative")


def trial_rng(seed: TrialSeed) -> np.random.Generator:
    """The documented per-trial generator, a pure function of the seed pair."""
    ss = np.random.SeedSequence(seed.master_seed, spawn_key=(seed.trial_index,))
    return np.random.Generator(np.random.PCG64(ss))


# SeedSequence's hash constants (O'Neill's seed_seq design, as numpy
# implements it; NEP 19 keeps SeedSequence stream-stable) and its pool size.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# PCG's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64 = 2**32 - 1, 2**64 - 1
# Trials hashed per vectorized pass: large enough to spread the pass's fixed
# cost (about 300 us), small enough that a span's seeding memory is bounded.
_SEED_PIECE = 4096


def _hashed_state(entropy: list[np.ndarray]) -> np.ndarray:
    """SeedSequence's entropy mix and ``generate_state(4, uint64)``, run
    elementwise on uint32 arrays, one array per entropy word position.

    The hash constants depend only on the word count, so every element
    takes the same steps. Returns the four state words per element as an
    (elements, 4) uint64 array.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _M32
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        out = _MIX_L * x - _MIX_R * y
        return out ^ out >> 16

    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    # eight uint32 words from the cycled pool, paired little-endian
    const = _INIT_B
    out = []
    for k in range(8):
        value = pool[k % _POOL] ^ const
        const = const * _MULT_B & _M32
        value = value * const
        out.append((value ^ value >> 16).astype(np.uint64))
    return np.stack([lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])], axis=1)


def _pcg64_words(piece: np.ndarray) -> np.ndarray:
    """PCG64's struct words [state_lo, state_hi, inc_lo, inc_hi] for rows of
    ``generate_state`` words [seed_hi, seed_lo, seq_hi, seq_lo], by PCG's
    srandom, inc = 2 * seq + 1 and state = (inc + seed) * M + inc mod 2^128,
    in 64-bit limbs; t_lo * M_lo's high half is built from 32-bit halves."""
    seed_hi, seed_lo, seq_hi, seq_lo = piece.T
    m_lo, m_hi = _PCG_MULT & _M64, _PCG_MULT >> 64
    inc_lo, inc_hi = seq_lo << 1 | 1, seq_hi << 1 | seq_lo >> 63
    t_lo = inc_lo + seed_lo
    t_hi = inc_hi + seed_hi + (t_lo < inc_lo)
    a0, a1, b0, b1 = t_lo & _M32, t_lo >> 32, m_lo & _M32, m_lo >> 32
    mid = (a0 * b0 >> 32) + (a1 * b0 & _M32) + a0 * b1
    high = a1 * b1 + (a1 * b0 >> 32) + (mid >> 32)
    state_lo = t_lo * m_lo + inc_lo
    state_hi = high + t_lo * m_hi + t_hi * m_lo + inc_hi + (state_lo < inc_lo)
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=1)


def _state_dict(words) -> dict:
    """The PCG64 state dict of struct words [state_lo, state_hi, inc_lo, inc_hi]."""
    state_lo, state_hi, inc_lo, inc_hi = map(int, words)
    return {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
            "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo}}


def _struct_words(state: dict) -> list[int]:
    """``_state_dict``'s inverse."""
    state, inc = state["state"]["state"], state["state"]["inc"]
    return [state & _M64, state >> 64, inc & _M64, inc >> 64]


def _span_words(master_seed: int, start: int, stop: int):
    """The struct words of ``trial_rng``'s states for trials start..stop-1,
    as (trials, 4) uint64 arrays of at most ``_SEED_PIECE`` trials, each
    piece hashed and seeded in one vectorized pass, so memory does not grow.

    With a seed below 2^64 and an index below 2^32, SeedSequence's entropy
    is the seed's two 32-bit words, low first, two zero words padding them
    to the pool, then the index word. Larger indices are refused, since a
    uint32 range past 2^32 wraps silently.
    """
    if stop > 2**32:
        raise ValueError(f"span seeding covers trial indices below 2^32, got stop {stop}")
    seed = [master_seed & _M32, master_seed >> 32, 0, 0]
    for a in range(start, stop, _SEED_PIECE):
        index = np.arange(a, min(stop, a + _SEED_PIECE), dtype=np.uint32)
        entropy = [np.full(len(index), w, dtype=np.uint32) for w in seed] + [index]
        yield _pcg64_words(_hashed_state(entropy))


def _state_view(bits: np.random.PCG64) -> np.ndarray:
    """A writable view of ``bits``' (state, inc) block, valid while ``bits``
    lives: the first field of the struct at ``ctypes.state_address``."""
    block = ctypes.c_void_p.from_address(bits.ctypes.state_address).value
    return np.frombuffer((ctypes.c_uint64 * 4).from_address(block), dtype=np.uint64)


@functools.cache
def _view_holds_state() -> bool:
    """Whether ``_state_view`` reads and writes the struct words on this
    build; one with emulated 128-bit integers stores high halves first."""
    bits = np.random.PCG64(0)
    view, known = _state_view(bits), np.array([1, 2, 3, 5], dtype=np.uint64)
    bits.state = _state_dict(known)
    read = np.array_equal(view, known)
    view[:] = known[::-1]
    return read and bits.state == _state_dict(known[::-1])


@dataclass
class _DictState:
    """``_state_view``'s stand-in where it fails the probe: a write sets the
    words' state dict, so the streams are the same, only slower."""

    bits: np.random.PCG64

    def __setitem__(self, _, words) -> None:
        self.bits.state = _state_dict(words)


def _lemire_rule(ranges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constants for reading draws ``integers(low, low + s)``, one per range
    s in ``ranges``, from a trial's raw PCG64 words by numpy's 32-bit
    Lemire rule (``buffered_bounded_lemire_uint32``): each draw's position
    in the trial's 32-bit stream, s as uint64, and the rejection threshold
    (2^32 - s) mod s.

    numpy draws nothing for a range of 1, so it takes no stream position;
    it reads position 0 instead, and (u * 1) >> 32 = 0 is its offset for
    any u, never rejected. A range of 2^32 or more takes numpy's other
    branches; ranges from 2^32 - 1 up are refused, one short of them.
    """
    s = np.asarray(ranges, dtype=np.uint64)
    if np.any(s < 1) or np.any(s >= _M32):
        raise ValueError("the 32-bit Lemire rule covers ranges 1..2^32-2")
    drawn = s > 1
    return np.where(drawn, np.cumsum(drawn) - 1, 0), s, (2**32 - s) % s


def _lemire_resolve(words: np.ndarray, cols: np.ndarray, ranges: np.ndarray,
                    thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The offsets numpy's 32-bit Lemire rule draws from raw PCG64 words,
    with ``_lemire_rule``'s constants.

    Row t of ``words`` (uint64) is trial t's raw output. Its 32-bit stream
    is the low, then the high half of each word, as PCG64's ``next_uint32``
    hands them out. A draw reads the stream's value u at its position and
    gives offset (u * s) >> 32; it is rejected when (u * s) mod 2^32 falls
    below its threshold, where numpy would draw again.

    Returns the (B, len(ranges)) int64 offsets and the indices of the rows
    with a rejected draw, whose offsets are not numpy's.
    """
    u = words.astype("<u8", copy=False).view("<u4").take(cols, axis=1)
    m = u * ranges
    rejected = (m & _M32) < thresholds
    # a draw is rejected with probability below s / 2^32, so rarely any
    rows = np.flatnonzero(rejected.any(axis=1)) if np.count_nonzero(rejected) else []
    return (m >> 32).astype(np.int64), rows


def _swap_mask(r) -> np.ndarray:
    """mask[i, k] is set when row i makes Fisher-Yates swap k, i.e. k < r_i."""
    return np.arange(max(r)) < np.asarray(r)[:, None]


def _supports(picks: np.ndarray, r, n: int) -> np.ndarray:
    """0-1 stack of shape (B, len(r), n) from the picks of B trials.

    ``picks[t]`` holds, row after row, the positions drawn for swaps
    0..r_i-1 of row i. Row i starts as 0..n-1; swap k exchanges positions k
    and its pick, and the first r_i entries are then a uniform r_i-subset.
    Each swap step runs across all trials and rows at once, on flat indices;
    a row past its last swap exchanges position k with itself.
    """
    mask = _swap_mask(r)
    rows, steps = mask.shape
    starts = np.arange(0, picks.shape[0] * rows * n, n).reshape(-1, rows)
    # flat index of swap k's partner: the row's pick, or k itself past r_i
    there = starts[:, :, None] + np.arange(steps)
    there[:, mask] += picks - np.nonzero(mask)[1]
    perm = np.arange(starts.size * n) % n
    for k in range(steps):
        here, dest = starts + k, there[:, :, k]
        perm[here], perm[dest] = perm[dest], perm[here]
    x = np.zeros(starts.size * n)
    x[(starts[:, :, None] + perm.reshape(*starts.shape, n)[:, :, :steps])[:, mask]] = 1.0
    return x.reshape(*starts.shape, n)


class _StackSampler:
    """Draws the (X, W) stacks of trials given by their PCG64 states, as
    (trials, 4) uint64 struct words, writing each trial's words into one
    generator's (state, inc) block. Built once per span, so the spec's
    constants are too.

    Each trial makes one ``random_raw`` call for its picks, then draws W in
    place by ``sample_standard``'s draw. Both take whole 64-bit words under
    every law, so neither reads the buffered half-word flag, which the write
    leaves as it was. One ``_lemire_resolve`` over the stack turns the words
    into the picks of ``integers(lows, n)``; a trial with a rejected draw is
    drawn again by that call and W's, its state set by the dict setter
    (which clears the flag); W's draws skip a half-word ``integers`` leaves.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        # the block's view points into this generator, which self.rng keeps alive
        self.rng = np.random.Generator(np.random.PCG64(0))
        bits = self.rng.bit_generator
        self.block = _state_view(bits) if _view_holds_state() else _DictState(bits)
        self.lows = np.nonzero(_swap_mask(spec.r))[1]
        self.rule = _lemire_rule(spec.n - self.lows)
        # 32-bit draws, two to a word; only n = 1 has none
        self.words = (np.count_nonzero(self.rule[1] > 1) + 1) // 2
        self.draw = functools.partial(_FAMILIES[spec.dist.kind].draw, spec.dist.params)

    def __call__(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n, words, draw, rng, block = self.spec.n, self.words, self.draw, self.rng, self.block
        bits, count = rng.bit_generator, len(states)
        # n = 1 draws no word: its one pick, of range 1, reads a zero as offset 0
        raw = np.zeros((count, max(words, 1)), dtype=np.uint64)
        w = np.empty((count, n, n))
        for t, state in enumerate(states):
            block[:] = state
            raw[t, :words] = bits.random_raw(words)
            draw(rng, w[t])
        offsets, redraw = _lemire_resolve(raw, *self.rule)
        picks = self.lows + offsets
        for t in redraw:
            bits.state = _state_dict(states[t])
            picks[t] = rng.integers(self.lows, n)
            draw(rng, w[t])
        return _supports(picks, self.spec.r, n), w


@functools.lru_cache(maxsize=8)
def _trial_sampler(spec: ModelSpec) -> _StackSampler:
    """The sampler single trials of ``spec`` share: each call writes its
    trial's state before it draws, as the trials of a span do."""
    return _StackSampler(spec)


def _sample_trial(spec: ModelSpec, seed: TrialSeed) -> tuple[np.ndarray, np.ndarray]:
    """The (X, W) stacks of one trial: a stack of one in ``trial_rng``'s state."""
    state = trial_rng(seed).bit_generator.state
    return _trial_sampler(spec)(np.array([_struct_words(state)], dtype=np.uint64))


def sample_constrained_matrix(
    spec: ModelSpec, seed: TrialSeed
) -> tuple[DenseMatrix, DenseMatrix]:
    """One realization (X, Y): row i of X has exactly r_i ones, Z is i.i.d.
    from the entry law, and Y = X * Z termwise. Deterministic given seed."""
    (x,), (w,) = _sample_trial(spec, seed)
    y = x * (spec.dist.scale * w)
    return DenseMatrix(x), DenseMatrix(y)
