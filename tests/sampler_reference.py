"""Reference forms of the trial draw, kept as oracles for
``permlab.model``'s sampler and span seeding, and the exhaustive list of
the constraint class it samples from.

``sample_row_support`` is the contract's row-at-a-time draw, one
``integers(i, n)`` call per Fisher-Yates swap.
``_sample_standard_realizations`` draws trial by trial on the trials' own
generators: one ``integers(lows, n)`` call for the Fisher-Yates picks, then
W. ``_StackSampler``'s stacks, read from raw words, must equal it bit for
bit. ``_span_states`` turns the struct words ``model._span_words`` derives
into PCG64 state dicts, and ``_span_rngs`` hands out a span's generators in
those states, so tests can draw from them as from ``trial_rng``'s.
``enumerate_constraint_matrices`` yields every matrix a trial's X can be,
for the exhaustive checks of the moment oracles.
"""

import itertools

import numpy as np

from permlab import model
from permlab.core import DenseMatrix, ModelSpec, SizeLimitError
from permlab.moments import ENUMERATION_MAX_CLASS, constraint_class_size


def sample_row_support(n: int, r: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniform r-subset of columns 0..n-1.

    Partial Fisher-Yates: swap a uniform pick from position i..n-1 into
    position i, for i < r; the first r entries are then a uniform subset.
    Returned sorted. This is the contract's row-at-a-time form, one
    ``integers`` call per swap; trial sampling draws the same picks with one
    call per trial and makes the same swaps on a stack.
    """
    if not 1 <= r <= n:
        raise ValueError(f"r must be in 1..{n}, got {r}")
    arr = list(range(n))
    for i in range(r):
        j = int(rng.integers(i, n))
        arr[i], arr[j] = arr[j], arr[i]
    return tuple(sorted(arr[:r]))


def _sample_standard_realizations(
    spec: ModelSpec, rngs, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the (X, W) stacks, each of shape (count, n, n): the 0-1 support
    matrices and unit-scale weight matrices of the next ``count`` trials
    whose generators ``rngs`` yields."""
    n = spec.n
    lows = np.nonzero(model._swap_mask(spec.r))[1]
    picks = np.empty((count, lows.size), dtype=np.int64)
    w = np.empty((count, n, n))
    # range first: zip stops on it without taking a generator past count
    for t, rng in zip(range(count), rngs):
        picks[t] = rng.integers(lows, n)
        w[t] = spec.dist.sample_standard(rng, (n, n))
    # looked up on the module, so a test that patches it sees the picks
    return model._supports(picks, spec.r, n), w


def _span_states(master_seed: int, start: int, stop: int):
    """The PCG64 state dicts of ``model._span_words``' trials, in turn."""
    return (model._state_dict(w) for piece in model._span_words(master_seed, start, stop)
            for w in piece)


def _span_rngs(master_seed: int, start: int, stop: int):
    """The generators of trials start..stop-1 in turn, each in the state
    ``trial_rng`` gives it.

    One generator is reused: each step sets the next trial's state on it
    and yields it again, so a yielded generator is only valid until the
    next step.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    for state in _span_states(master_seed, start, stop):
        rng.bit_generator.state = state
        yield rng


def enumerate_constraint_matrices(spec: ModelSpec):
    """Yield every 0-1 matrix with the given row counts exactly once.

    Lexicographic product of per-row support combinations. Guarded by the
    total class size.
    """
    size = constraint_class_size(spec)
    if size > ENUMERATION_MAX_CLASS:
        raise SizeLimitError(
            f"constraint class has {size} matrices, over the "
            f"{ENUMERATION_MAX_CLASS} enumeration guard"
        )
    n = spec.n
    per_row = [itertools.combinations(range(n), ri) for ri in spec.r]
    for supports in itertools.product(*per_row):
        x = np.zeros((n, n))
        for i, supp in enumerate(supports):
            x[i, list(supp)] = 1.0
        yield DenseMatrix(x)
