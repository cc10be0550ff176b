import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from permlab import model
from permlab.core import DistributionSpec, ModelSpec, SizeLimitError
from permlab.model import (
    _PCG_MULT,
    TrialSeed,
    _lemire_resolve,
    _lemire_rule,
    _StackSampler,
    sample_constrained_matrix,
    trial_rng,
)
from permlab.moments import constraint_class_size
from sampler_reference import (
    _sample_standard_realizations,
    _span_rngs,
    _span_states,
    _struct_words,
    enumerate_constraint_matrices,
    sample_row_support,
)

CONST1 = DistributionSpec.constant(1)


class TestTrialSeed:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrialSeed(-1, 0)
        with pytest.raises(ValueError):
            TrialSeed(2**64, 0)
        with pytest.raises(ValueError):
            TrialSeed(0, -1)

    def test_streams_are_pure_functions_of_the_pair(self):
        a = trial_rng(TrialSeed(42, 3)).random(8)
        b = trial_rng(TrialSeed(42, 3)).random(8)
        c = trial_rng(TrialSeed(42, 4)).random(8)
        d = trial_rng(TrialSeed(43, 3)).random(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


class TestSpanStates:
    """A span's generators, derived at once from SeedSequence's hash, are in
    ``trial_rng``'s states. Span seeding covers indices below 2^32, where an
    index is one entropy word, so spans reach its last index."""

    MASTERS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
    SPANS = ((0, 41), (2**31 - 1, 2**31 + 1), (2**32 - 3, 2**32))
    LAWS = (CONST1, DistributionSpec.uniform(0.5, 2.0), DistributionSpec.exponential(2.0),
            DistributionSpec.lognormal(0.3, 0.8))

    @pytest.mark.parametrize("master", MASTERS)
    def test_states_equal_trial_rng(self, master):
        for start, stop in self.SPANS:
            got = [rng.bit_generator.state for rng in _span_rngs(master, start, stop)]
            want = [trial_rng(TrialSeed(master, i)).bit_generator.state for i in range(start, stop)]
            assert got == want, (start, stop)

    def test_index_past_2_32_refused(self):
        # a uint32 range past 2^32 would wrap to indices 0, 1, ... silently
        with pytest.raises(ValueError, match="below 2\\^32"):
            list(model._span_words(3, 2**32 - 2, 2**32 + 1))

    @pytest.mark.parametrize("dist", LAWS, ids=lambda d: d.kind)
    def test_draws_equal_trial_rng(self, dist):
        # the picks, W, and the state they leave, trial by trial
        n, r = 5, (1, 5, 2, 3, 4)
        lows = np.concatenate([np.arange(ri) for ri in r])
        for master in (7, 2**64 - 1):
            for start, stop in ((0, 30), (2**32 - 4, 2**32)):
                rngs = _span_rngs(master, start, stop)
                for i, rng in zip(range(start, stop), rngs):
                    ref = trial_rng(TrialSeed(master, i))
                    assert np.array_equal(rng.integers(lows, n), ref.integers(lows, n))
                    assert np.array_equal(dist.sample_standard(rng, (n, n)),
                                          dist.sample_standard(ref, (n, n)))
                    assert rng.bit_generator.state == ref.bit_generator.state


class _CraftedSeedSequence(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 four chosen ``generate_state`` words."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, np.dtype(dtype)) == (4, np.uint64)
        return self.words.copy()


class TestPcg64Words:
    """The numpy-array srandom equals PCG64's own seeding, at its carries.
    Rows are (seed_hi, seed_lo, seq_hi, seq_lo); inc = 2 * seq + 1."""

    M64 = 2**64 - 1
    ROWS = {
        "zeros": [0, 0, 0, 0],
        "ones": [M64] * 4,
        # seq_lo's bit 63 carries into inc_hi
        "seq bit 63": [5, 9, 3, 2**63 | 7],
        # inc = 2^128 - 1, so seed + inc overflows 2^128, and its low words carry
        "seed + inc past 2^128": [0, 2, 2**63 - 1, M64],
        "seed_lo + inc_lo carries alone": [1, M64, 0, 1],
    }

    @pytest.mark.parametrize("name", ROWS)
    def test_crafted_words_equal_pcg64(self, name):
        words = self.ROWS[name]
        got = model._pcg64_words(np.array([words], dtype=np.uint64))
        assert model._state_dict(got[0]) == np.random.PCG64(_CraftedSeedSequence(words)).state

    def test_random_words_equal_pcg64(self):
        rows = np.random.default_rng(17).integers(0, 2**64, (200, 4), dtype=np.uint64)
        got = model._pcg64_words(rows)
        for words, row in zip(rows, got):
            assert model._state_dict(row) == np.random.PCG64(_CraftedSeedSequence(words)).state


class TestRowSupport:
    def test_full_row(self):
        rng = trial_rng(TrialSeed(0, 0))
        for _ in range(10):
            assert sample_row_support(5, 5, rng) == (0, 1, 2, 3, 4)

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=100))
    def test_support_contract(self, n, idx):
        rng = trial_rng(TrialSeed(1, idx))
        r = 1 + idx % n
        supp = sample_row_support(n, r, rng)
        assert len(supp) == r
        assert len(set(supp)) == r
        assert all(0 <= c < n for c in supp)
        assert supp == tuple(sorted(supp))

    def test_out_of_range_r(self):
        rng = trial_rng(TrialSeed(0, 0))
        with pytest.raises(ValueError):
            sample_row_support(3, 0, rng)
        with pytest.raises(ValueError):
            sample_row_support(3, 4, rng)

    def test_single_column_marginals(self):
        # P(column j in support) = r/n for each j
        n, r, samples = 3, 2, 100_000
        rng = trial_rng(TrialSeed(2024, 0))
        counts = np.zeros(n)
        for _ in range(samples):
            for c in sample_row_support(n, r, rng):
                counts[c] += 1
        p = r / n
        sigma = math.sqrt(p * (1 - p) / samples)
        for j in range(n):
            assert abs(counts[j] / samples - p) < 3 * sigma

    def test_pair_marginals(self):
        # P(j1 and j2 both in support) = r(r-1)/(n(n-1))
        n, r, samples = 3, 2, 100_000
        rng = trial_rng(TrialSeed(2025, 0))
        both = 0
        for _ in range(samples):
            supp = set(sample_row_support(n, r, rng))
            if 0 in supp and 1 in supp:
                both += 1
        p = r * (r - 1) / (n * (n - 1))
        sigma = math.sqrt(p * (1 - p) / samples)
        assert abs(both / samples - p) < 3 * sigma

    def test_column_exchangeability_chi_square(self):
        # chi-square GOF of column inclusion counts against uniform r/n;
        # must not reject at alpha = 0.001
        from scipy.stats import chi2

        n, r, samples = 6, 2, 100_000
        rng = trial_rng(TrialSeed(77, 0))
        counts = np.zeros(n)
        for _ in range(samples):
            for c in sample_row_support(n, r, rng):
                counts[c] += 1
        expected = samples * r / n
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.999, n - 1)


class TestSupportStream:
    """The reproducibility contract: one ``integers(lows, n)`` call per trial
    draws exactly the per-swap ``integers(i, n)`` stream."""

    @staticmethod
    def _assert_same_stream(n, r, seed):
        one, loop = (np.random.Generator(np.random.PCG64([seed, n, r])) for _ in range(2))
        picks = one.integers(np.arange(r), n)
        assert picks.tolist() == [int(loop.integers(i, n)) for i in range(r)]
        assert one.bit_generator.state == loop.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_array_call_equals_per_swap_calls(self, seed):
        for n in range(1, 41):
            for r in range(1, n + 1):
                self._assert_same_stream(n, r, seed)

    def test_array_call_beyond_32_bit_range(self):
        self._assert_same_stream(2**33, 6, 5)

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 16])
    def test_trial_supports_equal_row_by_row_sampling(self, n):
        # X, then W, equal what sample_row_support row after row and one
        # sample_standard call draw from the same trial generator
        r = tuple([1, n] + [1 + (5 * i) % n for i in range(n - 2)])[:n]
        for dist in (CONST1, DistributionSpec.exponential(2.0)):
            spec = ModelSpec(n, r, dist)
            for idx in range(40):
                rng = trial_rng(TrialSeed(8, idx))
                want = np.zeros((n, n))
                for i, ri in enumerate(r):
                    want[i, list(sample_row_support(n, ri, rng))] = 1.0
                w = dist.sample_standard(rng, (n, n))
                x, y = sample_constrained_matrix(spec, TrialSeed(8, idx))
                assert np.array_equal(x.entries, want)
                assert np.array_equal(y.entries, want * (dist.scale * w))


class TestRawPicks:
    """A stack, of one trial or more, reads its picks from raw PCG64 words
    and resolves them by numpy's 32-bit Lemire rule; the picks and W must
    be those of the reference ``integers(lows, n)`` and ``sample_standard``
    calls."""

    LAWS = TestSpanStates.LAWS

    @staticmethod
    def _picks_and_w(monkeypatch, spec, states):
        # X is a function of the picks; compare the picks themselves
        monkeypatch.setattr(model, "_supports", lambda picks, r, n: picks)
        got = _StackSampler(spec)(np.array([_struct_words(s) for s in states], dtype=np.uint64))
        want = _sample_standard_realizations(spec, _in_states(states), len(states))
        return got, want

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stack_picks_equal_integers(self, seed, monkeypatch):
        # n = 1 draws nothing, r = n leaves each row's last swap undrawn,
        # and an odd number of draws leaves a half-word buffered before W;
        # a stack of three, and a stack of one
        exp2 = DistributionSpec.exponential(2.0)
        states = list(_span_states(seed, 0, 3))
        for stack in (states, states[:1]):
            for n in range(1, 41):
                for r in range(1, n + 1):
                    spec = ModelSpec(n, (r,) * n, exp2)
                    (got_picks, got_w), (picks, w) = self._picks_and_w(monkeypatch, spec, stack)
                    assert np.array_equal(got_picks, picks), (len(stack), n, r)
                    assert np.array_equal(got_w, w), (len(stack), n, r)

    @pytest.mark.parametrize("dist", LAWS, ids=lambda d: d.kind)
    def test_rejected_draw_is_redrawn(self, dist, monkeypatch):
        # A PCG64 state one step before x * 2^64 + x outputs 0 (its halves
        # cancel in XSL-RR), so the first 32-bit draw is u = 0, rejected for
        # the range 6, which does not divide 2^32.
        inc = next(_span_states(9, 0, 1))["state"]["inc"]
        x = 0x0123456789ABCDEF
        crafted = (x << 64 | x) - inc
        crafted = crafted * pow(_PCG_MULT, -1, 2**128) % 2**128
        state = {"bit_generator": "PCG64", "state": {"state": crafted, "inc": inc},
                 "has_uint32": 0, "uinteger": 0}
        spec = ModelSpec(6, (3, 6, 1, 4, 2, 5), dist)
        sampler = _StackSampler(spec)
        bits = np.random.PCG64(0)
        bits.state = state
        raw = bits.random_raw(sampler.words)
        assert raw[0] == 0
        assert list(_lemire_resolve(raw[None], *sampler.rule)[1]) == [0]
        states = list(_span_states(9, 1, 3))
        states.insert(1, state)
        # in a stack of three, and alone
        for stack in (states, [state]):
            (got_picks, got_w), (picks, w) = self._picks_and_w(monkeypatch, spec, stack)
            assert np.array_equal(got_picks, picks), len(stack)
            assert np.array_equal(got_w, w), len(stack)

    def test_resolve_equals_integers_at_wide_ranges(self):
        # the rule's largest ranges, one draw per range from the same words;
        # 2^31 + 1 is rejected about half the time, and such seeds are skipped
        ranges = [2, 3, 2**31 + 1, 2**32 - 3, 2**32 - 2]
        compared = 0
        for seed in range(40):
            ref = np.random.Generator(np.random.PCG64(seed))
            raw = np.random.PCG64(seed).random_raw(3)[None]
            offsets, rejected = _lemire_resolve(raw, *_lemire_rule(ranges))
            if len(rejected) == 0:
                assert offsets[0].tolist() == [int(ref.integers(0, s)) for s in ranges]
                compared += 1
        assert compared >= 10

    @pytest.mark.parametrize("bad", [0, 2**32 - 1, 2**32, 2**40])
    def test_rule_refuses_other_branches(self, bad):
        # numpy draws 2^32 - 1 by the same rule, but ranges from 2^32 take
        # other branches; the rule refuses from 2^32 - 1 rather than guess
        with pytest.raises(ValueError):
            _lemire_rule([5, bad])
        _lemire_rule([1, 5, 2**32 - 2])


class TestStateView:
    """Trial states written as words into the generator's (state, inc)
    block, or, where the layout probe fails, through the dict setter."""

    LAWS = TestSpanStates.LAWS

    def test_view_write_reads_back_as_dict_setter(self):
        viewed, set_by_dict = np.random.PCG64(0), np.random.PCG64(0)
        view = model._state_view(viewed)
        crafted = np.array([[0, 0, 1, 0], [2**64 - 1] * 4, [1, 2**63, 2**63 + 1, 3]], dtype=np.uint64)
        for row in np.vstack([next(model._span_words(5, 0, 40)), crafted]):
            view[:] = row
            set_by_dict.state = model._state_dict(row)
            assert viewed.state == set_by_dict.state
            assert np.array_equal(viewed.random_raw(3), set_by_dict.random_raw(3))

    def test_probe_refuses_high_first_layout(self, monkeypatch):
        # a build with emulated 128-bit integers stores each high half first
        view = model._state_view
        monkeypatch.setattr(model, "_state_view", lambda bits: view(bits)[[1, 0, 3, 2]])
        assert not model._view_holds_state.__wrapped__()
        monkeypatch.undo()
        assert model._view_holds_state.__wrapped__()

    @pytest.mark.parametrize("dist", LAWS, ids=lambda d: d.kind)
    def test_dict_setter_path_equals_view_path(self, dist, monkeypatch):
        # an ordinary state, one whose first raw word is 0 (rejected for the
        # range 6, as in TestRawPicks), and another ordinary one
        ordinary = list(_span_states(9, 1, 3))
        inc = ordinary[0]["state"]["inc"]
        x = 0x0123456789ABCDEF
        crafted = ((x << 64 | x) - inc) * pow(_PCG_MULT, -1, 2**128) % 2**128
        states = [ordinary[0], {"bit_generator": "PCG64", "state": {"state": crafted, "inc": inc},
                                "has_uint32": 0, "uinteger": 0}, ordinary[1]]
        words = np.array([_struct_words(s) for s in states], dtype=np.uint64)
        spec = ModelSpec(6, (3, 6, 1, 4, 2, 5), dist)
        sampler = _StackSampler(spec)
        assert isinstance(sampler.block, np.ndarray)
        bits = np.random.PCG64(0)
        bits.state = states[1]
        assert list(_lemire_resolve(bits.random_raw(sampler.words)[None], *sampler.rule)[1]) == [0]
        by_view = sampler(words)
        monkeypatch.setattr(model, "_view_holds_state", lambda: False)
        sampler = _StackSampler(spec)
        assert isinstance(sampler.block, model._DictState)
        by_dict = sampler(words)
        want = _sample_standard_realizations(spec, _in_states(states), len(states))
        for got in (by_view, by_dict):
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


def _in_states(states):
    """One generator set to each state in turn."""
    rng = np.random.Generator(np.random.PCG64(0))
    for state in states:
        rng.bit_generator.state = state
        yield rng


class TestSampling:
    def test_forced_support(self):
        spec = ModelSpec(2, (2, 2), CONST1)
        for seed in (0, 1, 99):
            x, y = sample_constrained_matrix(spec, TrialSeed(seed, 0))
            assert np.array_equal(x.entries, np.ones((2, 2)))
            assert np.array_equal(y.entries, np.ones((2, 2)))

    def test_row_counts(self):
        spec = ModelSpec(3, (1, 2, 3), CONST1)
        for idx in range(20):
            x, y = sample_constrained_matrix(spec, TrialSeed(5, idx))
            assert np.array_equal((x.entries > 0).sum(axis=1), [1, 2, 3])
            assert np.array_equal((y.entries > 0).sum(axis=1), [1, 2, 3])

    def test_same_seed_bit_identical(self):
        spec = ModelSpec(4, (2, 3, 1, 4), DistributionSpec.exponential(2.0))
        x1, y1 = sample_constrained_matrix(spec, TrialSeed(11, 7))
        x2, y2 = sample_constrained_matrix(spec, TrialSeed(11, 7))
        assert np.array_equal(x1.entries, x2.entries) and np.array_equal(y1.entries, y2.entries)

    def test_weights_strictly_positive_on_support(self):
        for dist in (
            DistributionSpec.uniform(0.5, 2.0),
            DistributionSpec.exponential(1.0),
            DistributionSpec.lognormal(0.0, 1.0),
        ):
            spec = ModelSpec(5, (2, 2, 3, 4, 5), dist)
            for idx in range(50):
                x, y = sample_constrained_matrix(spec, TrialSeed(3, idx))
                assert np.all(y.entries[x.entries > 0] > 0)

    def test_exponential_rate_only_rescales(self):
        # inverse-CDF sampling makes Z pathwise equal to the rate-1 draw / rate
        spec1 = ModelSpec(4, (2, 2, 3, 3), DistributionSpec.exponential(1.0))
        spec2 = ModelSpec(4, (2, 2, 3, 3), DistributionSpec.exponential(4.0))
        _, y1 = sample_constrained_matrix(spec1, TrialSeed(9, 0))
        _, y2 = sample_constrained_matrix(spec2, TrialSeed(9, 0))
        assert np.allclose(y2.entries, y1.entries / 4.0, rtol=0, atol=0)

    def test_rows_independent(self):
        # correlation of indicators in different rows should be ~0
        spec = ModelSpec(4, (2, 2, 2, 2), CONST1)
        samples = 20_000
        a = np.zeros(samples)
        b = np.zeros(samples)
        for idx in range(samples):
            x, _ = sample_constrained_matrix(spec, TrialSeed(123, idx))
            a[idx] = x.entries[0, 0]
            b[idx] = x.entries[1, 0]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 3 / math.sqrt(samples)


class TestEnumeration:
    def test_cardinalities(self):
        assert len(list(enumerate_constraint_matrices(ModelSpec(3, (2, 2, 2), CONST1)))) == 27
        assert len(list(enumerate_constraint_matrices(ModelSpec(3, (1, 2, 3), CONST1)))) == 9
        mats = list(enumerate_constraint_matrices(ModelSpec(2, (2, 2), CONST1)))
        assert len(mats) == 1
        assert np.array_equal(mats[0].entries, np.ones((2, 2)))

    def test_class_size(self):
        assert constraint_class_size(ModelSpec(5, (2,) * 5, CONST1)) == 10**5
        assert constraint_class_size(ModelSpec(3, (1, 2, 3), CONST1)) == 9

    def test_guard(self):
        spec = ModelSpec(10, (5,) * 10, CONST1)  # 252^10 >> 1e7
        with pytest.raises(SizeLimitError):
            next(enumerate_constraint_matrices(spec))

    @pytest.mark.parametrize(
        "n,r",
        [(3, (2, 2, 2)), (3, (1, 2, 3)), (4, (2, 2, 2, 2)), (4, (1, 3, 2, 4)), (5, (1, 2, 2, 1, 5))],
    )
    def test_no_duplicates_and_row_counts(self, n, r):
        spec = ModelSpec(n, r, CONST1)
        assert constraint_class_size(spec) <= 10**4
        seen = set()
        for m in enumerate_constraint_matrices(spec):
            key = m.entries.tobytes()
            assert key not in seen
            seen.add(key)
            assert np.array_equal((m.entries > 0).sum(axis=1), list(r))
        assert len(seen) == constraint_class_size(spec)
