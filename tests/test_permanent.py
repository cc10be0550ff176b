import math

import numpy as np
import pytest

from glynn_reference import glynn_pass_reference
from permlab import permanent
from permlab.core import DenseMatrix, DistributionSpec, ModelSpec, PrecisionError, SizeLimitError
from permlab.experiments import estimate_moments
from permlab.permanent import (
    _BLOCK_BITS,
    _glynn_pass,
    _glynn_values,
    _has_perfect_matching,
    _low_signs,
    _pass_shape,
    per_naive,
    per_ryser,
    per_scaled,
)


def random_matrix(rng, n, low=0.0, high=1.0):
    return DenseMatrix(rng.uniform(low, high, size=(n, n)))


class TestNaive:
    def test_identity(self):
        assert per_naive(DenseMatrix(np.eye(3))).to_float() == pytest.approx(1.0)

    def test_hand_expansion(self):
        assert per_naive(DenseMatrix([[1, 2], [3, 4]])).to_float() == pytest.approx(10.0)

    def test_all_ones_is_factorial(self):
        v = per_naive(DenseMatrix(np.ones((4, 4)))).to_float()
        assert v == pytest.approx(24.0)

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            per_naive(DenseMatrix(np.ones((11, 11))))

    def test_single_entry(self):
        assert per_naive(DenseMatrix([[2.5]])).to_float() == pytest.approx(2.5)


class TestRyser:
    def test_hand_expansion(self):
        assert per_ryser(DenseMatrix([[1, 2], [3, 4]])).to_float() == pytest.approx(10.0)

    def test_all_ones_8(self):
        v = per_ryser(DenseMatrix(np.ones((8, 8)))).to_float()
        assert v == pytest.approx(40320.0, rel=1e-12)

    def test_agrees_with_naive_on_random_7x7(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            m = random_matrix(rng, 7)
            a = per_naive(m).to_float()
            b = per_ryser(m).to_float()
            assert abs(a - b) <= 1e-10 * abs(a)

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            per_ryser(DenseMatrix(np.ones((31, 31))))

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(0, 1, size=(6, 6))
        base = per_ryser(DenseMatrix(m)).to_float()
        for _ in range(5):
            perm = rng.permutation(6)
            v = per_ryser(DenseMatrix(m[perm])).to_float()
            assert v == pytest.approx(base, rel=1e-11)

    @pytest.mark.parametrize("c", [0.0, 2.0, 0.5])
    def test_row_linearity(self, c):
        rng = np.random.default_rng(6)
        m = rng.uniform(0, 1, size=(6, 6))
        base = per_ryser(DenseMatrix(m)).to_float()
        scaled = m.copy()
        scaled[2] *= c
        v = per_ryser(DenseMatrix(scaled)).to_float()
        assert v == pytest.approx(c * base, rel=1e-10, abs=1e-12 * base)

    def test_zero_column_gives_zero(self):
        rng = np.random.default_rng(7)
        for n in (3, 5, 8):
            m = rng.uniform(0, 1, size=(n, n))
            m[:, n // 2] = 0.0
            v = per_ryser(DenseMatrix(m))
            # the largest intermediate product sets the cancellation scale
            scale = float(np.prod(m.sum(axis=1)))
            assert v.is_zero or abs(v.to_float()) < 1e-12 * max(scale, 1.0)

    def test_structural_zero_is_exact(self):
        # no empty row or column, but rows 0-2 share only columns 0-1
        m = np.ones((5, 5))
        m[:3, 2:] = 0.0
        for v in (per_naive(DenseMatrix(m)), per_ryser(DenseMatrix(m)),
                  per_scaled(DenseMatrix(m), np.full(5, 3.0))):
            assert v.is_zero and v.log_mag == -math.inf

    def test_unresolved_value_raises_instead_of_zero(self):
        # on unit scales per = 20! * 1e-400 underflows, yet the support has a
        # perfect matching
        with pytest.raises(PrecisionError):
            per_scaled(DenseMatrix(np.full((20, 20), 1e-20)), np.ones(20))

    def test_log_above_the_double_range(self):
        # per of the scaled matrix is near 1e353; row maxima keep the pass
        # near magnitude one, so only the logs of the scales move
        m = np.random.default_rng(1).random((30, 30))
        want = per_ryser(DenseMatrix(m)).log_mag + 30 * math.log(1e11)
        got = per_ryser(DenseMatrix(m * 1e11)).log_mag
        assert abs(got - want) <= 8 * math.ulp(want)

    def test_log_below_the_double_range(self):
        v = per_ryser(DenseMatrix(np.full((20, 20), 1e-20)))
        assert abs(v.log_mag - (math.lgamma(21) - 400 * math.log(10))) <= 1e-12

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(8)
        m = DenseMatrix(rng.uniform(0, 1, size=(13, 13)))
        a = per_ryser(m)
        b = per_ryser(m)
        assert not a.is_zero and a.log_mag == b.log_mag


class TestPerfectMatching:
    """The Kuhn search against scipy's maximum bipartite matching."""

    @staticmethod
    def _scipy_perfect(a):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import maximum_bipartite_matching

        match = maximum_bipartite_matching(csr_matrix(a != 0), perm_type="column")
        return bool(np.all(match >= 0))

    def test_random_supports(self):
        rng = np.random.default_rng(12)
        found = set()
        for _ in range(450):
            n = int(rng.integers(1, 21))
            a = (rng.random((n, n)) < rng.uniform(0.05, 0.6)) * rng.random((n, n))
            want = self._scipy_perfect(a)
            assert _has_perfect_matching(a) == want
            found.add(want)
        assert found == {True, False}

    def test_zero_row(self):
        a = np.ones((5, 5))
        a[3] = 0.0
        assert not _has_perfect_matching(a)
        assert not self._scipy_perfect(a)

    def test_hall_violation(self):
        # rows 0 and 1 can only use column 2; every other row is full
        a = np.ones((6, 6))
        a[:2] = 0.0
        a[:2, 2] = 1.0
        assert not _has_perfect_matching(a)
        assert not self._scipy_perfect(a)
        a[1, 4] = 1.0
        assert _has_perfect_matching(a)


class TestZeroScreen:
    def test_empty_column_skips_the_matching_search(self, monkeypatch):
        calls = []

        def counted(a):
            calls.append(a.copy())
            return _has_perfect_matching(a)

        monkeypatch.setattr(permanent, "_has_perfect_matching", counted)
        empty_column = np.array([[1.0, 0, 1], [1, 0, 1], [0, 0, 1]])
        hall = np.array([[1.0, 0, 0], [1, 0, 0], [0, 1, 1]])  # rows {0}, {0}, {1, 2}
        values = _glynn_values(np.stack([empty_column, hall, np.ones((3, 3))]), np.ones(3))
        assert values[:2].tolist() == [0.0, 0.0]
        assert values[2] == pytest.approx(6, rel=1e-14)
        assert len(calls) == 1 and np.array_equal(calls[0], hall)
        # mc-small's run, `mc --n 6 --r 3 --dist exp:1 --trials 20000 --seed
        # 5`: of its 1983 zero trials, the 1873 with an empty column (no row
        # is empty at r = 3) skip the search, which settles the other 110
        calls.clear()
        spec = ModelSpec.homogeneous(6, 3, DistributionSpec.exponential(1.0))
        ratios = estimate_moments(spec, 20_000, 5, workers=1).ratios
        assert int((ratios == 0.0).sum()) == 1983
        assert len(calls) == 1983 - 1873
        assert not any(map(_has_perfect_matching, calls))


class TestVecdotCanary:
    """The pass's signed sums are np.vecdot over the last axis; they must be
    the per-row ndarray.dot (numpy's DOUBLE_dot) bit for bit, which a
    matrix-vector product is not."""

    @pytest.mark.parametrize("b", range(1, _BLOCK_BITS + 1))
    @pytest.mark.parametrize("m", [1, 3, 682])
    def test_vecdot_equals_rowwise_dot(self, b, m):
        sign_low = _low_signs(b)[1]
        rng = np.random.default_rng(1000 * b + m)
        prods = rng.standard_normal((m, 2, len(sign_low))) * rng.exponential(1.0, (m, 2, 1))
        want = np.array([[sign_low.dot(row) for row in pattern] for pattern in prods])
        assert np.array_equal(np.vecdot(sign_low, prods), want)

    @pytest.mark.parametrize("b", range(1, _BLOCK_BITS + 1))
    @pytest.mark.parametrize("m", [1, 3])
    def test_vecdot_into_span_rows(self, b, m):
        # as the pass calls it: group 0 of a (m, rows, chunk, 2^(b-1)) table
        # into a chunk's rows of the (span + 1, m) array, a transposed view
        sign_low = _low_signs(b)[1]
        rng = np.random.default_rng(2000 * b + m)
        table = rng.standard_normal((m, 5, 4, len(sign_low))) * rng.exponential(1.0, (m, 5, 4, 1))
        sums = np.zeros((1 + 3 * 4, m))
        np.vecdot(sign_low, table[:, 0], out=sums[5:9].T)
        want = np.array([[sign_low.dot(row) for row in pattern] for pattern in table[:, 0]])
        assert np.array_equal(sums[5:9].T, want)
        assert not sums[:5].any() and not sums[9:].any()


class TestGemvCanary:
    """A span's base sums are one batched np.matmul of the high columns with
    the span's sign rows. numpy's matmul loop must hand each pattern's
    product to gemv, as the per-pattern ``a_hi @ d`` does; a numpy that
    sends the batch elsewhere changes the pass's last bits."""

    @pytest.mark.parametrize("k", range(1, 19))
    @pytest.mark.parametrize("m", [1, 3])
    def test_batched_base_sums_equal_per_pattern(self, k, m):
        n = _BLOCK_BITS + k
        rng = np.random.default_rng(3000 * k + m)
        a = rng.standard_normal((m, n, n)) * rng.exponential(1.0, (m, n, 1))
        a_hi = a[:, :, _BLOCK_BITS:]
        s0 = (1 << k) - min(1 << k, 64)
        d = 1.0 - 2 * ((np.arange(s0, 1 << k)[:, None] >> np.arange(k)) & 1)
        bases = np.zeros((len(d), m, 3 * -(-n // 3)))
        np.matmul(a_hi, d[:, None, :, None], out=bases[:, :, :n, None])
        want = np.stack([a_hi @ row for row in d])
        assert np.array_equal(bases[:, :, :n], want), (
            "batched matmul differs from per-pattern gemv: the Glynn pass's base sums change bits")


class TestScaledPermanent:
    def test_diagonal_with_scales(self):
        v = per_scaled(DenseMatrix([[2, 0], [0, 2]]), [2.0, 2.0])
        assert v.to_float() == pytest.approx(4.0, rel=1e-14)

    def test_identity_scaling_matches_ryser_bitwise(self):
        rng = np.random.default_rng(9)
        m = DenseMatrix(rng.uniform(0, 1, size=(6, 6)))
        a = per_ryser(m)
        b = per_scaled(m, m.entries.max(axis=1))
        assert a.log_mag == b.log_mag

    def test_20x20_all_ones_matches_log_factorial(self):
        v = per_scaled(DenseMatrix(np.ones((20, 20))), [20.0] * 20)
        assert not v.is_zero
        assert abs(v.log_mag - math.lgamma(21)) <= 1e-9

    def test_rejects_bad_scales(self):
        m = DenseMatrix(np.ones((3, 3)))
        with pytest.raises(ValueError):
            per_scaled(m, [1.0, 1.0])
        with pytest.raises(ValueError):
            per_scaled(m, [1.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            per_scaled(m, [1.0, -1.0, 1.0])

    def test_zero_matrix_is_zero(self):
        m = DenseMatrix(np.zeros((4, 4)))
        assert per_scaled(m, [1.0] * 4).is_zero

    def test_scale_that_flushes_an_entry_raises(self):
        # per = 1e-30, but 1e-30 / 1e300 is 0.0 in doubles, which would
        # leave row 1 only the column that row 0 needs
        m = DenseMatrix([[1.0, 0.0], [1.0, 1e-30]])
        with pytest.raises(PrecisionError, match="^row 1 divided by its scale 1e\\+300 "):
            per_scaled(m, [1.0, 1e300])

    def test_flush_in_one_matrix_of_a_stack_raises(self):
        # only the middle matrix has an entry that row 1's scale flushes
        a = np.ones((3, 3, 3))
        a[1, 1, 2] = 1e-30
        with pytest.raises(PrecisionError, match="^row 1 divided by its scale"):
            _glynn_values(a, np.array([1.0, 1e300, 1.0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("entries,scales,message", [
        # 1e300 / 1e-300 is inf
        (np.full((1, 1), 1e300), [1e-300], "row 0 divided by its scale 1e-300 overflows"),
        # finite entries, but the row-sum product 4e600 is past the doubles
        (np.full((2, 2), 1e300), [1.0] * 2, "the Glynn pass overflowed"),
        # scaled entries of 1e300 are finite; the signed sums turn inf - inf
        (np.full((3, 3), 1e200), [1e-100] * 3, "the Glynn pass overflowed"),
    ], ids=["entry", "pass-inf", "pass-nan"])
    def test_overflow_raises(self, entries, scales, message):
        with pytest.raises(PrecisionError, match=f"^{message}$"):
            per_scaled(DenseMatrix(entries), scales)


class TestCrossAgreement:
    def test_random_agreement_sweep(self):
        # quick version of the acceptance check (the full 1000-matrix run
        # lives in the acceptance suite)
        rng = np.random.default_rng(10)
        for n in range(2, 9):
            for _ in range(20):
                m = random_matrix(rng, n)
                a = per_naive(m).to_float()
                b = per_ryser(m).to_float()
                assert abs(a - b) <= 1e-10 * abs(a)


def _support(rng, r):
    """0-1 matrix whose row i has r[i] ones in random columns."""
    x = np.zeros((len(r), len(r)))
    for i, ri in enumerate(r):
        x[i, rng.choice(len(r), size=ri, replace=False)] = 1.0
    return x


def _rescaled(x, rng):
    """x with exp(1) weights on its support, each row divided by its sum."""
    y = x * rng.exponential(1.0, x.shape)
    return y / y.sum(axis=-1, keepdims=True)


class TestChunkedPassMatchesReference:
    """The chunked Glynn pass performs the per-pattern pass's roundings in
    its order, so values and errs are equal bit for bit. n = 13..22 covers
    chunks of 2 and 4 patterns and a last chunk that ends exactly at
    2^(n-b); each case's base sums fit one span, and TestSpanFromPassBudget
    covers several."""

    @pytest.mark.parametrize("n", range(1, 23))
    def test_bit_identical(self, n):
        rng = np.random.default_rng(500 + n)
        half = max(1, n // 2)
        inputs = {
            "exp half-full": _rescaled(_support(rng, [half] * n), rng),
            "0-1 r=3": _support(rng, [min(3, n)] * n),
            "0-1 r=n/2": _support(rng, [half] * n),
            "rows with r_i=1": _rescaled(_support(rng, [1 + (i % 2) * (half - 1) for i in range(n)]), rng),
        }
        if n > _BLOCK_BITS:
            hi_zero = _rescaled(_support(rng, [half] * n), rng)
            hi_zero[:, _BLOCK_BITS:] = 0.0
            inputs["high columns zero"] = hi_zero
        stacks = {name: x[None] for name, x in inputs.items()}
        if _pass_shape(n)[0] > 1:
            full = [_support(rng, [half] * n) for _ in range(_pass_shape(n)[0])]
            stacks["full stack"] = _rescaled(np.stack(full), rng)
        for name, a in stacks.items():
            values, errs = _glynn_pass(a)
            want_values, want_errs = glynn_pass_reference(a)
            assert np.array_equal(values, want_values), name
            assert np.array_equal(errs, want_errs), name

    @pytest.mark.parametrize("n", range(12, 21))
    def test_sign_of_zero(self, n):
        # np.array_equal takes -0.0 for 0.0: the signs are checked apart. With
        # an all-zero row every pattern's sum is +-0, and the total's sign
        # comes from the running total's +0.0 start.
        rng = np.random.default_rng(700 + n)
        zero_row = _rescaled(_support(rng, [n // 2] * n), rng)
        zero_row[n // 3] = 0.0
        hi_zero = _rescaled(_support(rng, [n // 2] * n), rng)
        hi_zero[:, _BLOCK_BITS:] = 0.0
        for name, a in {"zero row": zero_row, "high columns zero": hi_zero}.items():
            values = _glynn_pass(a[None])[0]
            want = glynn_pass_reference(a[None])[0]
            assert np.array_equal(values, want), name
            assert np.array_equal(np.signbit(values), np.signbit(want)), name


class TestSpanFromPassBudget:
    """A span of base sums holds as many high patterns as _CHUNK_ENTRIES
    doubles allow, each pattern's C being ceil(n/3) rows of 2^3 subsets per
    matrix. At the real budget, 2^17, n = 24's 4096 patterns for one matrix
    run as two spans of 2048. Shrunk to 2^12, the budget holds 73 of n =
    20's 256 patterns for one matrix, so the pass runs four spans of 64
    (sixteen of 16 for a stack of three); shrunk to 2^6, not even one
    pattern of a stack of five at n = 13, so each span is one chunk. Each
    stays the per-pattern pass bit for bit."""

    @pytest.mark.parametrize("n,stack,budget", [
        (20, 1, 1 << 12), (20, 3, 1 << 12), (19, 3, 1 << 12), (13, 5, 1 << 6),
        (24, 1, permanent._CHUNK_ENTRIES),
    ])
    def test_multi_span_pass_bit_identical(self, n, stack, budget, monkeypatch):
        monkeypatch.setattr(permanent, "_CHUNK_ENTRIES", budget)
        group = _pass_shape(n)[2]
        assert budget // (stack * -(-n // group) << group) < 1 << (n - _BLOCK_BITS)
        rng = np.random.default_rng(900 + n)
        a = _rescaled(np.stack([_support(rng, [n // 2] * n) for _ in range(stack)]), rng)
        values, errs = _glynn_pass(a)
        want_values, want_errs = glynn_pass_reference(a)
        assert np.array_equal(values, want_values)
        assert np.array_equal(errs, want_errs)

    @pytest.mark.parametrize("budget", [1 << 8, 1 << 9])
    def test_one_pattern_chunks(self, budget, monkeypatch):
        # at n = 14 either budget leaves chunks of one pattern; a stack of two
        # then takes spans of two (2^8) or four (2^9) patterns, so each chunk's
        # np.vecdot writes one row of the span array, and every row is written
        monkeypatch.setattr(permanent, "_CHUNK_ENTRIES", budget)
        assert _pass_shape(14)[1] == 1
        rng = np.random.default_rng(914)
        a = _rescaled(np.stack([_support(rng, [7] * 14) for _ in range(2)]), rng)
        values, errs = _glynn_pass(a)
        want_values, want_errs = glynn_pass_reference(a)
        assert np.array_equal(values, want_values)
        assert np.array_equal(errs, want_errs)
