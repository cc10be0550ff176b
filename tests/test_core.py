import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permlab.core import (
    _FAMILIES,
    DenseMatrix,
    DistributionSpec,
    ModelSpec,
    ParseError,
    ScaledValue,
    ShapeError,
    parse_matrix,
    write_matrix,
)


class TestScaledValue:
    def test_zero_flag(self):
        z = ScaledValue(-math.inf)
        assert z.is_zero
        assert z.to_float() == 0.0
        assert ScaledValue.from_float(0.0) == z

    def test_roundtrip_near_identity(self):
        # exp(log x) loses relative precision ~ |log x| * eps
        for x in (1.0, 3.5, 1e-200, 7e250):
            back = ScaledValue.from_float(x).to_float()
            assert back == pytest.approx(x, rel=1e-12)

    def test_overflowing_magnitude_prints_inf(self):
        big = ScaledValue(1000.0)
        assert big.to_float() == math.inf

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ScaledValue(math.nan)
        with pytest.raises(ValueError):
            ScaledValue(math.inf)
        with pytest.raises(ValueError):
            ScaledValue.from_float(-3.5)
        with pytest.raises(ValueError):
            ScaledValue.from_float(math.inf)
        with pytest.raises(ValueError):
            ScaledValue.from_float(math.nan)


class TestDistributionSpec:
    def test_constant_moments(self):
        one = DistributionSpec("const", (1,))
        assert (one.nu, one.delta) == (1.0, 1.0)
        three = DistributionSpec("const", (3.0,))
        assert (three.nu, three.delta) == (3.0, 9.0)

    def test_exponential_moments(self):
        one = DistributionSpec("exp", (1,))
        assert (one.nu, one.delta) == (1.0, 2.0)
        two = DistributionSpec("exp", (2.0,))
        assert two.nu == 0.5 and two.delta == 0.5

    def test_uniform_moments(self):
        dist = DistributionSpec("uniform", (1, 3))
        assert dist.nu == 2.0
        assert dist.delta == pytest.approx(13 / 3, rel=1e-15)

    def test_lognormal_moments(self):
        dist = DistributionSpec("lognormal", (0.0, 1.0))
        assert dist.nu == pytest.approx(math.exp(0.5), rel=1e-15)
        assert dist.delta == pytest.approx(math.exp(2.0), rel=1e-15)

    @given(
        st.sampled_from(["const", "uniform", "exp", "lognormal"]),
        st.floats(min_value=0.01, max_value=50),
        st.floats(min_value=0.01, max_value=50),
    )
    def test_second_moment_dominates_squared_mean(self, kind, p1, p2):
        if kind == "const":
            dist = DistributionSpec("const", (p1,))
        elif kind == "uniform":
            a, b = sorted((p1, p1 + p2))
            dist = DistributionSpec("uniform", (a, b))
        elif kind == "exp":
            dist = DistributionSpec("exp", (p1,))
        else:
            dist = DistributionSpec("lognormal", (math.log(p1), min(p2, 3.0)))
        gap = dist.delta - dist.nu**2
        if kind == "const":
            assert abs(gap) <= 1e-12 * dist.delta
        else:
            assert gap > 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DistributionSpec("const", (0.0,))
        with pytest.raises(ValueError):
            DistributionSpec("uniform", (2, 1))
        with pytest.raises(ValueError):
            DistributionSpec("uniform", (0, 1))
        with pytest.raises(ValueError):
            DistributionSpec("exp", (-1,))
        with pytest.raises(ValueError):
            DistributionSpec("lognormal", (0, 0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown distribution kind 'gamma'"):
            DistributionSpec("gamma", (1.0,))

    def test_kind_is_the_tag(self):
        with pytest.raises(ValueError, match="unknown distribution kind 'exponential'"):
            DistributionSpec("exponential", (1.0,))
        for text in ("const:2", "uniform:1,3", "exp:0.5", "lognormal:0,1"):
            assert DistributionSpec.from_string(text).kind == text.partition(":")[0]

    def test_string_round_trip(self):
        for text in ("const:1", "uniform:1,3", "exp:2", "lognormal:0,1"):
            dist = DistributionSpec.from_string(text)
            assert DistributionSpec.from_string(dist.spec_string()) == dist

    def test_bad_strings(self):
        for text in ("gauss:1", "const", "const:x", "uniform:3,1", "exp:-2"):
            with pytest.raises(ParseError):
                DistributionSpec.from_string(text)
        # moments that overflow or underflow a double are named in the error
        for text, name in (
            ("lognormal:800,1", "nu"),
            ("exp:1e-310", "nu"),
            ("const:1e200", "delta"),
            ("const:1e-200", "delta"),
            ("lognormal:0,30", "delta"),
            ("uniform:1e-300,1e200", "delta"),
            ("lognormal:-900,28", "delta_over_nu2"),
        ):
            with pytest.raises(ParseError, match=f": {name} = "):
                DistributionSpec.from_string(text)

    def test_closed_forms_and_draws_pinned(self):
        # one member per family against the documented formulas and numpy
        # calls; both generators must end in the same state, so constant
        # (reference np.ones) consumes no draws
        c, (a, b), lam, (m, s) = 2.5, (1.0, 3.0), 0.25, (1.0, 0.7)
        cases = (
            (DistributionSpec("const", (c,)), (c, c**2, 1.0, c, 1.0),
             lambda rng, shape: np.ones(shape)),
            (DistributionSpec("uniform", (a, b)),
             ((a + b) / 2.0, (a**2 + a * b + b**2) / 3.0,
              (a**2 + a * b + b**2) / 3.0 / ((a + b) / 2.0) ** 2, 1.0, (a + b) / 2.0),
             lambda rng, shape: a + (b - a) * rng.random(shape)),
            (DistributionSpec("exp", (lam,)), (1.0 / lam, 2.0 / lam**2, 2.0, 1.0 / lam, 1.0),
             lambda rng, shape: rng.standard_exponential(shape, method="inv")),
            (DistributionSpec("lognormal", (m, s)),
             (math.exp(m + s**2 / 2.0), math.exp(2.0 * m + 2.0 * s**2), math.exp(s**2),
              math.exp(m), math.exp(s**2 / 2.0)),
             # libm's exp, which np.exp's SIMD loops may differ from in the last bit
             lambda rng, shape: np.vectorize(math.exp)(s * rng.standard_normal(shape))),
        )
        for dist, forms, draw in cases:
            got = (dist.nu, dist.delta, dist.delta_over_nu2, dist.scale, dist.standard_mean)
            assert got == forms, dist
            rng, ref = np.random.default_rng(42), np.random.default_rng(42)
            assert np.array_equal(dist.sample_standard(rng, (3, 4)), draw(ref, (3, 4)))
            assert rng.random() == ref.random(), dist

    @pytest.mark.parametrize("text", ["const:2.5", "uniform:0.5,2", "exp:1.5", "lognormal:0.3,0.8"])
    def test_in_place_draw_into_stack_equals_sample_standard(self, text):
        # trial sampling draws W into its stack slice; the slice gets
        # sample_standard's bits, its neighbours are untouched, and both
        # generators end in the same state
        dist = DistributionSpec.from_string(text)
        draw = _FAMILIES[dist.kind].draw
        for n in (1, 6, 13):
            w = np.full((3, n, n), np.nan)
            rng, ref = np.random.default_rng(n), np.random.default_rng(n)
            draw(dist.params, rng, w[1])
            assert np.array_equal(w[1], dist.sample_standard(ref, (n, n))), n
            assert np.isnan(w[0]).all() and np.isnan(w[2]).all(), n
            assert rng.random() == ref.random(), n

    def test_scale_standard_factorization(self):
        rng = np.random.default_rng(0)
        for dist in (
            DistributionSpec("const", (2.5,)),
            DistributionSpec("uniform", (1, 3)),
            DistributionSpec("exp", (0.25,)),
            DistributionSpec("lognormal", (1.0, 0.5)),
        ):
            w = dist.sample_standard(rng, (2000,))
            assert np.all(w > 0)
            assert abs(w.mean() - dist.standard_mean) < 5 * w.std() / math.sqrt(w.size) + 1e-12
            assert dist.scale * dist.standard_mean == pytest.approx(dist.nu, rel=1e-14)


class TestModelSpec:
    def test_basic(self):
        spec = ModelSpec(3, (1, 2, 3), DistributionSpec("const", (1,)))
        assert spec.r_low == 1 and spec.r_up == 3
        assert not spec.is_homogeneous
        assert ModelSpec.homogeneous(4, 2, DistributionSpec("const", (1,))).is_homogeneous

    def test_validation(self):
        dist = DistributionSpec("const", (1,))
        with pytest.raises(ValueError):
            ModelSpec(3, (1, 2), dist)
        with pytest.raises(ValueError):
            ModelSpec(3, (0, 2, 2), dist)
        with pytest.raises(ValueError):
            ModelSpec(3, (1, 2, 4), dist)
        with pytest.raises(ValueError):
            ModelSpec(0, (), dist)


class TestMatrixIO:
    def test_identity_parse(self):
        m = parse_matrix("1 0\n0 1")
        assert np.array_equal(m.entries, np.eye(2))

    def test_direct_readback(self):
        m = parse_matrix("1 2\n3 4")
        assert np.array_equal(m.entries, [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_is_shape_error(self):
        with pytest.raises(ShapeError):
            parse_matrix("1 2 3\n4 5")

    def test_non_square_is_shape_error(self):
        with pytest.raises(ShapeError):
            parse_matrix("1 2 3\n4 5 6")

    def test_bad_tokens_are_parse_errors(self):
        with pytest.raises(ParseError):
            parse_matrix("1 x\n3 4")
        with pytest.raises(ParseError):
            parse_matrix("1 -2\n3 4")
        with pytest.raises(ParseError):
            parse_matrix("1 inf\n3 4")

    def test_empty_text(self):
        with pytest.raises(ShapeError):
            parse_matrix("   \n  ")

    @settings(max_examples=50)
    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.floats(min_value=0, max_value=1e15, allow_nan=False),
                    min_size=n, max_size=n,
                ),
                min_size=n, max_size=n,
            )
        )
    )
    def test_round_trip(self, rows):
        m = DenseMatrix(rows)
        assert np.array_equal(parse_matrix(write_matrix(m)).entries, m.entries)

    def test_matrix_is_immutable(self):
        m = DenseMatrix([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_repr_names_the_size(self):
        assert repr(DenseMatrix(np.eye(2))) == "DenseMatrix(n=2)"

    def test_matrix_validation(self):
        with pytest.raises(ShapeError):
            DenseMatrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            DenseMatrix([[1.0, -2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            DenseMatrix([[1.0, math.nan], [0.0, 1.0]])
