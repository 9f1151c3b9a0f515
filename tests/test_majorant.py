import numpy as np
import pytest

from conftest import appendix_majorant_input, nonlinear_field
from ddebound.majorant import (PolynomialMajorant, PolynomialTerm, linearize_majorant,
                               majorize_polynomial)
from ddebound.vectorfield import NonlinearTerm, PolynomialVectorField


class TestMajorizePolynomial:
    def test_two_coordinate_cubic_example(self):
        # f1 = a1(t) x1^3 x2(t-h1)^2, f2 = a2(t) x2(t-h2)^3
        # -> |a1| z1^3 z2^2 + |a2| z3^3
        L = majorize_polynomial(appendix_majorant_input(), delay_count=2)
        exps = sorted(term.exponents for term in L.terms)
        assert exps == [(0, 0, 3), (3, 2, 0)]
        assert L.evaluate(0.0, (1.0, 1.0, 1.0)) == 2.0

    def test_single_delayed_cubic(self):
        # second-coordinate term b * x2(t-h)^3 -> |b| z2^3
        L = majorize_polynomial([(2.0, [(1, 1, 3)])], delay_count=1)
        assert len(L.terms) == 1
        assert L.terms[0].exponents == (0, 3)
        assert L.evaluate(0.0, (0.0, 0.5)) == pytest.approx(0.25)

    def test_empty_field(self):
        L = PolynomialMajorant.zero(2)
        assert L.evaluate(0.0, (3.0, 4.0)) == 0.0

    def test_constant_monomial_rejected(self):
        with pytest.raises(ValueError):
            majorize_polynomial([(1.0, [])], delay_count=0)

    def test_coordinates_collapse_per_slot(self):
        # x1^2 x2 at the current time -> z1^3
        L = majorize_polynomial([(1.0, [(0, 0, 2), (0, 1, 1)])], delay_count=0)
        assert L.terms[0].exponents == (3,)


class TestEvalMajorant:
    def test_zero_arguments(self):
        L = majorize_polynomial(appendix_majorant_input(), delay_count=2)
        assert L.evaluate(0.3, (0.0, 0.0, 0.0)) == 0.0

    def test_negative_argument_rejected(self):
        L = majorize_polynomial([(1.0, [(0, 0, 2)])], delay_count=0)
        with pytest.raises(ValueError):
            L.evaluate(0.0, (-0.5,))

    def test_wrong_arity_rejected(self):
        L = majorize_polynomial([(1.0, [(0, 0, 2)])], delay_count=0)
        with pytest.raises(ValueError):
            L.evaluate(0.0, (0.5, 0.5))

    def test_coefficient_magnitude_used(self):
        L = majorize_polynomial([(-3.0, [(0, 0, 1)])], delay_count=0)
        assert L.evaluate(0.0, (2.0,)) == 6.0


def _random_field_and_majorant(rng, dim, delay_count, n_terms):
    monomials = []
    for _ in range(n_terms):
        coord = int(rng.integers(0, dim))
        coeff = float(rng.uniform(-2.0, 2.0))
        factors = []
        for _ in range(int(rng.integers(1, 4))):
            factors.append((int(rng.integers(0, delay_count + 1)),
                            int(rng.integers(0, dim)),
                            int(rng.integers(1, 4))))
        monomials.append((coord, coeff, factors))
    poly = PolynomialVectorField(dim, delay_count, monomials)
    term = NonlinearTerm(dim, delay_count, poly)
    return term, term.majorize()


class TestMajorizationProperty:
    def test_randomized_domination(self):
        rng = np.random.default_rng(97)
        term, L = _random_field_and_majorant(rng, dim=2, delay_count=2, n_terms=6)
        f = nonlinear_field(term)
        for _ in range(1000):
            t = float(rng.uniform(0.0, 10.0))
            x = rng.uniform(-2.0, 2.0, size=2)
            z = [rng.uniform(-2.0, 2.0, size=2) for _ in range(2)]
            lhs = float(np.linalg.norm(f(t, x, z)))
            zeta = [float(np.linalg.norm(x))] + [float(np.linalg.norm(v)) for v in z]
            rhs = L.evaluate(t, zeta)
            assert lhs <= rhs + 1e-12

    def test_monotone_in_every_argument(self):
        rng = np.random.default_rng(11)
        _term, L = _random_field_and_majorant(rng, dim=2, delay_count=2, n_terms=6)
        for _ in range(200):
            zeta = rng.uniform(0.0, 2.0, size=3)
            base = L.evaluate(0.0, tuple(zeta))
            for i in range(3):
                bumped = zeta.copy()
                bumped[i] += 0.1
                assert L.evaluate(0.0, tuple(bumped)) >= base - 1e-15


class TestLinearize:
    def test_pure_cube(self):
        L = PolynomialMajorant((PolynomialTerm(1.0, (3,)),), 1)
        lc = linearize_majorant(L, 0.5)
        assert lc.mu[0](0.0) == pytest.approx(0.25)

    def test_delayed_cube_attributes_to_delay_slot(self):
        L = majorize_polynomial([(2.0, [(1, 1, 3)])], delay_count=1)
        lc = linearize_majorant(L, 0.3)
        assert lc.mu[0](0.0) == 0.0
        assert lc.mu[1](0.0) == pytest.approx(2.0 * 0.09)

    def test_zero_majorant(self):
        lc = linearize_majorant(PolynomialMajorant.zero(3), 1.0)
        assert all(m(0.0) == 0.0 for m in lc.mu)

    def test_mixed_term_goes_to_smallest_index(self):
        # z1 z2^2 with zeta_tilde -> mu_1 = zeta_tilde^2
        L = PolynomialMajorant((PolynomialTerm(1.0, (1, 2)),), 2)
        lc = linearize_majorant(L, 0.5)
        assert lc.mu[0](0.0) == pytest.approx(0.25)
        assert lc.mu[1](0.0) == 0.0

    def test_randomized_domination_inside_radius(self):
        rng = np.random.default_rng(5)
        _term, L = _random_field_and_majorant(rng, dim=2, delay_count=1, n_terms=5)
        zt = 0.8
        lc = linearize_majorant(L, zt)
        for _ in range(1000):
            t = float(rng.uniform(0.0, 5.0))
            zeta = rng.uniform(0.0, zt, size=2)
            assert L.evaluate(t, tuple(zeta)) <= lc.evaluate(t, zeta) + 1e-12

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            linearize_majorant(PolynomialMajorant.zero(1), 0.0)


class TestConstantTermHandling:
    def test_constant_terms_only_where_allowed(self):
        with pytest.raises(ValueError):
            PolynomialMajorant((PolynomialTerm(1.0, (0, 0)),), 2)
        L = PolynomialMajorant((PolynomialTerm(1.0, (0, 0)),), 2,
                               allow_constant_terms=True)
        assert L.evaluate(0.0, (0.0, 0.0)) == 1.0

    def test_linearize_rejects_constant_terms(self):
        L = PolynomialMajorant((PolynomialTerm(1.0, (0,)),), 1,
                               allow_constant_terms=True)
        with pytest.raises(ValueError):
            linearize_majorant(L, 1.0)
