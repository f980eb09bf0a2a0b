import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neumannlab.exponents import (
    ExponentPair,
    HyperbolaError,
    Region,
    c_from_lambda,
    classify_region,
    lambda_from_c,
)

EPS = 2.220446049250313e-16


def test_validation_rejects_bad_exponents():
    with pytest.raises(ValueError):
        ExponentPair(-0.1, 1.0, 3)
    with pytest.raises(ValueError):
        ExponentPair(1.0, 0.0, 3)
    with pytest.raises(ValueError):
        ExponentPair(1.0, -2.0, 3)
    with pytest.raises(ValueError):
        ExponentPair(1.0, 1.0, 0)


def test_alpha_undefined_for_sign_case():
    e = ExponentPair(0.0, 2.0, 3)
    with pytest.raises(ValueError):
        _ = e.alpha
    assert e.beta == pytest.approx(1.5)
    assert e.gamma1 == 0.0
    assert e.gamma2 == 1.0


@pytest.mark.parametrize(
    "p,q,dim,expected",
    [
        (1.0, 1.0, 3, Region.HYPERBOLA),
        (1.0, 1.2, 3, Region.SUBCRITICAL),
        (2.0, 2.0, 6, Region.CRITICAL_ADMISSIBLE),
        (2.0, 0.5, 3, Region.HYPERBOLA),
        (0.0, 0.7, 4, Region.SIGN_CASE),
        (8.0, 8.0, 6, Region.SUPERCRITICAL),
    ],
)
def test_classification_cases(p, q, dim, expected):
    assert classify_region(ExponentPair(p, q, dim)) == expected


def test_critical_inadmissible_asymmetric_pair():
    # (5, 2) sits on the N = 4 critical curve with min(p, q) = 2 < 7/3
    p = 5.0
    q = 1.0 / (0.5 - 1.0 / (p + 1.0)) - 1.0
    assert q == pytest.approx(2.0, rel=1e-12)
    assert classify_region(ExponentPair(p, q, 4)) == Region.CRITICAL_INADMISSIBLE


def test_classification_spec_triple():
    assert classify_region(ExponentPair(1, 1, 3)) == Region.HYPERBOLA
    # 1/2 + 1/2 = 1 > 1/3 so away from pq = 1 the region is subcritical
    assert classify_region(ExponentPair(1.0, 1.5, 3)) == Region.SUBCRITICAL
    assert classify_region(ExponentPair(2, 2, 6)) == Region.CRITICAL_ADMISSIBLE
    assert classify_region(ExponentPair(2, 0.5, 3)) == Region.HYPERBOLA


def test_critical_dimension_bounds():
    # N = 5 threshold is 17/13, N = 4 threshold is 7/3
    for dim, bound in [(5, 17.0 / 13.0), (4, 7.0 / 3.0), (6, 1.0)]:
        # symmetric critical point p = q solves 2/(p+1) = (N-2)/N
        p = 2.0 * dim / (dim - 2.0) - 1.0
        tag = classify_region(ExponentPair(p, p, dim))
        expected = Region.CRITICAL_ADMISSIBLE if p > bound else Region.CRITICAL_INADMISSIBLE
        assert tag == expected


def test_perturbation_never_skips_critical():
    for dim in (4, 5, 6, 8):
        p = 2.0 * dim / (dim - 2.0) - 1.0
        for dp in (-1e-12, 0.0, 1e-12):
            tag = classify_region(ExponentPair(p + dp, p, dim))
            assert tag in (Region.CRITICAL_ADMISSIBLE, Region.CRITICAL_INADMISSIBLE)


@given(
    p=st.floats(min_value=0.05, max_value=20.0),
    q=st.floats(min_value=0.05, max_value=20.0),
)
@settings(max_examples=200, deadline=None)
def test_gamma_identities(p, q):
    e = ExponentPair(p, q, 3)
    assert abs(e.gamma1 + e.gamma2 - 1.0) <= 4 * EPS
    # the Young weights satisfy gamma1 alpha = gamma2 beta = gamma
    assert abs(e.gamma1 * e.alpha - e.gamma) <= 4 * EPS * abs(e.gamma)
    assert abs(e.gamma2 * e.beta - e.gamma) <= 4 * EPS * abs(e.gamma)
    assert abs(1.0 / e.alpha + 1.0 / e.beta - 1.0 / e.gamma) <= 4 * EPS
    assert e.alpha > 1.0 and e.beta > 1.0


def test_c_from_lambda_examples():
    # p = q = 3, Lambda = 2: exponent (p+1)(q+1)/(pq-1) = 2, c = (8/16) * 4 = 2
    e = ExponentPair(3.0, 3.0, 1)
    assert c_from_lambda(e, 2.0) == pytest.approx(2.0, rel=1e-14)
    # sign case: Lambda^{-(q+1)} = -(q+1) c
    e0 = ExponentPair(0.0, 1.0, 1)
    assert c_from_lambda(e0, 1.0) == pytest.approx(-0.5, rel=1e-14)


def test_c_lambda_round_trip():
    e = ExponentPair(3.0, 3.0, 1)
    import random

    rng = random.Random(7)
    for _ in range(50):
        lam = rng.uniform(0.1, 10.0)
        assert lambda_from_c(e, c_from_lambda(e, lam)) == pytest.approx(lam, rel=1e-14)
    e0 = ExponentPair(0.0, 2.0, 2)
    for _ in range(20):
        lam = rng.uniform(0.1, 10.0)
        assert lambda_from_c(e0, c_from_lambda(e0, lam)) == pytest.approx(lam, rel=1e-14)
    esub = ExponentPair(0.5, 0.8, 1)  # pq < 1 branch has negative levels
    for _ in range(20):
        lam = rng.uniform(0.1, 10.0)
        c = c_from_lambda(esub, lam)
        assert c < 0
        assert lambda_from_c(esub, c) == pytest.approx(lam, rel=1e-13)


def test_c_from_lambda_rejects_hyperbola():
    with pytest.raises(HyperbolaError):
        c_from_lambda(ExponentPair(2.0, 0.5, 3), 1.0)
    with pytest.raises(HyperbolaError):
        lambda_from_c(ExponentPair(1.0, 1.0, 3), 1.0)

