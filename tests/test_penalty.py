"""Penalty family: conjugate, link, growth-envelope checks."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mci.penalty import (
    EPS_LINK_PRIME,
    PenaltySpec,
    conjugate,
    link_s,
    link_s_prime,
    rho,
    validate_growth,
)

P_VALUES = [1.2, 1.5, 2.0, 3.0]


def test_conjugate_pnorm_values():
    assert conjugate(PenaltySpec.pnorm(2.0), 2.0) == pytest.approx(2.0)
    assert conjugate(PenaltySpec.pnorm(1.5), 0.0) == 0.0
    # Q = 3: |2|^3 / 3
    assert conjugate(PenaltySpec.pnorm(1.5), 2.0) == pytest.approx(8.0 / 3.0)


def test_link_values():
    assert link_s(PenaltySpec.pnorm(2.0), -3.0) == pytest.approx(-3.0)
    assert link_s(PenaltySpec.pnorm(1.5), 2.0) == pytest.approx(4.0)
    for p in P_VALUES:
        assert link_s(PenaltySpec.pnorm(p), 0.0) == 0.0


def test_link_prime_values():
    assert link_s_prime(PenaltySpec.pnorm(2.0), 7.0) == pytest.approx(1.0)
    assert link_s_prime(PenaltySpec.pnorm(1.5), 2.0) == pytest.approx(4.0)
    assert link_s_prime(PenaltySpec.pnorm(1.5), 0.0) == 0.0


def test_link_prime_singularity_clip():
    # p = 3 gives Q = 1.5 < 2; s' blows up at 0 without the clip.
    pen = PenaltySpec.pnorm(3.0)
    v = link_s_prime(pen, 0.0)
    assert np.isfinite(v) and v == link_s_prime(pen, 1e-12)


def test_l1_sentinel():
    pen = PenaltySpec.pnorm(1.0)
    assert pen.is_l1
    with pytest.raises(ValueError, match="undefined for p=1"):
        conjugate(pen, 1.0)
    with pytest.raises(ValueError, match="undefined for p=1"):
        link_s(pen, 1.0)
    with pytest.raises(ValueError, match="undefined for p=1"):
        link_s_prime(pen, 1.0)


def test_conjugate_nonfinite():
    with pytest.raises(ValueError, match="requires finite input"):
        conjugate(PenaltySpec.pnorm(2.0), np.nan)
    with pytest.raises(ValueError, match="requires finite input"):
        conjugate(PenaltySpec.pnorm(1.5), np.inf)


def test_pnorm_exponents():
    for p in P_VALUES:
        spec = PenaltySpec.pnorm(p)
        q = p / (p - 1.0)
        assert spec.exponents == (q, q, q, q)


@pytest.mark.parametrize("p", P_VALUES)
def test_pnorm_maps_match_closed_forms(p):
    # The module docstring's formulas, bitwise, including 0, the s' clip and
    # large arguments.
    pen = PenaltySpec.pnorm(p)
    x = np.array([0.0, 1e-12, -1e-12, EPS_LINK_PRIME, 0.3, -2.5, 1e6, -1e6])
    q = p / (p - 1.0)
    a = np.maximum(np.abs(x), EPS_LINK_PRIME) if q < 2.0 else np.abs(x)
    assert np.array_equal(conjugate(pen, x), np.abs(x) ** q / q)
    assert np.array_equal(link_s(pen, x), np.sign(x) * np.abs(x) ** (q - 1.0))
    assert np.array_equal(link_s_prime(pen, x), (q - 1.0) * a ** (q - 2.0))
    assert np.array_equal(rho(pen, x), np.abs(x) ** p / p)


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
def test_pnorm_pickles(p):
    pen = PenaltySpec.pnorm(p)
    again = pickle.loads(pickle.dumps(pen))
    assert again == pen and hash(again) == hash(pen)
    assert PenaltySpec.pnorm(p) == pen and hash(PenaltySpec.pnorm(p)) == hash(pen)
    x = np.linspace(-3.0, 3.0, 13)
    maps = (rho,) if pen.is_l1 else (rho, conjugate, link_s, link_s_prime)
    for fn in maps:
        assert np.array_equal(fn(again, x), fn(pen, x))


def test_custom_without_rho_handle():
    # rho is the one optional handle; the solver's three maps are required.
    handles = dict(conjugate=lambda x: x**2 / 2.0, link=lambda x: x, link_prime=np.ones_like)
    pen = PenaltySpec.custom(**handles, exponents=(2.0, 2.0, 2.0, 2.0))
    with pytest.raises(ValueError, match="without a rho handle"):
        rho(pen, 1.0)
    with pytest.raises(ValueError, match="needs callable conjugate, link and link_prime"):
        PenaltySpec.custom(**{**handles, "link": None}, exponents=(2.0, 2.0, 2.0, 2.0))


@pytest.mark.parametrize("p", P_VALUES)
def test_conjugate_consistency(p):
    # s inverts rho': rho'(s(x)) = x on a wide log grid.
    pen = PenaltySpec.pnorm(p)
    x = np.concatenate([-np.logspace(-6, 6, 40), np.logspace(-6, 6, 40)])
    s = np.asarray(link_s(pen, x))
    rho_prime = np.sign(s) * np.abs(s) ** (p - 1.0)
    np.testing.assert_allclose(rho_prime, x, rtol=1e-10)


@pytest.mark.parametrize("p", P_VALUES)
def test_young_identity(p):
    # rho(s(x)) + rho*(x) = x s(x) at the conjugate pair.
    pen = PenaltySpec.pnorm(p)
    x = np.concatenate([-np.logspace(-6, 6, 40), np.logspace(-6, 6, 40)])
    s = np.asarray(link_s(pen, x))
    lhs = np.asarray(rho(pen, s)) + np.asarray(conjugate(pen, x))
    np.testing.assert_allclose(lhs, x * s, rtol=1e-10)


@pytest.mark.parametrize("p", P_VALUES)
def test_link_prime_matches_finite_differences(p):
    pen = PenaltySpec.pnorm(p)
    x = np.concatenate([-np.logspace(-3, 3, 25), np.logspace(-3, 3, 25)])
    h = 1e-6 * np.abs(x)
    fd = (np.asarray(link_s(pen, x + h)) - np.asarray(link_s(pen, x - h))) / (2 * h)
    np.testing.assert_allclose(np.asarray(link_s_prime(pen, x)), fd, rtol=1e-6)


@given(p=st.floats(1.05, 6.0), x=st.floats(-1e6, 1e6))
@settings(max_examples=200, deadline=None)
def test_link_odd(p, x):
    pen = PenaltySpec.pnorm(p)
    assert link_s(pen, -x) == -link_s(pen, x)


@given(p=st.floats(1.05, 6.0), x=st.floats(1e-8, 1e6), y=st.floats(1e-8, 1e6))
@settings(max_examples=200, deadline=None)
def test_link_nondecreasing(p, x, y):
    pen = PenaltySpec.pnorm(p)
    lo, hi = min(x, y), max(x, y)
    assert link_s(pen, lo) <= link_s(pen, hi)


def _log_pair_grid(lo=-2, hi=2, k=12):
    xs = np.logspace(lo, hi, k)
    return [(a, b) for a in xs for b in xs]


def test_validate_growth_p2_saturates():
    rep = validate_growth(PenaltySpec.pnorm(2.0), _log_pair_grid())
    assert abs(rep.c - 1.0) < 1e-12 and abs(rep.C - 1.0) < 1e-12
    assert not rep.violation


def test_validate_growth_p15():
    rep = validate_growth(PenaltySpec.pnorm(1.5), _log_pair_grid())
    assert rep.c <= 1.0 <= rep.C
    assert not rep.violation


def test_validate_growth_cubic_misdeclared():
    # s(x) = x^3 corresponds to Q = 4 (p = 4/3); declaring Q = 2 must flag.
    pen = PenaltySpec.custom(
        conjugate=lambda x: np.abs(x) ** 4 / 4.0,
        link=lambda x: x**3,
        link_prime=lambda x: 3.0 * x**2,
        exponents=(2.0, 2.0, 2.0, 2.0),
    )
    rep = validate_growth(pen, _log_pair_grid())
    assert rep.violation


def test_validate_growth_cubic_correctly_declared():
    pen = PenaltySpec.custom(
        conjugate=lambda x: np.abs(x) ** 4 / 4.0,
        link=lambda x: x**3,
        link_prime=lambda x: 3.0 * x**2,
        exponents=(4.0, 4.0, 4.0, 4.0),
    )
    rep = validate_growth(pen, _log_pair_grid())
    assert not rep.violation


def test_validate_growth_empty_grid():
    with pytest.raises(ValueError, match="at least one"):
        validate_growth(PenaltySpec.pnorm(2.0), [])
