"""van Genuchten-Mualem closure tests."""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotflow import (
    ValidationError,
    VanGenuchtenParams,
    capillary_capacity,
    hydraulic_conductivity,
    water_content,
)

LOAM = VanGenuchtenParams(alpha=3.6, n_vg=1.56, theta_r=0.078, theta_s=0.43, k_s=2.9e-6)
# the four soils of configs/desk.yaml; the first is LOAM
DESK_ZONES = [
    LOAM,
    VanGenuchtenParams(alpha=2.0, n_vg=1.41, theta_r=0.095, theta_s=0.41, k_s=1.2e-6),
    VanGenuchtenParams(alpha=4.5, n_vg=1.68, theta_r=0.065, theta_s=0.45, k_s=5.0e-6),
    VanGenuchtenParams(alpha=3.0, n_vg=1.48, theta_r=0.085, theta_s=0.42, k_s=2.0e-6),
]


def test_water_content_saturation_limit():
    assert water_content(0.0, LOAM) == LOAM.theta_s
    assert water_content(1.0, LOAM) == LOAM.theta_s


def test_water_content_residual_limit():
    assert water_content(-1e300, LOAM) == LOAM.theta_r
    assert water_content(-1e9, LOAM) == pytest.approx(LOAM.theta_r, abs=1e-5)


def test_water_content_closed_form_at_unit_suction():
    # alpha*|h| = 1 collapses the retention curve to a power of 2
    h = -1.0 / LOAM.alpha
    expected = LOAM.theta_r + (LOAM.theta_s - LOAM.theta_r) * 2.0 ** (-(1.0 - 1.0 / LOAM.n_vg))
    assert water_content(h, LOAM) == pytest.approx(expected, rel=1e-14)


def test_capacity_zero_at_saturation():
    assert capillary_capacity(0.0, LOAM) == 0.0
    assert capillary_capacity(2.5, LOAM) == 0.0


def test_capacity_matches_finite_difference():
    rng = np.random.default_rng(0)
    hs = -np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=100))
    eps = 1e-7
    for h in hs:
        fd = (water_content(h + eps * abs(h), LOAM) - water_content(h - eps * abs(h), LOAM)) / (
            2 * eps * abs(h)
        )
        assert capillary_capacity(h, LOAM) == pytest.approx(fd, rel=1e-6)


def test_capacity_closed_form_at_unit_suction():
    # symbolic derivative of the retention curve at alpha*|h| = 1
    h = -1.0 / LOAM.alpha
    m = LOAM.m_vg
    expected = (LOAM.theta_s - LOAM.theta_r) * m * LOAM.n_vg * LOAM.alpha * 2.0 ** (-(m + 1.0))
    assert capillary_capacity(h, LOAM) == pytest.approx(expected, rel=1e-12)


def test_conductivity_saturated_and_dry_limits():
    assert hydraulic_conductivity(0.0, LOAM) == LOAM.k_s
    assert hydraulic_conductivity(-1e9, LOAM) == pytest.approx(0.0, abs=1e-30)


def test_conductivity_monotone_on_sweep():
    h = np.linspace(-50.0, 0.0, 2000)
    k = hydraulic_conductivity(h, LOAM)
    assert np.all(np.diff(k) >= 0)


def test_monotonicity_dense_sweep_wide_range():
    h = -np.logspace(-3, 3, 4000)[::-1]  # -1000 .. -0.001, increasing
    assert np.all(np.diff(water_content(h, LOAM)) >= 0)
    assert np.all(np.diff(hydraulic_conductivity(h, LOAM)) >= 0)


@given(
    h=st.floats(min_value=-1e3, max_value=-1e-3),
    alpha=st.floats(min_value=0.1, max_value=10.0),
    n_vg=st.floats(min_value=1.1, max_value=3.5),
)
@settings(max_examples=200, deadline=None)
def test_capacity_is_retention_slope(h, alpha, n_vg):
    p = VanGenuchtenParams(alpha=alpha, n_vg=n_vg, theta_r=0.05, theta_s=0.4, k_s=1e-6)
    dh = max(1e-5, 1e-4 * abs(h))  # big enough to dodge cancellation on flat curves
    fd = (water_content(h + dh, p) - water_content(h - dh, p)) / (2 * dh)
    assert capillary_capacity(h, p) == pytest.approx(fd, rel=1e-3, abs=1e-10)


@given(
    h1=st.floats(min_value=-1e3, max_value=0.0),
    h2=st.floats(min_value=-1e3, max_value=0.0),
)
@settings(max_examples=200, deadline=None)
def test_closures_monotone_pairwise(h1, h2):
    lo, hi = min(h1, h2), max(h1, h2)
    assert water_content(lo, LOAM) <= water_content(hi, LOAM) + 1e-15
    assert hydraulic_conductivity(lo, LOAM) <= hydraulic_conductivity(hi, LOAM) + 1e-25


def _reference_closures(h, p):
    """K(h), c(h) and theta(h) from their power forms in 40-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 40
        alpha, n = Decimal(p.alpha), Decimal(p.n_vg)
        m = 1 - 1 / n
        ah = alpha * -Decimal(h)
        a = ah**n
        one_a = 1 + a
        k = Decimal(p.k_s) * one_a ** (-m / 2) * (1 - (a / one_a) ** m) ** 2
        c = (Decimal(p.theta_s) - Decimal(p.theta_r)) * m * n * alpha * ah ** (n - 1) * one_a ** (-(m + 1))
        theta = Decimal(p.theta_r) + (Decimal(p.theta_s) - Decimal(p.theta_r)) * one_a ** -m
        return float(k), float(c), float(theta)


@pytest.mark.parametrize("heads, k_bound, c_bound", [
    # Largest relative errors found over these heads and soils: K 2.1e-9 and
    # c 4.4e-15 overall, K 1.0e-12 and c 3.3e-15 in the band. K loses digits
    # at the dry end, where nL - lo in the log form cancels. theta is within
    # 4.5e-16 on both ranges and is held to 1e-15.
    (-np.logspace(-3, 3, 200), 2.5e-9, 5e-15),
    (np.linspace(-14.0, -0.5, 200), 1.2e-12, 4e-15),
])
def test_closures_match_decimal_reference(heads, k_bound, c_bound):
    for p in DESK_ZONES:
        ref = np.array([_reference_closures(h, p) for h in heads])
        assert np.max(np.abs(hydraulic_conductivity(heads, p) / ref[:, 0] - 1.0)) <= k_bound
        assert np.max(np.abs(capillary_capacity(heads, p) / ref[:, 1] - 1.0)) <= c_bound
        assert np.max(np.abs(water_content(heads, p) / ref[:, 2] - 1.0)) <= 1e-15


def test_parameter_invariants_enforced():
    with pytest.raises(ValidationError):
        VanGenuchtenParams(alpha=-1.0, n_vg=1.5, theta_r=0.05, theta_s=0.4, k_s=1e-6)
    with pytest.raises(ValidationError):
        VanGenuchtenParams(alpha=1.0, n_vg=1.0, theta_r=0.05, theta_s=0.4, k_s=1e-6)
    with pytest.raises(ValidationError):
        VanGenuchtenParams(alpha=1.0, n_vg=1.5, theta_r=0.5, theta_s=0.4, k_s=1e-6)
    with pytest.raises(ValidationError):
        VanGenuchtenParams(alpha=1.0, n_vg=1.5, theta_r=0.05, theta_s=0.4, k_s=0.0)
    good = dict(alpha=1.0, n_vg=1.5, theta_r=0.05, theta_s=0.4, k_s=1e-6)
    for name in ("alpha", "n_vg", "k_s"):
        with pytest.raises(ValidationError, match=name):
            VanGenuchtenParams(**dict(good, **{name: np.inf}))
    # a per-node set fails on one bad entry
    for name, bad in (("alpha", np.inf), ("n_vg", 1.0), ("k_s", np.nan), ("theta_r", 0.5)):
        with pytest.raises(ValidationError):
            VanGenuchtenParams(**dict(good, **{name: np.array([good[name], bad, good[name]])}))
    # a per-node set derives the same parameter products as its scalar entries
    one = VanGenuchtenParams(**good)
    field = VanGenuchtenParams(**{k: np.full(3, v) for k, v in good.items()})
    for name in ("m_vg", "neg_alpha", "n_minus_1", "neg_m_plus_1", "half_neg_m", "c_scale"):
        assert np.array_equal(getattr(field, name), np.full(3, getattr(one, name)))
