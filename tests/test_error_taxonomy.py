"""Typed errors: the closed-family formulas return a value or raise a PhotonKitError."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonkit import (
    OrderRangeError,
    PhotonKitError,
    PhotonModel,
    autocorrelation,
    conditional_autocorr,
    moments,
    quadrature_moments,
    subtract_analytic,
    subtract_finite_p,
)
from photonkit.photon_stats import MAX_ORDER

#: Every positive finite double, subnormals included.
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
FINITE = st.floats(allow_nan=False, allow_infinity=False)

_RAISED = object()


def _typed(call):
    """The call's value, or ``_RAISED`` when it raises a PhotonKitError.

    Any other exception propagates and fails the test.
    """
    try:
        return call()
    except PhotonKitError:
        return _RAISED


def _build(kind, mu, a, levels, n):
    if kind == "compound_poisson":
        return PhotonModel.compound_poisson(mu, a)
    if kind == "poisson":
        return PhotonModel.poisson(mu)
    if kind == "binomial_fock":
        return PhotonModel.binomial_fock(n, min(mu, float(n)))
    return PhotonModel.hierarchy(mu, levels)


@given(
    kind=st.sampled_from(["compound_poisson", "poisson", "binomial_fock", "hierarchy"]),
    mu=POSITIVE,
    a=POSITIVE,
    levels=st.lists(POSITIVE, min_size=1, max_size=3),
    n=st.integers(1, 2**62),
    p=st.one_of(st.floats(0.0, 1.0), FINITE),
    m=st.integers(0, MAX_ORDER + 2),
    order=st.integers(0, MAX_ORDER + 2),
)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_closed_family_formulas_return_or_raise_typed_errors(kind, mu, a, levels, n, p, m, order):
    model = _typed(lambda: _build(kind, mu, a, levels, n))
    if model is _RAISED:
        return
    for g in (
        _typed(lambda: autocorrelation(model, order)),
        _typed(lambda: conditional_autocorr(model, m, order)),
    ):
        assert g is _RAISED or math.isfinite(g)
    values = _typed(lambda: moments(model))
    assert values is _RAISED or all(math.isfinite(v) for v in values)
    quad = _typed(lambda: quadrature_moments(model))
    assert quad is _RAISED or all(
        math.isfinite(v) for v in (quad.variance, quad.skewness, quad.excess_kurtosis)
    )
    _typed(lambda: subtract_analytic(model, m))
    _typed(lambda: subtract_finite_p(model, p))


def test_non_finite_moments_raise_order_range_error():
    with pytest.raises(OrderRangeError):
        moments(PhotonModel.hierarchy(1.0, (1e-320,)))
    with pytest.raises(OrderRangeError):
        moments(PhotonModel.compound_poisson(1.0, 5e-324))
    for model in (
        PhotonModel.hierarchy(1e-200, (1e-200,)),
        PhotonModel.compound_poisson(1e-200, 1e-310),
        PhotonModel.compound_poisson(1.0, 5e-324),
    ):
        with pytest.raises(OrderRangeError):
            quadrature_moments(model)
