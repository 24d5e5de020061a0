"""Bit-plane decomposition and the real-valued inner-product demo."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbc.bitplane import (
    BitPlaneDecomposition,
    decompose_bitplanes,
    regression_demo,
    regression_error_bound,
)
from qbc.statevector import GateError


def test_exact_dyadic_round_trip():
    d = decompose_bitplanes(0.6875, -1, 4)  # 0.1011 in binary
    assert d.planes == (1, 0, 1, 1)
    assert d.reconstruction() == 0.6875
    assert d.num_planes == 4


def test_exponent_zero_covers_values_up_to_two():
    d = decompose_bitplanes(1.0, 0, 3)
    assert d.planes == (1, 0, 0)
    assert d.reconstruction() == 1.0
    d = decompose_bitplanes(1.75, 0, 3)
    assert d.planes == (1, 1, 1)
    assert d.reconstruction() == 1.75


def test_truncation_error_bounded_by_tail_weight():
    for value in (0.1, 0.3, 0.55, 0.999, 1 / 3):
        for k in (2, 4, 6):
            d = decompose_bitplanes(value, -1, k)
            err = value - d.reconstruction()
            assert 0 <= err < 2.0 ** (-1 - k + 1)


def test_decomposition_validation():
    with pytest.raises(GateError):
        decompose_bitplanes(0.5, -1, 0)
    with pytest.raises(GateError):
        decompose_bitplanes(-0.1, -1, 3)
    with pytest.raises(GateError, match="digit above"):
        decompose_bitplanes(1.0, -1, 3)
    for value in (math.nan, math.inf):  # nan had read as all-zero planes
        with pytest.raises(GateError, match="not finite"):
            decompose_bitplanes(value, -1, 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 255), st.integers(1, 8))
def test_reconstruction_never_exceeds_value(numerator, num_planes):
    value = numerator / 256.0
    d = decompose_bitplanes(value, -1, num_planes)
    assert d.reconstruction() <= value + 1e-15
    assert value - d.reconstruction() < 2.0 ** (-num_planes)


def test_error_bound_formula():
    assert regression_error_bound(8, 6, 7) == pytest.approx(
        8 * (2.0**-5 + 6 * math.pi * 2.0**-7)
    )


def test_regression_exact_for_dyadic_column():
    # column entries exactly representable in 3 planes, estimates on-grid
    x = [0.5, 0.25, 0.75, 0.0]
    y = [1, 1, 1, 1]
    res = regression_demo(x, y, 6, 3, rng=np.random.default_rng(200))
    assert res.u == -1
    assert res.truth == 1.5
    # per-plane fractions are 1/4, 1/4, 2/4: none on the t-grid exactly,
    # so allow the counting-error envelope
    assert abs(res.value - res.truth) <= res.error_bound
    assert res.within_bound


def test_regression_skips_all_zero_planes():
    x = [0.5, 0.0, 0.5, 0.0]  # only plane 0 populated
    res = regression_demo(x, [1, 0, 1, 1], 5, 4, rng=np.random.default_rng(201))
    assert res.num_executions == 1
    assert res.plane_estimates[1:] == [0.0, 0.0, 0.0]


def test_regression_unit_entry_sets_exponent_zero():
    res = regression_demo([1.0, 0.0], [1, 1], 4, 2, rng=np.random.default_rng(202))
    assert res.u == 0
    assert res.truth == 1.0


def test_regression_blind_client_variant_agrees():
    x = [0.5, 0.5, 0.0, 0.5]
    y = [1, 1, 1, 0]
    base = regression_demo(x, y, 5, 2, rng=np.random.default_rng(203))
    blind = regression_demo(x, y, 5, 2, variant="blind-client",
                            rng=np.random.default_rng(203))
    assert base.truth == blind.truth == 1.0
    assert abs(base.value - blind.value) <= base.error_bound
    assert blind.within_bound


def test_regression_validation():
    rng = np.random.default_rng(204)
    with pytest.raises(GateError, match="equal-length"):
        regression_demo([0.5, 0.5], [1], 3, 2, rng=rng)
    with pytest.raises(GateError, match="\\[0, 1\\]"):
        regression_demo([1.5, 0.0], [1, 1], 3, 2, rng=rng)
    with pytest.raises(GateError, match="finite"):  # nan had given a value near 1
        regression_demo([math.nan, 0.5, 0.25, 0.5], [1, 1, 0, 1], 3, 3, rng=rng)
    with pytest.raises(GateError, match="variant"):
        regression_demo([0.5, 0.5], [1, 1], 3, 2, variant="blind-server", rng=rng)


def test_regression_result_within_bound_flag():
    res = BitPlaneDecomposition(0.5, -1, (1,))
    assert res.reconstruction() == 0.5
    good = regression_demo([0.5, 0.5], [1, 1], 6, 3, rng=np.random.default_rng(205))
    assert good.within_bound == (abs(good.value - good.truth) <= good.error_bound)
