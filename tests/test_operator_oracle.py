"""The S-matrix part and the transmission matrices built from the chain's R
and Lax operators against their displayed forms, and one return type for
every operator builder."""
import numpy as np
import pytest

from defectchain.lax_defect import (RegimeParams, crossing_transform, defect_rep, make_l,
                                    make_l_hat, make_r, s_matrix_part)
from defectchain.transmission_matrices import default_rep, t_matrix_part, type2_matrix_part
from operator_oracle import s_weights, t_blocks

# pi gamma = 16.6, 11.0 and 1.8 at mu = 0.5, 0.7 and 2.0: both sides of pi
PARAMS = [RegimeParams.xxx(), RegimeParams.critical(0.5), RegimeParams.critical(0.7),
          RegimeParams.critical(2.0), RegimeParams.noncritical(0.5),
          RegimeParams.noncritical(2.0)]
IDS = ["xxx", "crit-0.5", "crit-0.7", "crit-2.0", "nc-0.5", "nc-2.0"]
LAMS = [0.37, -1.3, 0.2 + 0.4j]


def assert_close_to_largest(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("params", PARAMS, ids=IDS)
@pytest.mark.parametrize("lam", LAMS)
def test_s_matrix_part_is_the_displayed_weights(params, lam):
    want = s_weights(params.regime, lam, params.mu, params.eta)
    assert_close_to_largest(s_matrix_part(params, lam), want)


@pytest.mark.parametrize("params", PARAMS, ids=IDS)
@pytest.mark.parametrize("lam", LAMS)
@pytest.mark.parametrize("which", ["t", "t_bar"])
def test_t_matrix_part_is_the_displayed_blocks(params, lam, which):
    rep = default_rep(params, 6)
    want = t_blocks(params.regime, lam, rep, which, params.mu, params.eta)
    assert_close_to_largest(t_matrix_part(params, lam, rep, which), want)


@pytest.mark.parametrize("params", PARAMS, ids=IDS)
def test_every_builder_returns_a_matrix_at_a_lam_and_a_stack_at_an_array(params):
    # a 2-d array at a scalar lam, an (n, dim, dim) array at a 1-d array
    # of lams, each matrix of the stack the scalar call's bit for bit at a
    # real lam; at a complex one numpy's scalar complex product rounds
    # apart from its array loop, so the two agree to roundoff there
    rep, trep = defect_rep(params, 5), default_rep(params, 5)
    builders = [lambda x: make_r(params, x), lambda x: make_l(params, x, rep),
                lambda x: make_l_hat(params, x, rep), lambda x: s_matrix_part(params, x),
                lambda x: t_matrix_part(params, x, trep, "t"),
                lambda x: t_matrix_part(params, x, trep, "t_bar"),
                lambda x: crossing_transform(make_l(params, x, rep))]
    if params.regime == "XXZ_noncritical":
        builders.append(lambda x: type2_matrix_part(params.eta, 1.0, x))
    for lams in (np.array([0.37, -1.3, 0.9]), np.array(LAMS)):
        for build in builders:
            stack = build(lams)
            assert type(stack) is np.ndarray and stack.dtype == np.complex128
            assert stack.ndim == 3 and stack.shape[0] == len(lams)
            for lam, m in zip(lams, stack):
                alone = build(lam)
                assert type(alone) is np.ndarray and alone.shape == m.shape
                if lam.imag == 0:
                    assert alone.tobytes() == m.tobytes()
                else:
                    assert np.abs(alone - m).max() <= 1e-15 * np.abs(m).max()
