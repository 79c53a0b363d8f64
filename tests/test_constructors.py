"""The value classes' constructors: field order, defaults, normalisation and
every validation message."""
import re

import numpy as np
import pytest

from defectchain.lax_defect import CRITICAL, NONCRITICAL, XXX, RegimeParams
from defectchain.monodromy import ChainSpec
from defectchain.oscillator_reps import (HarmonicRep, QOscRep, SpinRep, harmonic_rep,
                                         q_oscillator_rep, spin_rep)
from defectchain.special_functions import AmplitudeResult, FourierKernel
from defectchain.tensor_core import TensorOperator, TensorSpace

CRIT = RegimeParams.critical(0.7)


def _hat(w):
    return np.exp(-np.abs(w))


def _eye_with(value):
    m = np.eye(2, dtype=complex)
    m[0, 1] = value
    return m


@pytest.mark.parametrize("make, message", [
    (lambda: TensorSpace(()), "factor dimensions must be positive, got ()"),
    (lambda: TensorSpace((2, 0)), "factor dimensions must be positive, got (2, 0)"),
    (lambda: TensorOperator(TensorSpace((2,)), np.eye(3)),
     "entries shape (3, 3) does not match space dim 2"),
    (lambda: TensorOperator(TensorSpace((2,)), np.eye(2)[0]),
     "entries shape (2,) does not match space dim 2"),
    (lambda: TensorOperator(TensorSpace((2,)), _eye_with(np.nan)),
     "operator entries contain NaN or Inf"),
    (lambda: TensorOperator(TensorSpace((2,)), _eye_with(np.inf)),
     "operator entries contain NaN or Inf"),
    (lambda: AmplitudeResult(1.0, "closed", -1e-3), "error_estimate must be >= 0"),
    (lambda: AmplitudeResult(np.ones(2), "sum", np.array([0.0, -1e-300])),
     "error_estimate must be >= 0"),
    (lambda: ChainSpec(-1, 1, CRIT, harmonic_rep(4)), "n_sites must be >= 0"),
    (lambda: ChainSpec(2, 0, CRIT, harmonic_rep(4)), "defect_site must lie in 1..3, got 0"),
    (lambda: ChainSpec(2, 4, CRIT, harmonic_rep(4)), "defect_site must lie in 1..3, got 4"),
    (lambda: ChainSpec(10, 1, CRIT, harmonic_rep(8)),
     "chain dimension 8192 exceeds resource bound 4096"),
    (lambda: RegimeParams("XXY"), "unknown regime 'XXY'"),
    (lambda: RegimeParams(CRITICAL), "critical regime needs mu only"),
    (lambda: RegimeParams(CRITICAL, mu=0.7, eta=0.5), "critical regime needs mu only"),
    (lambda: RegimeParams(NONCRITICAL), "non-critical regime needs eta only"),
    (lambda: RegimeParams(NONCRITICAL, mu=0.7, eta=0.5), "non-critical regime needs eta only"),
    (lambda: RegimeParams(CRITICAL, mu=0.0), "mu must lie in (0, pi), got 0.0"),
    (lambda: RegimeParams.critical(np.pi), f"mu must lie in (0, pi), got {np.pi}"),
    (lambda: RegimeParams.critical(float("nan")), "mu must lie in (0, pi), got nan"),
    (lambda: RegimeParams(XXX, mu=0.7), "isotropic regime takes no anisotropy parameter"),
    (lambda: RegimeParams(XXX, eta=0.5), "isotropic regime takes no anisotropy parameter"),
])
def test_constructor_checks_keep_their_messages(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


SPIN = spin_rep(1.0, 1.0)
QOSC = q_oscillator_rep(4, np.exp(0.7j))
HARM = harmonic_rep(3)


@pytest.mark.parametrize("cls, args, fields", [
    (RegimeParams, (XXX,), dict(regime=XXX, mu=None, eta=None, theta=0.0)),
    (RegimeParams, (CRITICAL, 0.7, None, 0.25),
     dict(regime=CRITICAL, mu=0.7, eta=None, theta=0.25)),
    (ChainSpec, (2, 3, CRIT, HARM), dict(n_sites=2, defect_site=3, params=CRIT, rep=HARM)),
    (AmplitudeResult, (1j, "closed"), dict(value=1j, route="closed", error_estimate=0.0)),
    (FourierKernel, ("k", _hat),
     dict(name="k", hat=_hat, odd_kind="none", odd_origin=0.0, decay=0.5, discrete=False)),
    (FourierKernel, ("k", _hat, "jump", 0.5j, 1.5, True),
     dict(name="k", hat=_hat, odd_kind="jump", odd_origin=0.5j, decay=1.5, discrete=True)),
    (HarmonicRep, (3, HARM.a, HARM.a_dag, HARM.n_op),
     dict(dim=3, a=HARM.a, a_dag=HARM.a_dag, n_op=HARM.n_op)),
    (QOscRep, (4, QOSC.q, QOSC.v, QOSC.v_inv, QOSC.a, QOSC.a_dag, QOSC.x, QOSC.y),
     dict(dim=4, q=QOSC.q, v=QOSC.v, v_inv=QOSC.v_inv, a=QOSC.a, a_dag=QOSC.a_dag,
          x=QOSC.x, y=QOSC.y)),
    (SpinRep, (1.0, 1.0, SPIN.s_z, SPIN.s_plus, SPIN.s_minus),
     dict(spin=1.0, q=1.0, s_z=SPIN.s_z, s_plus=SPIN.s_plus, s_minus=SPIN.s_minus)),
])
def test_constructors_take_fields_in_order_with_defaults(cls, args, fields):
    by_position = cls(*args)
    by_keyword = cls(**{k: v for k, v in zip(fields, args)})
    for obj in (by_position, by_keyword):
        for name, value in fields.items():
            assert getattr(obj, name) is value or getattr(obj, name) == value, name
    with pytest.raises(AttributeError):
        by_position.not_a_field = 1


def test_tensor_space_normalises_dims_to_an_int_tuple():
    space = TensorSpace([np.int64(2), 3.0])
    assert space.factor_dims == (2, 3)
    assert all(type(d) is int for d in space.factor_dims)
    assert space.dim == 6 and space.n_factors == 2


def test_tensor_operator_entries_are_contiguous_complex_and_read_only():
    raw = np.asfortranarray(np.arange(4, dtype=np.int64).reshape(2, 2))
    op = TensorOperator(TensorSpace((2,)), raw)
    assert op.entries.dtype == np.complex128 and op.entries.flags.c_contiguous
    assert not op.entries.flags.writeable
    np.testing.assert_array_equal(op.entries, raw)
    with pytest.raises(ValueError):
        op.entries[0, 0] = 1.0
