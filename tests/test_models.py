"""Model catalogue: exponents, moments, sampling laws, integrability gate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levypen import models

BM = models.brownian(1.0)
ST = models.symmetric_stable(1.5)
JD = models.jump_diffusion(1.0, 1.0, 1.0, 2.0)
ALL = (BM, ST, JD)


def test_psi_reference_values():
    assert BM.psi(0.0) == 0.0
    assert BM.psi(2.0) == pytest.approx(2.0, abs=1e-15)
    assert ST.psi(-3.0) == pytest.approx(3.0**1.5, rel=1e-15)
    assert JD.psi(0.0) == 0


def test_psi_hermitian_symmetry_and_nonnegativity():
    lams = np.linspace(-20.0, 20.0, 81)
    for model in ALL:
        vals = np.array([complex(model.psi(l)) for l in lams])
        flipped = np.array([complex(model.psi(-l)) for l in lams])
        assert np.allclose(flipped, np.conj(vals), rtol=0, atol=1e-12)
        assert (vals.real >= -1e-12).all()


@given(lam=st.floats(-50, 50, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_psi_hermitian_hypothesis(lam):
    v = complex(JD.psi(lam))
    assert complex(JD.psi(-lam)) == pytest.approx(v.conjugate(), rel=1e-12, abs=1e-12)


def test_symmetric_flag_consistency():
    lams = np.linspace(0.1, 30.0, 40)
    for model in (BM, ST, models.jump_diffusion(1.0, 1.0, 2.0, 2.0)):
        assert model.symmetric
        assert max(abs(complex(model.psi(l)).imag) for l in lams) < 1e-12
    assert not JD.symmetric
    assert max(abs(complex(JD.psi(l)).imag) for l in lams) > 1e-3


def test_second_moments():
    assert models.brownian(2.0).m2 == 4.0
    assert ST.m2 == math.inf
    assert models.symmetric_stable(2.0).m2 == 2.0
    # sigma^2 + rate * E[J^2], E[J^2] = 2/(p+ p-)
    assert JD.m2 == pytest.approx(1.0 + 1.0 * 2.0 / (1.0 * 2.0))


def test_construction_rejects_bad_parameters():
    for alpha in (1.0, 0.9, 0.5, 2.5, -1.0):
        with pytest.raises(ValueError):
            models.symmetric_stable(alpha)
    with pytest.raises(ValueError):
        models.brownian(0.0)
    with pytest.raises(ValueError):
        models.jump_diffusion(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        models.jump_diffusion(1.0, -0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        models.jump_diffusion(1.0, 1.0, 0.0, 1.0)


def test_brownian_increment_moments():
    rng = np.random.default_rng(100)
    dt, n = 0.01, 1_000_000
    draws = BM.sample_increments(rng, dt, n)
    se_mean = draws.std() / math.sqrt(n)
    assert abs(draws.mean()) < 3 * se_mean
    var = draws.var()
    se_var = var * math.sqrt(2.0 / (n - 1))
    assert abs(var - dt) < 3 * se_var


def test_alpha2_stable_matches_variance_two_brownian():
    rng = np.random.default_rng(101)
    dt, n = 0.05, 400_000
    draws = models.symmetric_stable(2.0).sample_increments(rng, dt, n)
    var = draws.var()
    se_var = var * math.sqrt(2.0 / (n - 1))
    assert abs(var - 2.0 * dt) < 3 * se_var


@pytest.mark.parametrize("model", ALL, ids=lambda m: m.kind)
def test_empirical_characteristic_function(model):
    rng = np.random.default_rng(102)
    dt, n = 0.05, 100_000
    draws = model.sample_increments(rng, dt, n)
    for lam in (0.5, 1.0, 2.0):
        ecf = np.exp(1j * lam * draws).mean()
        target = np.exp(-dt * complex(model.psi(lam)))
        assert abs(ecf - target) < 4.0 / math.sqrt(n)


def test_sample_increment_scalar():
    rng = np.random.default_rng(5)
    v = BM.sample_increments(rng, 0.01, 1)
    assert v.shape == (1,) and v.dtype == float
    with pytest.raises(ValueError):
        BM.sample_increments(rng, -1.0, 3)


def test_condition_a_diagnostics():
    diag = models.check_condition_a(BM, 1.0)
    assert diag.finite
    assert diag.bound == pytest.approx(math.pi / math.sqrt(2.0), abs=5e-3)
    assert models.check_condition_a(ST, 1.0).finite
    assert models.check_condition_a(JD, 0.1).finite
    with pytest.raises(ValueError):
        models.check_condition_a(BM, 0.0)


def test_models_hashable_for_caching():
    assert models.brownian(1.0) == BM
    assert hash(models.brownian(1.0)) == hash(BM)
    assert models.brownian(2.0) != BM
