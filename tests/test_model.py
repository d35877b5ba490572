import numpy as np
import pytest
from hypothesis import given, strategies as st

from langmix.errors import (
    ConsistencyError,
    DecompositionMissingError,
    DimensionMismatchError,
    ParameterError,
)
from langmix.model import (
    ForceField,
    central_difference_jacobian,
    check_assumption_DF,
    check_assumption_main,
    force_from_config,
    make_gradient_force,
    make_linear_force,
    sample_ball,
)
from langmix.linear_stability import make_spec


def test_linear_force_symmetric_1d():
    ff = make_linear_force([[1.0]])
    q = np.array([1.3])
    assert ff.eval_F(q) == pytest.approx([1.3])
    assert float(ff.eval_U(q)) == pytest.approx(1.3**2 / 2)
    assert np.all(ff.eval_ell(q) == 0.0)
    assert ff.kind == "linear"


def test_linear_force_hand_decomposition():
    # M = [[1, -2], [2, 1]]: symmetric part I, skew part [[0, -2], [2, 0]]
    ff = make_linear_force([[1.0, -2.0], [2.0, 1.0]])
    q = np.array([0.7, -1.2])
    assert np.allclose(ff.eval_F(q), np.array([[1, -2], [2, 1]]) @ q)
    assert float(ff.eval_U(q)) == pytest.approx(0.5 * (q @ q))
    assert np.allclose(ff.eval_ell(q), [-2 * q[1], 2 * q[0]])
    # the split reassembles the force
    assert np.allclose(ff.eval_gradU(q) + ff.eval_ell(q), ff.eval_F(q))


def test_linear_force_nonsquare_rejected():
    with pytest.raises(DimensionMismatchError):
        make_linear_force([[0.0, 1.0]])


def test_linear_force_batches():
    ff = make_linear_force([[1.0, -2.0], [2.0, 1.0]])
    pts = np.random.default_rng(0).standard_normal((5, 2))
    assert ff.eval_F(pts).shape == (5, 2)
    assert ff.eval_DF(pts).shape == (5, 2, 2)
    assert ff.eval_U(pts).shape == (5,)


def test_gradient_force_harmonic():
    ff = make_gradient_force(
        2,
        U=lambda q: 0.5 * np.sum(np.asarray(q) ** 2, axis=-1),
        gradU=lambda q: np.asarray(q, dtype=float),
        hessU=lambda q: np.broadcast_to(np.eye(2), np.asarray(q).shape[:-1] + (2, 2)),
    )
    q = np.array([0.3, -0.4])
    assert np.allclose(ff.eval_F(q), q)
    assert np.allclose(ff.eval_DF(q), np.eye(2))
    assert np.all(ff.eval_ell(q) == 0.0)


def test_gradient_force_quartic_against_symbolic_derivative():
    # U = q^4/4 + q^2/2 so F = q^3 + q and DF = 3 q^2 + 1
    ff = force_from_config({"type": "builtin", "name": "quartic_well"})
    for q in (np.array([0.0]), np.array([0.8]), np.array([-1.7])):
        assert float(ff.eval_F(q)[0]) == pytest.approx(q[0] ** 3 + q[0])
        assert float(ff.eval_DF(q).reshape(())) == pytest.approx(3 * q[0] ** 2 + 1)


def test_polynomial_gradient_is_polyval_bit_for_bit():
    # the in-place Horner force repeats np.polyval's operations exactly
    ff = force_from_config({"type": "builtin", "name": "quartic_well"})
    rng = np.random.default_rng(3)
    q = rng.standard_normal((2000, 1)) * 10.0 ** rng.uniform(-200, 120, (2000, 1))
    q = np.vstack([q, [[0.0], [-0.0], [np.inf], [-np.inf], [np.nan]]])
    with np.errstate(over="ignore", invalid="ignore"):
        got = ff.eval_F(q)
        ref = np.polyval([1.0, 0.0, 1.0, 0.0], q)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_gradient_force_inconsistent_grad_rejected():
    with pytest.raises(ConsistencyError, match="gradU"):
        make_gradient_force(
            1,
            U=lambda q: 0.5 * np.sum(np.asarray(q) ** 2, axis=-1),
            gradU=lambda q: 2.0 * np.asarray(q, dtype=float),  # wrong factor
            hessU=lambda q: np.full(np.asarray(q).shape[:-1] + (1, 1), 2.0),
        )


def test_gradient_force_noncritical_origin_rejected():
    with pytest.raises(ConsistencyError, match="origin"):
        make_gradient_force(
            1,
            U=lambda q: np.sum(np.asarray(q), axis=-1),
            gradU=lambda q: np.ones_like(np.asarray(q, dtype=float)),
            hessU=lambda q: np.zeros(np.asarray(q).shape[:-1] + (1, 1)),
        )


def test_force_zero_at_origin():
    for cfg in (
        {"type": "linear", "matrix": [[1.0, -2.0], [2.0, 1.0]]},
        {"type": "builtin", "name": "quartic_well"},
    ):
        ff = force_from_config(cfg)
        assert np.allclose(ff.eval_F(np.zeros(ff.dim)), 0.0)


@pytest.mark.parametrize("h", [1e-3, 1e-4])
def test_jacobian_matches_centered_differences(h, quartic_spec):
    ff = quartic_spec.force
    q = np.array([0.9])
    fd = central_difference_jacobian(ff.eval_F, q, h)
    assert np.abs(fd - ff.eval_DF(q).reshape(1, 1)).max() < 50 * h**2


class TestAssumptionMain:
    def test_harmonic_margin_zero(self, harmonic_spec):
        # <F,q> - (2/3)(|q|^2 + |q|^2/2) vanishes identically
        rep = check_assumption_main(harmonic_spec, radius=2.0, n_samples=300)
        assert rep.holds_on_samples
        assert rep.worst_margin == pytest.approx(0.0, abs=1e-12)

    def test_origin_is_sampled(self, harmonic_spec):
        rep = check_assumption_main(harmonic_spec, radius=2.0, n_samples=64)
        # margin at the origin is exactly zero: U(0) = 0 and ell(0) = 0
        assert rep.worst_margin <= 0.0 + 1e-12

    def test_strong_rotation_fails(self):
        # M = [[1, -5], [5, 1]] with gamma = 1: gamma^2 a - b^2 = 1 - 25 < 0
        ff = make_linear_force([[1.0, -5.0], [5.0, 1.0]])
        # brute-force check that no admissible margin0 remains at these constants
        spec = make_spec(ff, gamma=1.0, alpha=0.3, beta=0.9)
        rep = check_assumption_main(spec, radius=2.0, n_samples=400)
        pts = sample_ball(2, 2.0, 400)
        margins = (
            np.sum(ff.eval_F(pts) * pts, axis=-1)
            - spec.alpha * (np.sum(pts**2, axis=-1) + ff.eval_U(pts))
            - np.sum(ff.eval_ell(pts) ** 2, axis=-1) / spec.beta**2
        )
        assert margins.min() < 0
        assert not rep.holds_on_samples
        assert rep.worst_margin == pytest.approx(margins.min())

    def test_quadratic_variant_checked_for_quadratic_potentials(self, harmonic_spec):
        rep = check_assumption_main(harmonic_spec, radius=2.0, n_samples=64)
        assert rep.quadratic_variant_holds is True

    def test_missing_decomposition_raises(self):
        ff = ForceField(
            dim=1,
            eval_F=lambda q: np.asarray(q, dtype=float),
            eval_DF=lambda q: np.ones(np.asarray(q).shape[:-1] + (1, 1)),
            kind="general",
        )
        spec = make_spec(ff, gamma=1.0, alpha=0.5, beta=0.5)
        with pytest.raises(DecompositionMissingError):
            check_assumption_main(spec, radius=1.0, n_samples=16)


class TestAssumptionDF:
    def test_linear_constant_jacobian(self):
        M = np.array([[1.0, -2.0], [2.0, 1.0]])
        spec = make_spec(make_linear_force(M), 3.0, 0.25, 2.6)
        rep = check_assumption_DF(spec, radius=2.0, n_samples=200)
        assert rep.rho_hat == 0.0
        assert rep.C_hat == pytest.approx(np.linalg.norm(M, 2))

    def test_radius_zero(self, quartic_spec):
        rep = check_assumption_DF(quartic_spec, radius=0.0, n_samples=50)
        assert rep.rho_hat == 0.0
        assert rep.C_hat == pytest.approx(1.0)  # DF(0) = 1

    def test_quartic_fit_matches_refit_oracle(self, quartic_spec):
        n = 300
        rep = check_assumption_DF(quartic_spec, radius=2.0, n_samples=n)
        # independent refit on the same deterministic sample set
        pts = sample_ball(1, 2.0, n)
        u = np.sum(pts**2, axis=-1)
        y = np.log(np.abs(3 * pts[:, 0] ** 2 + 1))
        slope, intercept = np.polyfit(u, y, 1)
        assert rep.rho_hat == pytest.approx(max(slope, 0.0), rel=1e-10)
        assert rep.C_hat == pytest.approx(np.exp(intercept), rel=1e-10)
        assert rep.rho_hat > 0.2  # genuine growth detected


def test_force_from_config_rejects_unknown_keys():
    with pytest.raises(ParameterError, match="unknown"):
        force_from_config({"type": "linear", "matrix": [[1.0]], "extra": 1})
    with pytest.raises(ParameterError):
        force_from_config({"type": "mystery"})


def test_polynomial_config_requires_critical_origin():
    with pytest.raises(ParameterError):
        force_from_config({"type": "polynomial_gradient", "coeffs": [0.0, 1.0, 0.5]})


@given(st.floats(0.1, 3.0), st.floats(0.1, 5.0))
def test_sample_ball_stays_inside(radius, _unused):
    pts = sample_ball(3, radius, 65)
    assert np.all(np.linalg.norm(pts, axis=1) <= radius + 1e-12)
    assert np.allclose(pts[0], 0.0)


def test_sample_ball_deterministic():
    a = sample_ball(2, 1.5, 33)
    b = sample_ball(2, 1.5, 33)
    assert np.array_equal(a, b)
