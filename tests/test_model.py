import inspect

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
    ModelSpec,
    central_difference_jacobian,
    check_assumption_DF,
    check_assumption_main,
    certify_coercivity,
    force_from_config,
    kappa0_constant,
    make_gradient_force,
    make_linear_force,
    sample_ball,
    select_lambda,
)
from langmix.harness import corpus_model_config


def test_linear_force_symmetric_1d():
    ff = make_linear_force([[1.0]])
    q = np.array([1.3])
    assert ff.eval_F(q) == pytest.approx([1.3])
    assert float(ff.eval_U(q)) == pytest.approx(1.3**2 / 2)
    assert np.all(ff.eval_ell(q) == 0.0)
    assert np.array_equal(ff.matrix, [[1.0]])


def test_linear_force_hand_decomposition():
    # M = [[1, -2], [2, 1]]: symmetric part I, skew part [[0, -2], [2, 0]]
    ff = make_linear_force([[1.0, -2.0], [2.0, 1.0]])
    q = np.array([0.7, -1.2])
    assert np.allclose(ff.eval_F(q), np.array([[1, -2], [2, 1]]) @ q)
    assert float(ff.eval_U(q)) == pytest.approx(0.5 * (q @ q))
    assert np.allclose(ff.eval_ell(q), [-2 * q[1], 2 * q[0]])
    # the split reassembles the force: F = grad U + ell, with grad U by finite differences
    assert np.allclose(central_difference_jacobian(ff.eval_U, q) + ff.eval_ell(q), ff.eval_F(q))


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
    ff = force_from_config(corpus_model_config("quartic")["force"])
    for q in (np.array([0.0]), np.array([0.8]), np.array([-1.7])):
        assert float(ff.eval_F(q)[0]) == pytest.approx(q[0] ** 3 + q[0])
        assert float(ff.eval_DF(q).reshape(())) == pytest.approx(3 * q[0] ** 2 + 1)


def test_polynomial_gradient_is_polyval_bit_for_bit():
    # the in-place Horner force repeats np.polyval's operations exactly
    ff = force_from_config(corpus_model_config("quartic")["force"])
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


def test_gradient_force_inconsistent_hessian_rejected():
    # the gradient passes its probe loop, the Hessian fails the second one
    with pytest.raises(ConsistencyError, match=r"^hessU disagrees with finite differences of gradU \(relative"):
        make_gradient_force(
            2,
            U=lambda q: 0.5 * np.sum(np.asarray(q) ** 2, axis=-1),
            gradU=lambda q: np.asarray(q, dtype=float),
            hessU=lambda q: np.broadcast_to(3.0 * np.eye(2), np.asarray(q).shape[:-1] + (2, 2)),
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
        corpus_model_config("quartic")["force"],
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
        spec = ModelSpec(ff, gamma=1.0, alpha=0.3, beta=0.9)
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


def _margin(spec, q):
    """<F(q), q> - alpha (|q|^2 + U(q)) evaluated from the force's own evaluators, at one point."""
    ff = spec.force
    return float(np.dot(ff.eval_F(q), q) - spec.alpha * (np.dot(q, q) + ff.eval_U(q)))


def _polynomial_spec(coeffs):
    return ModelSpec(force_from_config({"type": "polynomial_gradient", "coeffs": coeffs}), 1.5, alpha=2 / 3, beta=0.75)


class TestCertifyCoercivity:
    def test_quartic_is_certified(self, quartic_spec):
        # alpha = 2/3 cancels the q^2 terms, so the minimum of s sits at rounding level
        cert = certify_coercivity(quartic_spec)
        assert cert.certified and cert.witness is None
        assert abs(cert.min_s) < 1e-15

    @pytest.mark.parametrize(
        "coeffs",
        [
            [0.0, 0.0, 0.5, 0.0, 0.001, 0.0, -1e-6],  # unbounded below: U(40) < 0
            [0.0, 0.0, 0.5, 0.1],  # odd degree
            [0.0, 0.0, -0.5, 0.0, 0.25],  # double well: bounded below, negative near 0
            [0.0, 0.0, 0.3, 0.0, 0.25],  # bounded below, q^2 term below the coercivity constant
        ],
        ids=["sextic_unbounded", "cubic", "double_well", "weak_quadratic"],
    )
    def test_refutation_names_a_point_with_negative_margin(self, coeffs):
        spec = _polynomial_spec(coeffs)
        cert = certify_coercivity(spec)
        assert not cert.certified
        assert cert.margin < 0 and _margin(spec, cert.witness) == pytest.approx(cert.margin, rel=1e-9)

    def test_sextic_is_refuted_beyond_its_largest_root(self):
        # s(q) = (4 - alpha) 1e-3 q^2 - (6 - alpha) 1e-6 q^4 has its largest root at 25
        cert = certify_coercivity(_polynomial_spec([0.0, 0.0, 0.5, 0.0, 0.001, 0.0, -1e-6]))
        assert cert.min_s == -np.inf
        assert abs(cert.witness[0]) == pytest.approx(26.0)
        assert cert.margin == pytest.approx(-124.297472)

    def test_agrees_with_the_sampled_check_where_samples_reach(self):
        # the double well's negative margin lies inside the unit ball, where sampling finds it too
        spec = _polynomial_spec([0.0, 0.0, -0.5, 0.0, 0.25])
        assert not check_assumption_main(spec, radius=1.0, n_samples=256).holds_on_samples
        assert not certify_coercivity(spec).certified

    def test_needs_a_coefficient_table(self, harmonic_spec):
        with pytest.raises(DecompositionMissingError):
            certify_coercivity(harmonic_spec)

    def test_quadratic_growth_follows_the_tables(self, harmonic_spec, quartic_spec):
        assert harmonic_spec.force.quadratic_growth
        assert not quartic_spec.force.quadratic_growth
        assert _polynomial_spec([0.0, 0.0, 0.5, 0.0, 0.0]).force.quadratic_growth


# lam, kappa0 and kappa of every corpus model, as the four-input constructor derives them
_CORPUS_CONSTANTS = {
    "lin1d_complex": (0.2475, 28.255758766459536, 798.3879034683549),
    "lin1d_real": (0.5371471633212253, 18.0, 324.0),
    "lin1d_critical": (0.495, 8.0, 64.0),
    "lin2d_rot": (0.1753531010230276, 18.0, 324.0),
    "lin2d_nongrad": (0.33472394617639717, 18.0, 324.0),
    "quartic": (0.37124999999999997, 12.558115007315344, 157.70625253695886),
}


class TestModelSpec:
    def test_takes_exactly_its_four_inputs(self):
        assert list(inspect.signature(ModelSpec).parameters) == ["force", "gamma", "alpha", "beta"]

    @pytest.mark.parametrize("name", sorted(_CORPUS_CONSTANTS))
    def test_derives_the_certificate_constants(self, name):
        cfg = corpus_model_config(name)
        spec = ModelSpec(force_from_config(cfg["force"]), cfg["gamma"], cfg["alpha"], cfg["beta"])
        lam = select_lambda(cfg["alpha"], cfg["beta"], cfg["gamma"])
        kappa0 = kappa0_constant(cfg["gamma"], lam)
        assert (spec.lam, spec.kappa0, spec.kappa) == (lam, kappa0, kappa0**2) == _CORPUS_CONSTANTS[name]

    @pytest.mark.parametrize(
        "gamma, alpha, beta, message",
        [(0.0, 0.5, 0.5, "friction gamma"), (1.0, 0.0, 0.5, "alpha"), (1.0, 0.5, 1.0, "beta")],
        ids=["gamma", "alpha", "beta"],
    )
    def test_refuses_inputs_without_an_admissible_rate(self, gamma, alpha, beta, message):
        with pytest.raises(ParameterError, match=message):
            ModelSpec(make_linear_force([[1.0]]), gamma, alpha, beta)


def test_builtin_force_type_is_gone():
    with pytest.raises(ParameterError, match="unknown force type 'builtin'"):
        force_from_config({"type": "builtin", "name": "quartic_well"})


class TestAssumptionDF:
    def test_linear_constant_jacobian(self):
        M = np.array([[1.0, -2.0], [2.0, 1.0]])
        spec = ModelSpec(make_linear_force(M), 3.0, 0.25, 2.6)
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

    def test_one_batched_norm_call_gives_the_bits_of_the_per_matrix_loop(self):
        # a coupled 2-d quartic: DF(q) = diag(3 q^2 + 1) + the coupling, a 2x2 norm per sample
        K = np.array([[0.0, 0.25], [0.25, 0.0]])
        ff = make_gradient_force(
            2,
            U=lambda q: np.sum(q**4 / 4 + q**2 / 2, axis=-1) + 0.25 * q[..., 0] * q[..., 1],
            gradU=lambda q: q**3 + q + q @ K,
            hessU=lambda q: (3 * q**2 + 1)[..., None] * np.eye(2) + K,
        )
        spec = ModelSpec(ff, 1.5, 0.25, 0.75)
        rep = check_assumption_DF(spec, radius=2.0, n_samples=300)
        pts = sample_ball(2, 2.0, 300)
        norms = np.maximum(np.array([np.linalg.norm(J, 2) for J in ff.eval_DF(pts)]), 1e-300)
        u = np.sum(pts * pts, axis=-1)
        slope, intercept = np.polyfit(u, np.log(norms), 1)
        assert rep.rho_hat == max(slope, 0.0) > 0.0 and rep.C_hat == np.exp(intercept)
        assert rep.max_ratio == np.max(norms / (rep.C_hat * np.exp(rep.rho_hat * u)))


def test_force_from_config_rejects_unknown_keys():
    with pytest.raises(ParameterError, match="unknown"):
        force_from_config({"type": "linear", "matrix": [[1.0]], "extra": 1})
    with pytest.raises(ParameterError):
        force_from_config({"type": "mystery"})


def test_polynomial_config_requires_critical_origin():
    with pytest.raises(ParameterError):
        force_from_config({"type": "polynomial_gradient", "coeffs": [0.0, 1.0, 0.5]})


@given(st.integers(1, 5), st.floats(0.1, 3.0), st.integers(2, 300))
def test_sample_ball_stays_inside(dim, radius, n):
    pts = sample_ball(dim, radius, n)
    assert pts.shape == (n, dim)
    assert np.all(np.isfinite(pts))
    assert np.all(np.linalg.norm(pts, axis=1) <= radius * (1 + 1e-12))
    assert np.array_equal(pts[0], np.zeros(dim))
    assert np.all(np.linalg.norm(pts[1:], axis=1) > 0.0)


def test_sample_ball_deterministic():
    a = sample_ball(2, 1.5, 33)
    b = sample_ball(2, 1.5, 33)
    assert np.array_equal(a, b)
    # no seed and no power-of-two draw: a longer set extends a shorter one
    assert np.array_equal(sample_ball(2, 1.5, 100)[:33], a)


@pytest.mark.parametrize("n", [4, 9, 65])
def test_sample_ball_1d_has_both_signs(n):
    # from three points on; the first two fall on the negative side
    pts = sample_ball(1, 2.0, n)[1:, 0]
    assert np.any(pts > 0) and np.any(pts < 0)
    # 1-d directions are +-1, so the drift-metric radius sees both sides
    assert np.array_equal(np.abs(np.sign(pts)), np.ones(n - 1))


def test_sample_ball_spreads_over_the_ball():
    # the volume-uniform profile: a fraction 2^-dim of the points lies in the
    # half-radius ball, and directions cover every orthant
    pts = sample_ball(2, 1.0, 1025)[1:]
    inner = np.mean(np.linalg.norm(pts, axis=1) < 0.5)
    assert inner == pytest.approx(0.25, abs=0.02)
    orthants = np.unique(np.sign(pts), axis=0, return_counts=True)[1]
    assert len(orthants) == 4 and orthants.min() > 200
