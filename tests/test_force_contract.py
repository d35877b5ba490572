"""Every force the library builds honours the `ForceField` contract, which its consumers trust without converting.

The four evaluators take q of shape (..., d) and return float64 arrays: F
and ell of shape (..., d), DF of shape (..., d, d) and U of shape (...); U
at a single point may be a numpy float64 scalar, of shape () as well.
`make_gradient_force` is the one place where foreign callables are brought
to the contract, so it is fed callables that return lists and integers.
`drift_matrix` builds one A(q) per position of a stack, each with the bits
of its own call.
"""

import numpy as np
import pytest

from langmix.harness import STABLE_CORPUS, corpus_spec
from langmix.model import ModelSpec, central_difference_jacobian, drift_matrix, make_gradient_force, make_linear_force

_LEADING = [(), (5,), (4, 3)]


def _library_forces():
    forces = {name: corpus_spec(name).force for name in STABLE_CORPUS}
    forces["linear_3x3"] = make_linear_force(np.random.default_rng(0).standard_normal((3, 3)))
    return forces


def _foreign_forces():
    """make_gradient_force on callables whose values are lists or integer arrays."""
    eye2 = lambda q: np.broadcast_to(np.eye(2), np.shape(q)[:-1] + (2, 2))
    return {
        "lists": make_gradient_force(
            2,
            U=lambda q: (0.5 * np.sum(np.square(q), axis=-1)).tolist(),
            gradU=lambda q: np.asarray(q, dtype=float).tolist(),
            hessU=lambda q: eye2(q).tolist(),
        ),
        "int_hessian_without_its_last_axis": make_gradient_force(
            1,
            U=lambda q: 0.5 * np.sum(np.square(q), axis=-1),
            gradU=lambda q: np.asarray(q, dtype=float),
            hessU=lambda q: np.ones(np.shape(q), dtype=int),
        ),
        "int_zero": make_gradient_force(
            2,
            U=lambda q: np.zeros(np.shape(q)[:-1], dtype=int),
            gradU=lambda q: np.zeros(np.shape(q), dtype=int),
            hessU=lambda q: np.zeros(np.shape(q)[:-1] + (2, 2), dtype=int),
        ),
    }


def _assert_contract(ff, leading):
    d = ff.dim
    q = np.random.default_rng(1).uniform(-1.5, 1.5, leading + (d,))
    for evaluator, shape in ((ff.eval_F, (d,)), (ff.eval_DF, (d, d)), (ff.eval_U, ()), (ff.eval_ell, (d,))):
        value = evaluator(q)
        assert isinstance(value, (np.ndarray, np.float64)) and value.dtype == np.float64
        assert value.shape == leading + shape


@pytest.mark.parametrize("leading", _LEADING, ids=["point", "stack", "grid"])
@pytest.mark.parametrize("name", sorted(_library_forces()))
def test_library_forces_return_float_arrays_of_the_contract_shapes(name, leading):
    _assert_contract(_library_forces()[name], leading)


@pytest.mark.parametrize("leading", _LEADING[:2], ids=["point", "stack"])
@pytest.mark.parametrize("name", sorted(_foreign_forces()))
def test_wrapped_callables_return_float_arrays_of_the_contract_shapes(name, leading):
    _assert_contract(_foreign_forces()[name], leading)


@pytest.mark.parametrize("name", sorted(_library_forces()))
def test_the_split_reassembles_the_force(name):
    ff = _library_forces()[name]
    q = np.linspace(-0.9, 0.8, ff.dim)
    assert np.allclose(central_difference_jacobian(ff.eval_U, q) + ff.eval_ell(q), ff.eval_F(q), atol=1e-8)


@pytest.mark.parametrize("name", sorted(_library_forces()))
def test_drift_matrix_of_a_stack_is_the_stack_of_drift_matrices(name):
    spec = ModelSpec(_library_forces()[name], gamma=1.5, alpha=0.25, beta=0.75)
    d = spec.dim
    q = np.random.default_rng(2).uniform(-2.0, 2.0, (7, d))
    stacked = drift_matrix(spec, q)
    rows = np.stack([drift_matrix(spec, r) for r in q])
    assert stacked.shape == (7, 2 * d, 2 * d) and stacked.dtype == np.float64
    assert stacked.tobytes() == rows.tobytes()
    assert drift_matrix(spec, q.reshape(7, 1, d)).shape == (7, 1, 2 * d, 2 * d)
