"""Hermitian eigensolver checks against closed forms and numpy."""
import math

import numpy as np
import pytest

from frftkit import FiberGrid, GramianField, NotHermitian, ThetaParam, hermitian_eig
from frftkit.eig import HERMITIAN_TOL
from helpers import closed_form_min_eigenvalues


def random_hermitian(n, seed):
    r = np.random.default_rng(seed)
    a = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
    return a + a.conj().T


def test_min_matrix_matches_closed_forms():
    m = np.minimum.outer(np.arange(1, 5), np.arange(1, 5)).astype(np.complex128)
    vals, vecs = hermitian_eig(m)
    closed = np.array(closed_form_min_eigenvalues())
    assert np.max(np.abs(vals - closed)) < 1e-10
    assert abs(vals.sum() - 10.0) < 1e-10
    # eigenpairs actually solve the problem
    for j in range(4):
        assert np.max(np.abs(m @ vecs[:, j] - vals[j] * vecs[:, j])) < 1e-10


def test_min_matrix_closed_forms_equal_trig_form():
    """Two independent scalar expressions for the same spectrum."""
    closed = closed_form_min_eigenvalues()
    trig = [1.0 / (4.0 * np.sin((2 * k - 1) * np.pi / 18) ** 2) for k in (1, 2, 3, 4)]
    assert np.max(np.abs(np.array(closed) - np.array(trig))) < 1e-12


def test_squared_min_matrix_spectrum():
    m = np.minimum.outer(np.arange(1, 5), np.arange(1, 5)).astype(float)
    vals, _ = hermitian_eig((m**2).astype(np.complex128))
    golden = np.array([23.841679, 3.768145, 1.704476, 0.685700])
    assert np.max(np.abs(vals - golden) / golden) < 1e-3
    assert abs(vals.sum() - 30.0) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_matches_numpy_on_random_hermitian(n, seed):
    a = random_hermitian(n, 10 * n + seed)
    vals, vecs = hermitian_eig(a)
    ref = np.sort(np.linalg.eigvalsh(a))[::-1]
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(vals - ref)) < 1e-10 * scale
    # descending order, unitary eigenvector matrix, small residuals
    assert np.all(np.diff(vals) <= 1e-12 * scale)
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(n))) < 1e-10
    assert np.max(np.abs(a @ vecs - vecs * vals)) < 1e-9 * scale


def test_deterministic_output():
    a = random_hermitian(6, 99)
    v1, u1 = hermitian_eig(a)
    v2, u2 = hermitian_eig(a)
    assert np.array_equal(v1, v2)
    assert np.array_equal(u1, u2)


def test_gramian_style_matrices_converge():
    """Products B^H B with clustered small entries must not stall."""
    for seed in range(40):
        r = np.random.default_rng(3000 + seed)
        b = r.standard_normal((5, 5)) + 1j * r.standard_normal((5, 5))
        a = b.conj().T @ b
        vals, vecs = hermitian_eig(a)
        assert np.all(vals >= -1e-10 * np.max(vals))
        assert np.max(np.abs(a @ vecs - vecs * vals)) < 1e-9 * np.max(np.abs(vals))


def test_degenerate_spectrum():
    a = 3.0 * np.eye(4, dtype=np.complex128)
    vals, vecs = hermitian_eig(a)
    assert np.max(np.abs(vals - 3.0)) < 1e-14
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(4))) < 1e-12


def test_trivial_sizes():
    vals, vecs = hermitian_eig(np.array([[2.5 + 0j]]))
    assert vals[0] == pytest.approx(2.5)
    assert abs(abs(vecs[0, 0]) - 1.0) < 1e-14
    vals, _ = hermitian_eig(np.zeros((3, 3), dtype=np.complex128))
    assert np.array_equal(vals, np.zeros(3))


def test_rejects_non_hermitian():
    a = np.array([[1.0, 2.0], [0.5, 1.0]], dtype=np.complex128)
    with pytest.raises(NotHermitian):
        hermitian_eig(a)


def test_rejects_non_square():
    with pytest.raises(ValueError):
        hermitian_eig(np.ones((2, 3), dtype=np.complex128))


def test_stack_matches_separate_solves():
    stack = np.stack([random_hermitian(4, 500 + s) for s in range(6)])
    vals, vecs = hermitian_eig(stack)
    assert vals.shape == (6, 4) and vecs.shape == (6, 4, 4)
    for s in range(6):
        v1, u1 = hermitian_eig(stack[s])
        scale = np.max(np.abs(v1))
        assert np.max(np.abs(vals[s] - v1)) < 1e-12 * scale
        assert np.max(np.abs(vecs[s] - u1)) < 1e-12
    # extra leading axes are carried through
    vals2, vecs2 = hermitian_eig(stack.reshape(2, 3, 4, 4))
    assert np.array_equal(vals2.reshape(6, 4), vals)
    assert np.array_equal(vecs2.reshape(6, 4, 4), vecs)


def test_stack_phase_fix():
    vals, vecs = hermitian_eig(np.stack([random_hermitian(5, 600 + s) for s in range(4)]))
    lead = vecs[:, 0, :]  # random matrices: the first component is significant
    assert np.all(np.abs(lead.imag) == 0.0)
    assert np.all(lead.real > 0.0)


def test_stack_of_scaled_identities_keeps_tie_order():
    vals, vecs = hermitian_eig(np.stack([3.0 * np.eye(4, dtype=np.complex128)] * 3))
    assert np.max(np.abs(vals - 3.0)) < 1e-14
    for s in range(3):
        assert np.max(np.abs(vecs[s] - np.eye(4))) < 1e-14


def test_stack_with_one_non_hermitian_matrix():
    stack = np.stack([random_hermitian(3, 700 + s) for s in range(4)])
    stack[2, 0, 1] += 1.0
    with pytest.raises(NotHermitian, match=r"\[2\]"):
        hermitian_eig(stack)


@pytest.mark.parametrize("shape", [(3,), (3, 2, 3), (2, 4, 3)])
def test_rejects_non_square_and_vector_inputs(shape):
    with pytest.raises(ValueError):
        hermitian_eig(np.ones(shape, dtype=np.complex128))


def test_each_matrix_is_held_to_its_own_norm():
    """A stack Hermitian within HERMITIAN_TOL of its global norm, but not of
    one small cell's own norm, is refused by the eigensolver and by a
    Gramian field alike, at that cell."""
    stack = np.stack([1e8 * np.eye(2), [[1.0, 1e-3], [0.0, 1.0]]]).astype(np.complex128)
    defect = np.linalg.norm(stack - stack.conj().swapaxes(1, 2))
    assert defect <= HERMITIAN_TOL * np.linalg.norm(stack)
    with pytest.raises(NotHermitian, match=r"matrix at stack index \[1\] is not Hermitian"):
        hermitian_eig(stack)
    with pytest.raises(NotHermitian, match=r"matrix at stack index \[1\] is not Hermitian"):
        GramianField(FiberGrid(ThetaParam(math.pi / 3), 1, 2, 1), stack)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)],
                         ids=["nan", "inf", "imag-inf"])
def test_non_finite_matrices_are_refused_before_the_solve(bad):
    """A non-finite entry is a ValueError that names its matrix, raised
    before any arithmetic on it (so no RuntimeWarning either)."""
    stack = np.stack([random_hermitian(3, 800 + s) for s in range(3)])
    stack[1, 0, 2] = bad
    with pytest.raises(ValueError, match=r"^matrix at stack index \[1\] has a non-finite entry$"):
        hermitian_eig(stack)
    with pytest.raises(ValueError, match="^matrix has a non-finite entry$"):
        hermitian_eig(stack[1])
