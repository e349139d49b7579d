"""Batched Hermitian eigensolver: one LAPACK ``eigh`` with a deterministic phase fix.

A stack of Hermitian matrices ``(..., m, m)`` is checked matrix by matrix,
symmetrized and handed to :func:`numpy.linalg.eigh` in a single call.  The
results are reordered to descending eigenvalues (ties keep the solver's
order) and every eigenvector's phase is fixed, so repeated runs agree
exactly and callers never see LAPACK's arbitrary unit-modulus factors.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .errors import NotHermitian

__all__ = ["hermitian_eig"]

#: Hermitian symmetry tolerance relative to the Frobenius norm.
HERMITIAN_TOL = 1e-10
#: Smallest eigenvector component eligible for deterministic phase fixing.
PHASE_FLOOR = 1e-12


def hermitian_eig(
    G: NDArray[np.complex128],
) -> tuple[NDArray[np.float64], NDArray[np.complex128]]:
    """Eigendecomposition of a Hermitian matrix or a stack of them.

    ``G`` has shape ``(..., m, m)``.  Returns ``(values, vectors)`` of
    shapes ``(..., m)`` and ``(..., m, m)``: per matrix, eigenvalues sorted
    descending and eigenvectors as the corresponding columns of a unitary
    matrix.  Ties keep their pre-sort order; each eigenvector's first
    component of magnitude above ``PHASE_FLOOR`` is rotated to the
    positive real axis so repeated runs agree exactly.

    Raises :class:`NotHermitian` when ``‖G - G*‖ > 1e-10 ‖G‖`` for any
    matrix of the stack and ``ValueError`` unless the last two axes are
    square.
    """
    a = np.asarray(G, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    adjoint = np.conj(np.swapaxes(a, -1, -2))
    norm = np.linalg.norm(a, axis=(-2, -1))
    defect = np.linalg.norm(a - adjoint, axis=(-2, -1))
    bad = defect > HERMITIAN_TOL * np.maximum(norm, 1e-300)
    if np.any(bad):
        where = "" if a.ndim == 2 else f" at stack index {np.argwhere(bad)[0].tolist()}"
        raise NotHermitian(f"matrix{where} is not Hermitian within tolerance")

    # Symmetrize the representable rounding, then solve every matrix at once.
    values, vectors = np.linalg.eigh(0.5 * (a + adjoint))
    order = np.argsort(-values, axis=-1, kind="stable")
    values = np.take_along_axis(values, order, axis=-1)
    vectors = np.take_along_axis(vectors, order[..., None, :], axis=-1)

    significant = np.abs(vectors) > PHASE_FLOOR
    first = np.argmax(significant, axis=-2)[..., None, :]
    lead = np.take_along_axis(vectors, first, axis=-2)
    magnitude = np.abs(lead)
    # Columns with no significant component (none in a unitary matrix) keep
    # their phase; the floor only keeps the division finite for them.
    phase = np.where(
        magnitude > PHASE_FLOOR, np.conj(lead) / np.maximum(magnitude, PHASE_FLOOR), 1.0
    )
    return values, vectors * phase
