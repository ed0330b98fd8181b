"""Dense statevector / density-matrix representation and low-level updates.

``QuantumState`` is the validated, immutable wrapper for users.  The
simulator itself passes raw ndarrays shaped ``[2] * n`` (statevector) or
``[2] * 2n`` (density tensor, row axes first) between its layers, and has
one kernel per operation that takes such a tensor and a ``density`` flag.
On a density tensor an operator acts on the row axes and its complex
conjugate on the column axes, so U gives U rho U^dagger.  Every kernel
returns a new array, except that a depolarizing step with p = 0 returns
its input.

A tensor may carry leading batch axes, for example ``(B, 2, ..., 2)``
for B encoding angles: the kernels find the qubit axes among the trailing
``n`` (statevector) or ``2n`` (density) axes, ``lead = tensor.ndim - n``
or ``tensor.ndim - 2n`` axes in, and treat every leading index as its own
state.  ``pauli_rotation`` then takes one angle per batch entry.  A stack
gives each state the same values as running it alone (``apply_unitary``
runs the states of a stack one by one where a joint BLAS product would
round them differently); the readout (``expectation``) takes one
unbatched state.  ``setups`` builds the
stacks and bounds each at ``MAX_STACK_AMPLITUDES`` = 2**14 amplitudes
(256 KiB), so a stack never outgrows one 7-qubit density tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import Observable

# the nonzero entries of Z and Y (after Y's flip), and of their conjugates
_PHASES = {
    ("Z", False): np.array([1.0, -1.0], dtype=complex),
    ("Z", True): np.array([1.0, -1.0], dtype=complex),
    ("Y", False): np.array([-1.0j, 1.0j]),
    ("Y", True): np.array([1.0j, -1.0j]),
}


class DimensionLimitError(ValueError):
    """Requested simulation exceeds the configured qubit cap."""


@dataclass(frozen=True)
class QuantumState:
    """A pure state (amplitude vector of length 2**n) or a mixed state
    (2**n x 2**n density matrix) over ``n`` qubits."""

    n: int
    vector: np.ndarray | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        if (self.vector is None) == (self.matrix is None):
            raise ValueError("provide exactly one of vector or matrix")
        dim = 2**self.n
        if self.vector is not None:
            v = np.asarray(self.vector, dtype=complex).reshape(-1)
            if v.shape != (dim,):
                raise ValueError(f"vector length {v.shape} != 2**{self.n}")
            v = v.copy()
            v.flags.writeable = False
            object.__setattr__(self, "vector", v)
        else:
            m = np.asarray(self.matrix, dtype=complex)
            if m.shape != (dim, dim):
                raise ValueError(f"matrix shape {m.shape} != (2**{self.n},)*2")
            m = m.copy()
            m.flags.writeable = False
            object.__setattr__(self, "matrix", m)

    @property
    def is_pure(self) -> bool:
        return self.vector is not None

    @classmethod
    def zero(cls, n: int, density: bool = False) -> "QuantumState":
        dim = 2**n
        if density:
            m = np.zeros((dim, dim), dtype=complex)
            m[0, 0] = 1.0
            return cls(n, matrix=m)
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
        return cls(n, vector=v)

    def tensor(self) -> np.ndarray:
        """Writable tensor copy: shape [2]*n (pure) or [2]*2n (density)."""
        if self.is_pure:
            return self.vector.reshape([2] * self.n).copy()
        return self.matrix.reshape([2] * (2 * self.n)).copy()

    def validate(self) -> None:
        """Check the physical-state invariants; raises ValueError on failure."""
        if self.is_pure:
            norm = float(np.sum(np.abs(self.vector) ** 2))
            if abs(norm - 1.0) > 1e-12:
                raise ValueError(f"squared-amplitude sum {norm} is not 1")
            return
        m = self.matrix
        if np.abs(m - m.conj().T).max() > 1e-12:
            raise ValueError("density matrix is not Hermitian")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"trace {tr} is not 1")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -1e-10:
            raise ValueError(f"negative eigenvalue {eigs.min()}")


def apply_matrix(tensor: np.ndarray, mat: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Left-multiply ``mat`` onto the given tensor axes (one axis per qubit)."""
    k = len(axes)
    m = mat.reshape([2] * (2 * k))
    t = np.tensordot(m, tensor, axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(t, tuple(range(k)), axes)


def _lead(tensor: np.ndarray, n: int, density: bool) -> int:
    """The number of leading batch axes in front of the qubit axes."""
    return tensor.ndim - (2 * n if density else n)


def apply_unitary(
    tensor: np.ndarray, mat: np.ndarray, targets: tuple[int, ...], n: int, density: bool
) -> np.ndarray:
    """U on the target qubits: U psi, or U rho U^dagger on a density tensor.

    The contraction is one BLAS product whose columns are the states'
    untouched amplitudes.  BLAS rounds the trailing columns of a product
    whose column count is not a multiple of 4 in a separate kernel, so a
    stack whose states leave fewer than two qubit axes untouched (1- and
    2-qubit statevectors, a 2-qubit gate on a 3-qubit statevector, 1-qubit
    density tensors) runs state by state.
    """
    lead = _lead(tensor, n, density)
    if lead and tensor.ndim - lead - len(targets) < 2:
        return np.stack([apply_unitary(t, mat, targets, n, density) for t in tensor])
    tensor = apply_matrix(tensor, mat, tuple(lead + q for q in targets))
    if density:
        tensor = apply_matrix(tensor, mat.conj(), tuple(lead + n + q for q in targets))
    return tensor


def apply_pauli_letters(
    tensor: np.ndarray, letters: str, axis_offset: int = 0, conjugate: bool = False
) -> np.ndarray:
    """Apply the single-qubit matrices of a Pauli letter string (sign excluded).

    Each letter acts on axis ``axis_offset + q`` as an index operation: X
    flips the axis, Z multiplies it by [1, -1], and Y flips it and then
    multiplies by [-i, i] ([i, -i] with ``conjugate``).  Every product is
    with 0, +/-1 or +/-i, which is exact in floating point, so the result
    has the same values as contracting the 2x2 matrices of PAULI_MATRICES.
    The result is a new array, never a view of ``tensor``.
    """
    flips = tuple(axis_offset + q for q, ch in enumerate(letters) if ch in "XY")
    out = np.flip(tensor, flips)
    phased = False
    for q, ch in enumerate(letters):
        if ch in "YZ":
            axis = axis_offset + q
            phase = _PHASES[ch, conjugate].reshape((2,) + (1,) * (out.ndim - axis - 1))
            out = out * phase
            phased = True
    return out if phased else out.astype(complex)


def _scaled(factor, fresh: np.ndarray) -> np.ndarray:
    """factor * fresh, written over ``fresh`` (an array no one else holds)."""
    return np.multiply(factor, fresh, out=fresh)


def pauli_rotation(
    tensor: np.ndarray, letters: str, sign: int, theta, n: int, density: bool
) -> np.ndarray:
    """exp(-i theta P / 2) applied to a state, for an involutory signed Pauli
    string P: on the row axes, and conjugated on the column axes of a
    density tensor.

    ``theta`` is a float, or a 1-D array of one angle per entry of a
    ``(B, 2, ..., 2)`` stack.  Each angle's cos and sin come from ``math``
    and its coefficient ``1j * sign * sin`` is formed as a Python complex,
    so every entry gets the values of the call with that angle alone.  The
    products are written over the arrays that hold them, which saves a
    state-sized temporary per step.
    """
    lead = _lead(tensor, n, density)
    shape = np.shape(theta) + (1,) * (tensor.ndim - lead)
    c = np.array([math.cos(t / 2.0) for t in np.ravel(theta)], dtype=complex).reshape(shape)
    s = np.array([1j * sign * math.sin(t / 2.0) for t in np.ravel(theta)]).reshape(shape)
    out = np.multiply(c, tensor)
    np.subtract(out, _scaled(s, apply_pauli_letters(tensor, letters, lead)), out=out)
    if density:
        turned = _scaled(s, apply_pauli_letters(out, letters, lead + n, conjugate=True))
        np.multiply(c, out, out=out)
        np.add(out, turned, out=out)
    return out


def expectation(tensor: np.ndarray, obs: Observable, density: bool) -> float:
    """<O> = Tr[rho O], term by term without building O: vdot(psi, P psi)
    on a statevector, the trace of P rho on a density tensor."""
    dim = 2**obs.n_qubits
    total = 0.0
    for w, p in obs.terms:
        prod = apply_pauli_letters(tensor, p.letters)
        value = np.trace(prod.reshape(dim, dim)) if density else np.vdot(tensor, prod)
        total += w * p.sign * value.real
    return float(total)


def depolarize_qubit(rho: np.ndarray, q: int, p: float, n: int) -> np.ndarray:
    """Single-qubit depolarizing channel on a density tensor.

    With probability p the qubit is replaced by the maximally mixed state
    (so p = 1 fully mixes it), matching the global-step convention:
    rho -> (1 - 3p/4) rho + (p/4) sum_P P rho P over P in {X, Y, Z}.
    """
    if p == 0.0:
        return rho
    lead = _lead(rho, n, True)
    out = (1.0 - 0.75 * p) * rho
    for ch in "XYZ":
        t = apply_pauli_letters(rho, "I" * q + ch, axis_offset=lead)
        t = apply_pauli_letters(t, "I" * q + ch, axis_offset=lead + n, conjugate=True)
        out = out + (p / 4.0) * t
    return out


def depolarize_global(rho: np.ndarray, p: float, n: int) -> np.ndarray:
    """rho -> (1-p) rho + p I / 2**n on a density tensor."""
    if p == 0.0:
        return rho
    dim = 2**n
    batch = rho.shape[: _lead(rho, n, True)]
    flat = (1.0 - p) * rho.reshape(batch + (dim, dim))
    flat = flat + (p / dim) * np.eye(dim)
    return flat.reshape(batch + (2,) * (2 * n))
