import itertools

import numpy as np
import pytest

from qsense.sim.channels import Channel, DepolarizeOp, GateOp
from qsense.sim.pauli import PAULI_MATRICES, Observable, PauliString
from qsense.sim.states import (
    QuantumState,
    apply_matrix,
    apply_pauli_letters,
    apply_unitary,
    depolarize_global,
    depolarize_qubit,
    expectation,
    pauli_rotation,
)


def test_zero_state_invariants():
    QuantumState.zero(3).validate()
    QuantumState.zero(2, density=True).validate()


def test_state_shape_checks():
    with pytest.raises(ValueError):
        QuantumState(2, vector=np.ones(3))
    with pytest.raises(ValueError):
        QuantumState(1, vector=np.ones(2), matrix=np.eye(2))
    with pytest.raises(ValueError):
        QuantumState(1)


def test_validate_rejects_unnormalized():
    with pytest.raises(ValueError):
        QuantumState(1, vector=np.array([1.0, 1.0])).validate()
    bad = np.array([[0.5, 0.9], [0.9, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        QuantumState(1, matrix=bad).validate()


def _random_circuit(n, rng, depth=6):
    ops = []
    for _ in range(depth):
        kind = rng.integers(3)
        if kind == 0:
            ops.append(GateOp("ry", (int(rng.integers(n)),), (float(rng.uniform(0, 2 * np.pi)),)))
        elif kind == 1:
            ops.append(GateOp("rz", (int(rng.integers(n)),), (float(rng.uniform(0, 2 * np.pi)),)))
        else:
            q = int(rng.integers(n - 1))
            ops.append(GateOp("cnot", (q, q + 1)))
    return Channel(tuple(ops))


def test_channel_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(5)
    n = 3
    for trial in range(5):
        channel = _random_circuit(n, rng)
        tensor = QuantumState.zero(n, density=True).tensor()
        tensor = channel.apply(tensor, n, density=True, gate_noise=0.02)
        mat = tensor.reshape(2**n, 2**n)
        assert abs(np.trace(mat) - 1.0) < 1e-10
        assert np.abs(mat - mat.conj().T).max() < 1e-10
        QuantumState(n, matrix=mat).validate()


def test_explicit_depolarize_ops():
    n = 2
    tensor = QuantumState.zero(n, density=True).tensor()
    chan = Channel((GateOp("h", (0,)), DepolarizeOp(1.0, scope="global")))
    out = chan.apply(tensor, n, density=True).reshape(4, 4)
    np.testing.assert_allclose(out, np.eye(4) / 4.0, atol=1e-12)

    chan2 = Channel((DepolarizeOp(1.0, scope="local", targets=(0,)),))
    out2 = chan2.apply(QuantumState.zero(n, density=True).tensor(), n, density=True)
    # p=1 fully mixes qubit 0, leaving qubit 1 in |0><0|
    reduced = out2.reshape(4, 4)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[2, 2] = 0.5
    np.testing.assert_allclose(reduced, expected, atol=1e-12)


def test_noise_on_pure_path_rejected():
    chan = Channel((DepolarizeOp(0.1),))
    with pytest.raises(ValueError):
        chan.apply(QuantumState.zero(2).tensor(), 2, density=False)


def test_gate_validation():
    with pytest.raises(ValueError):
        GateOp("nope", (0,))
    with pytest.raises(ValueError):
        GateOp("cnot", (0, 0))
    with pytest.raises(ValueError):
        GateOp("ry", (0,))  # missing parameter
    with pytest.raises(ValueError):
        DepolarizeOp(1.5)
    with pytest.raises(ValueError):
        Channel((GateOp("h", (5,)),)).validate(2)


def test_expectation_matches_dense_oracle():
    rng = np.random.default_rng(11)
    n = 3
    channel = _random_circuit(n, rng, depth=8)
    tensor = channel.apply(QuantumState.zero(n).tensor(), n, density=False)
    vector = tensor.reshape(-1)
    obs = Observable(((0.4, PauliString("XZI")), (0.3, PauliString("IYX")), (0.3, PauliString("ZZZ"))))
    dense = vector.conj() @ obs.matrix() @ vector
    assert abs(expectation(tensor, obs, False) - dense.real) < 1e-12
    # the second moment is the expectation of O^2 = c + Q, whose terms do
    # not commute qubit-wise either
    second = vector.conj() @ obs.matrix() @ obs.matrix() @ vector
    constant, rest = obs.squared()
    assert abs(constant + expectation(tensor, rest, False) - second.real) < 1e-12


def test_density_expectation_matches_pure():
    rng = np.random.default_rng(13)
    n = 2
    channel = _random_circuit(n, rng)
    psi = channel.apply(QuantumState.zero(n).tensor(), n, False)
    rho = channel.apply(QuantumState.zero(n, density=True).tensor(), n, True)
    obs = Observable(((1.0, PauliString("XY")),))
    assert abs(expectation(psi, obs, False) - expectation(rho, obs, True)) < 1e-12
    _, rest = Observable(((0.6, PauliString("XY")), (0.4, PauliString("ZX")))).squared()
    assert abs(expectation(psi, rest, False) - expectation(rho, rest, True)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_letters_equal_matrix_contractions(n):
    rng = np.random.default_rng(17 + n)
    for density in (False, True):
        shape = [2] * (2 * n if density else n)
        tensor = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for letters in map("".join, itertools.product("IXYZ", repeat=n)):
            for offset in (0, n) if density else (0,):
                for conjugate in (False, True):
                    expected = tensor
                    for q, ch in enumerate(letters):
                        mat = PAULI_MATRICES[ch].conj() if conjugate else PAULI_MATRICES[ch]
                        expected = apply_matrix(expected, mat, (offset + q,))
                    out = apply_pauli_letters(tensor, letters, offset, conjugate)
                    assert np.array_equal(out, expected), (letters, offset, conjugate)
                    assert not np.shares_memory(out, tensor)


def _stack_kernels(n, density, thetas):
    """(name, batched kernel, per-state kernel) for every stack-aware
    kernel; the per-state kernel takes the state and its stack index."""
    gates = [(GateOp("ry", (n - 1,), (1.1,)).matrix(), (n - 1,))]
    if n > 1:
        gates.append((GateOp("cnot", (n - 1, 0)).matrix(), (n - 1, 0)))
    if n > 2:
        gates.append((GateOp("rxx", (0, 2), (0.4,)).matrix(), (0, 2)))
    kernels = []
    for mat, targets in gates:
        kernels.append((f"unitary{targets}",
                        lambda t, m=mat, q=targets: apply_unitary(t, m, q, n, density),
                        lambda t, k, m=mat, q=targets: apply_unitary(t, m, q, n, density)))
    for letters, sign in (("XYZ"[:n], 1), ("Y" * n, -1), ("I" * (n - 1) + "Z", 1)):
        kernels.append((f"rotation {letters}",
                        lambda t, p=letters, g=sign: pauli_rotation(t, p, g, thetas, n, density),
                        lambda t, k, p=letters, g=sign: pauli_rotation(
                            t, p, g, float(thetas[k]), n, density)))
        for offset in (0, n) if density else (0,):
            kernels.append((f"letters {letters}+{offset}",
                            lambda t, p=letters, o=offset: apply_pauli_letters(t, p, 1 + o, True),
                            lambda t, k, p=letters, o=offset: apply_pauli_letters(t, p, o, True)))
    if density:
        for q in range(n):
            kernels.append((f"depolarize {q}",
                            lambda t, q=q: depolarize_qubit(t, q, 0.03, n),
                            lambda t, k, q=q: depolarize_qubit(t, q, 0.03, n)))
        kernels.append(("depolarize global", lambda t: depolarize_global(t, 0.07, n),
                        lambda t, k: depolarize_global(t, 0.07, n)))
    return kernels


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("density", [False, True], ids=["pure", "density"])
def test_kernels_on_a_stack_equal_state_by_state(n, density):
    rng = np.random.default_rng(41 + n)
    batch = 5
    shape = [2] * (2 * n if density else n)
    stack = rng.normal(size=[batch] + shape) + 1j * rng.normal(size=[batch] + shape)
    one = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    broadcast = np.broadcast_to(one, stack.shape)  # read-only, stride 0 on the batch axis
    thetas = rng.uniform(-2 * np.pi, 4 * np.pi, batch)
    for name, batched, single in _stack_kernels(n, density, thetas):
        for source in (stack, broadcast):
            out = batched(source)
            expected = np.stack([single(state, k) for k, state in enumerate(source)])
            assert out.shape == source.shape, name
            assert np.array_equal(out, expected), name
            assert not np.shares_memory(out, source), name
