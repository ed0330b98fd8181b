import numpy as np
import pytest

from qsense.sim.pauli import (
    EncodingHamiltonian,
    Observable,
    PauliString,
    UnsupportedMeasurementError,
)


def random_string(rng, n):
    return PauliString("".join(rng.choice(list("IXYZ"), size=n)), int(rng.choice([1, -1])))


def test_square_matrix_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = random_string(rng, 3)
        np.testing.assert_allclose(p.matrix() @ p.matrix(), np.eye(8), atol=1e-12)


def test_commutation_matches_matrix_commutator():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = random_string(rng, 3)
        b = random_string(rng, 3)
        comm = a.matrix() @ b.matrix() - b.matrix() @ a.matrix()
        assert a.commutes(b) == bool(np.allclose(comm, 0.0, atol=1e-12))


def test_parse_round_trip():
    for text in ["XZIY", "-ZZ", "I"]:
        assert str(PauliString.parse(text)) == text


def test_on_places_letters_on_given_qubits():
    assert PauliString.on("Z", (1,), 4) == PauliString("IZII")
    assert PauliString.on("X", (0, 3), 4) == PauliString("XIIX")
    assert PauliString.on("Y", range(3), 3) == PauliString("YYY")
    for qubit in (-1, 4):
        with pytest.raises(ValueError, match="qubit"):
            PauliString.on("Z", (qubit,), 4)


def test_invalid_letters_and_sign_rejected():
    with pytest.raises(ValueError):
        PauliString("XA")
    with pytest.raises(ValueError):
        PauliString("X", sign=2)
    with pytest.raises(ValueError):
        PauliString("")
    with pytest.raises(ValueError, match="string"):
        PauliString.parse(["X", "Z"])  # a JSON list, not letters


def test_observable_weight_cap_enforced():
    x = PauliString("X")
    z = PauliString("Z")
    Observable(((0.5, x), (0.5, z)))  # exactly 1 is allowed
    with pytest.raises(ValueError):
        Observable(((0.8, x), (0.4, z)))


def test_observable_matrix_oracle():
    obs = Observable(((0.25, PauliString("XX")), (0.5, PauliString("ZI")), (0.25, PauliString("IY"))))
    explicit = (
        0.25 * PauliString("XX").matrix()
        + 0.5 * PauliString("ZI").matrix()
        + 0.25 * PauliString("IY").matrix()
    )
    np.testing.assert_allclose(obs.matrix(), explicit, atol=1e-14)


def test_measurement_letters_and_diagonal():
    obs = Observable(((0.5, PauliString("XI")), (0.5, PauliString("XX"))))
    assert obs.measurement_letters() == "XX"
    diag = obs.measurement_diagonal()
    # bitstrings 00,01,10,11: 0.5*(-1)^b0 + 0.5*(-1)^(b0+b1)
    np.testing.assert_allclose(diag, [1.0, 0.0, -1.0, 0.0])


def test_qubitwise_conflict_detected():
    obs = Observable(((0.5, PauliString("XX")), (0.5, PauliString("YY"))))
    # XX and YY commute as operators but clash qubit-wise
    assert PauliString("XX").commutes(PauliString("YY"))
    with pytest.raises(UnsupportedMeasurementError):
        obs.measurement_letters()


def test_encoding_requires_commuting_terms():
    with pytest.raises(ValueError):
        EncodingHamiltonian((PauliString("XI"), PauliString("ZI")))
    ham = EncodingHamiltonian((PauliString("ZI"), PauliString("IZ"), PauliString("ZZ")))
    assert len(ham) == 3


def test_encoding_allows_negative_signs():
    ham = EncodingHamiltonian((PauliString("ZI", -1), PauliString("IZ")))
    assert ham.terms[0].sign == -1


def _random_observable(rng, n):
    count = int(rng.integers(1, 7))
    strings = [random_string(rng, n) for _ in range(count)]
    if count > 1 and rng.random() < 0.5:  # a repeated string, maybe with the other sign
        strings[-1] = PauliString(strings[0].letters, int(rng.choice([1, -1])))
    weights = rng.uniform(-1.0, 1.0, count)
    weights /= np.abs(weights).sum() * rng.uniform(1.0, 1.5)
    return Observable(tuple(zip(weights, strings)))


def _assert_square(obs):
    constant, rest = obs.squared()
    dense = constant * np.eye(2**obs.n_qubits) + (0.0 if rest is None else rest.matrix())
    assert np.abs(dense - obs.matrix() @ obs.matrix()).max() < 1e-15
    total = sum(abs(w) for w, _ in obs.terms)
    cap = total**2 - sum(w * w for w, _ in obs.terms)
    assert rest is None or sum(abs(w) for w, _ in rest.terms) <= cap + 1e-15


def test_squared_matches_dense_square():
    rng = np.random.default_rng(29)
    for _ in range(200):
        _assert_square(_random_observable(rng, int(rng.integers(1, 5))))
    # terms that do not commute qubit-wise, and pairs that anticommute
    _assert_square(Observable(((0.4, PauliString("XZI")), (0.3, PauliString("IYX")),
                               (0.3, PauliString("ZZZ")))))
    _assert_square(Observable(((0.5, PauliString("X")), (-0.5, PauliString("Y")))))


def test_squared_of_single_pauli_and_repeated_strings():
    for sign in (1, -1):
        assert Observable(((1.0, PauliString("XZ", sign)),)).squared() == (1.0, None)
    assert Observable(((-1.0, PauliString("Y")),)).squared() == (1.0, None)
    # X and -X: (0.5 X - 0.5 X)^2 = 0, all of it in the constant
    cancelling = Observable(((0.5, PauliString("X")), (0.5, PauliString("X", -1))))
    assert cancelling.squared() == (0.0, None)
    # anticommuting X and Z square to the identity: (X + Z)^2 / 4 = I / 2
    assert Observable(((0.5, PauliString("X")), (0.5, PauliString("Z")))).squared() == (0.5, None)
    constant, rest = Observable(((0.5, PauliString("XI")), (0.5, PauliString("IX")))).squared()
    assert constant == 0.5 and rest.terms == ((0.5, PauliString("XX")),)
