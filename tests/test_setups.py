import dataclasses
import math

import numpy as np
import pytest

from qsense.sim import (
    SETUP_KINDS,
    DimensionLimitError,
    Observable,
    PauliString,
    SensingSetup,
    UnsupportedMeasurementError,
    build_ghz_setup,
    build_random_ansatz_setup,
    build_setup,
    build_squeezing_setup,
    exact_response,
    sample_response,
    sample_rows,
    setup_from_json,
    setup_to_json,
)
from qsense.inference import sensitivity
from qsense.sim import setups
from qsense.sim.channels import Channel, DepolarizeOp, GateOp
from qsense.sim.pauli import EncodingHamiltonian
from qsense.sim.setups import _encode, _prepare
from qsense.sim.states import QuantumState, pauli_rotation
from qsense.trig import SampleVector, coeffs_closed_form, equidistant_nodes

ALL_BUILDERS = [
    lambda noise=0.0: build_ghz_setup(3, noise=noise),
    lambda noise=0.0: build_squeezing_setup(3, noise=noise),
    lambda noise=0.0: build_random_ansatz_setup(3, layers=2, seed=5, noise=noise),
]


def _held_out_residual(setup, rng, count=100):
    nodes = equidistant_nodes(setup.encoding_degree)
    vals = [exact_response(setup, t) for t in nodes]
    poly = coeffs_closed_form(SampleVector(nodes, vals))
    thetas = rng.uniform(0.0, 2.0 * math.pi, count)
    return max(abs(exact_response(setup, t) - poly.evaluate(t)) for t in thetas)


def test_ghz_single_qubit_is_cosine():
    setup = build_ghz_setup(1)
    for theta in np.linspace(0, 2 * math.pi, 17):
        assert abs(exact_response(setup, theta) - math.cos(theta)) < 1e-12


def test_ghz_four_qubits_is_cos_4theta():
    setup = build_ghz_setup(4)
    for theta in np.linspace(0, 2 * math.pi, 41):
        assert abs(exact_response(setup, theta) - math.cos(4 * theta)) < 1e-12


def test_noisy_ghz_contracts_and_stays_bounded():
    setup = build_ghz_setup(3, noise=0.01)
    assert exact_response(setup, 0.0) < 1.0
    rng = np.random.default_rng(2)
    for theta in rng.uniform(0, 2 * math.pi, 100):
        assert abs(exact_response(setup, theta)) <= 1.0 + 1e-12


def test_ghz_rejects_zero_qubits():
    with pytest.raises(ValueError):
        build_ghz_setup(0)


def test_squeezing_two_qubits_analytic():
    # exp(-i theta X1X2 / 2)|00> gives <Z2> = cos(theta)
    setup = build_squeezing_setup(2)
    assert abs(exact_response(setup, 0.0) - 1.0) < 1e-12
    assert abs(exact_response(setup, math.pi / 3) - 0.5) < 1e-12
    for theta in np.linspace(0, 2 * math.pi, 13):
        assert abs(exact_response(setup, theta) - math.cos(theta)) < 1e-12


def test_squeezing_term_count_and_rejection():
    assert build_squeezing_setup(4).encoding_degree == 6
    with pytest.raises(ValueError):
        build_squeezing_setup(1)


def test_squeezing_response_is_trig_polynomial():
    residual = _held_out_residual(build_squeezing_setup(4), np.random.default_rng(0))
    assert residual < 1e-8


def test_random_ansatz_deterministic_given_seed():
    a = build_random_ansatz_setup(3, layers=4, seed=9)
    b = build_random_ansatz_setup(3, layers=4, seed=9)
    assert a.preparation == b.preparation
    c = build_random_ansatz_setup(3, layers=4, seed=10)
    assert a.preparation != c.preparation


def test_random_ansatz_rejects_negative_layers():
    with pytest.raises(ValueError, match="layers"):
        build_random_ansatz_setup(3, layers=-2)
    with pytest.raises(ValueError, match="layers"):
        build_setup("random", 3, 0.0, -1, 0)
    assert build_random_ansatz_setup(3, layers=0).preparation == Channel()


def test_random_ansatz_observable_weight_sum():
    setup = build_random_ansatz_setup(3, layers=4, seed=1)
    assert abs(sum(w for w, _ in setup.observable.terms) - 1.0) < 1e-12


def test_random_ansatz_degree_three_exact():
    setup = build_random_ansatz_setup(4, layers=4, seed=7)
    assert setup.encoding_degree == 3
    residual = _held_out_residual(setup, np.random.default_rng(1))
    assert residual < 1e-8


def test_exact_response_ghz2_quarter_pi():
    assert abs(exact_response(build_ghz_setup(2), math.pi / 4)) < 1e-12


def test_response_periodicity():
    rng = np.random.default_rng(4)
    for make in ALL_BUILDERS:
        setup = make()
        for theta in rng.uniform(0, 2 * math.pi, 50):
            assert abs(exact_response(setup, theta) - exact_response(setup, theta + 2 * math.pi)) < 1e-12


def test_encode_then_unencode_is_identity():
    rng = np.random.default_rng(8)
    for make in ALL_BUILDERS:
        setup = make()
        n = setup.n
        tensor = setup.preparation.apply(QuantumState.zero(n).tensor(), n, False)
        theta = float(rng.uniform(0, 2 * math.pi))
        out = tensor
        for term in setup.hamiltonian.terms:
            out = pauli_rotation(out, term.letters, term.sign, theta, n, False)
        for term in setup.hamiltonian.terms:
            out = pauli_rotation(out, term.letters, term.sign, -theta, n, False)
        assert np.abs(out - tensor).max() < 1e-10


def test_dimension_cap_rejected():
    setup = build_ghz_setup(15)
    with pytest.raises(DimensionLimitError):
        exact_response(setup, 0.1)
    noisy = build_ghz_setup(11, noise=0.01)
    with pytest.raises(DimensionLimitError):
        exact_response(noisy, 0.1)


def test_sample_deterministic_outcome_at_ghz_zero():
    setup = build_ghz_setup(3)
    for shots, seed in [(1, 0), (17, 1), (4096, 2)]:
        est = sample_response(setup, 0.0, shots, seed=seed)
        assert est.mean == 1.0
        assert est.standard_error == 0.0


def test_sample_hoeffding_window():
    setup = build_ghz_setup(2)
    target = math.cos(math.pi / 4)
    for seed in range(5):
        est = sample_response(setup, math.pi / 8, 100_000, seed=seed)
        assert abs(est.mean - target) < 0.02


def test_sample_fixed_seed_reproducible():
    setup = build_squeezing_setup(3)
    a = sample_response(setup, 0.7, 5000, seed=42)
    b = sample_response(setup, 0.7, 5000, seed=42)
    assert a == b


def test_sample_requires_qubitwise_commuting_observable():
    base = build_ghz_setup(2)
    obs = Observable(((0.5, PauliString("XI")), (0.5, PauliString("ZI"))))
    setup = SensingSetup(
        n=2,
        preparation=base.preparation,
        hamiltonian=base.hamiltonian,
        premeasurement=Channel(),
        observable=obs,
        kind="custom",
    )
    with pytest.raises(UnsupportedMeasurementError):
        sample_response(setup, 0.3, 100, seed=0)


def test_sample_converges_to_exact():
    rng = np.random.default_rng(123)
    cases = []
    for n in (2, 3):
        cases.append(build_ghz_setup(n))
        cases.append(build_squeezing_setup(n))
    cases.append(build_random_ansatz_setup(2, layers=2, seed=3))
    cases.append(build_random_ansatz_setup(3, layers=2, seed=4))
    cases = (cases * 2)[:10]
    for i, setup in enumerate(cases):
        theta = float(rng.uniform(0, 2 * math.pi))
        exact = exact_response(setup, theta)
        failures = sum(
            abs(sample_response(setup, theta, 1_000_000, seed=[i, s]).mean - exact) >= 5e-3
            for s in range(5)
        )
        assert failures <= 1


def test_sample_handles_y_basis_rotation():
    # custom readout in the Y basis: apply-based expectation vs sampling
    # through the sdg+h rotation are independent routes to the same value
    setup = SensingSetup(
        n=1,
        preparation=Channel((GateOp("ry", (0,), (1.1,)),)),
        hamiltonian=EncodingHamiltonian((PauliString("Z"),)),
        premeasurement=Channel(),
        observable=Observable(((1.0, PauliString("Y")),)),
    )
    theta = 0.4
    exact = exact_response(setup, theta)
    assert abs(exact) > 0.1  # the check is vacuous on a zero expectation
    est = sample_response(setup, theta, 1_000_000, seed=7)
    assert abs(est.mean - exact) < 5e-3


def test_gate_noise_contracts_node_responses():
    nodes = equidistant_nodes(3)
    maxima = []
    for p in (0.0, 0.01, 0.05):
        setup = build_ghz_setup(3, noise=p)
        maxima.append(max(abs(exact_response(setup, t)) for t in nodes))
    assert maxima[0] >= maxima[1] - 1e-12
    assert maxima[1] >= maxima[2] - 1e-12


def test_sampling_distribution_unbiased_mean():
    # multinomial estimate averages to the exact response over many seeds
    setup = build_random_ansatz_setup(2, layers=2, seed=6)
    theta = 0.9
    exact = exact_response(setup, theta)
    means = [sample_response(setup, theta, 2000, seed=s).mean for s in range(60)]
    spread = np.std(means, ddof=1) / math.sqrt(len(means))
    assert abs(np.mean(means) - exact) < 4 * spread + 1e-12


def test_variance_matches_dense_oracle():
    setup = build_random_ansatz_setup(3, layers=2, seed=11)
    theta = 1.3
    var = sensitivity(setup, theta).variance
    assert var >= 0.0
    # oracle: 1 - R^2 does NOT hold for the averaged-X observable, but the
    # dense matrix moment does
    obs_mat = setup.observable.matrix()
    density = setup.needs_density
    prepared = _prepare(setup, density)
    rho_vec = _encode(setup, prepared, np.array([theta]), density)[0].reshape(-1)
    mean = (rho_vec.conj() @ obs_mat @ rho_vec).real
    second = (rho_vec.conj() @ obs_mat @ obs_mat @ rho_vec).real
    assert abs(var - (second - mean**2)) < 1e-12


def test_setup_json_round_trip():
    for make in ALL_BUILDERS:
        setup = make(noise=0.02)
        doc = setup_to_json(setup)
        back = setup_from_json(doc)
        assert back == setup
        assert abs(exact_response(back, 0.7) - exact_response(setup, 0.7)) < 1e-12


def test_setup_json_carries_term_strings():
    doc = setup_to_json(build_ghz_setup(4))
    assert doc["hamiltonian"][0] == "ZIII"
    assert doc["observable"] == [[1.0, "XXXX"]]


def _property_setups():
    from qsense.variational import TrainableMeasurement

    cases = [make(noise) for make in ALL_BUILDERS for noise in (0.0, 0.02)]
    measurement = TrainableMeasurement.convolutional(4)
    params = np.random.default_rng(3).uniform(0.0, 2 * math.pi, measurement.parameter_count)
    return cases + [measurement.setup(params)]


@pytest.mark.parametrize("setup", _property_setups(), ids=lambda s: f"{s.kind}-{s.noise}")
def test_array_exact_response_matches_scalar_loop(setup):
    thetas = np.random.default_rng(21).uniform(-2 * math.pi, 4 * math.pi, 12)
    batched = exact_response(setup, thetas)
    assert isinstance(batched, np.ndarray) and batched.shape == thetas.shape
    looped = np.array([exact_response(setup, t) for t in thetas])
    assert np.array_equal(batched, looped)
    assert isinstance(exact_response(setup, float(thetas[0])), float)


@pytest.mark.parametrize("setup", _property_setups(), ids=lambda s: f"{s.kind}-{s.noise}")
def test_array_sample_response_matches_scalar_calls(setup):
    thetas = np.random.default_rng(22).uniform(0.0, 2 * math.pi, 7)
    seeds = [[5, k] for k in range(len(thetas))]
    batched = sample_response(setup, thetas, 300, seed=seeds)
    assert batched == [sample_response(setup, t, 300, seed=s) for t, s in zip(thetas, seeds)]


@pytest.mark.parametrize("setup", _property_setups(), ids=lambda s: f"{s.kind}-{s.noise}")
def test_sample_rows_are_one_pass_of_sample_response(setup):
    thetas = np.random.default_rng(23).uniform(0.0, 2 * math.pi, 7)
    rows = [[[seed, k] for k in range(len(thetas))] for seed in (5, 8, 5)]
    means, estimates = sample_rows(setup, thetas, 300, rows)
    assert estimates == [sample_response(setup, thetas, 300, seed=row) for row in rows]
    np.testing.assert_allclose(means, exact_response(setup, thetas), rtol=0, atol=1e-12)
    assert sample_rows(setup, thetas, 300, [])[1] == []


@pytest.mark.parametrize("noise", [True, False, "0.1", None, [0.1], np.bool_(True)])
def test_setup_rejects_non_real_noise(noise):
    with pytest.raises(ValueError, match="noise must be a real number"):
        build_ghz_setup(2, noise=noise)


@pytest.mark.parametrize("noise", [0, 0.25, np.float64(0.5), np.int64(1)])
def test_setup_accepts_real_noise(noise):
    assert build_ghz_setup(2, noise=noise).noise == noise


def _batching_setups():
    """Setups whose stacks hold a few states: 12-qubit statevectors and
    6-qubit density tensors (4 per stack), an 11-qubit trainable
    measurement (8 per stack), explicit global and local depolarizing steps
    in a pre-measurement, and states too small to contract as a stack (a
    1-qubit density tensor, 2- and 3-qubit trainable measurements)."""
    from qsense.variational import TrainableMeasurement

    cases = [build_setup(kind, 12, 0.0, 2, 5) for kind in SETUP_KINDS]
    cases += [build_setup(kind, 6, 0.02, 2, 5) for kind in SETUP_KINDS]
    rng = np.random.default_rng(6)
    for n in (11, 2, 3):
        measurement = TrainableMeasurement.convolutional(n)
        cases.append(measurement.setup(rng.uniform(0.0, 2 * math.pi, measurement.parameter_count)))
    depolarized = Channel((GateOp("h", (2,)), DepolarizeOp(0.05, scope="global"),
                           DepolarizeOp(0.03, targets=(0, 3)), GateOp("cnot", (3, 1))))
    cases.append(dataclasses.replace(build_ghz_setup(6), premeasurement=depolarized,
                                     kind="depolarized"))
    return cases + [build_ghz_setup(1, noise=0.02)]


@pytest.mark.parametrize("setup", _batching_setups(), ids=lambda s: f"{s.kind}{s.n}-{s.noise}")
def test_batched_and_looped_simulators_agree(setup, monkeypatch):
    if setup.n <= 3:  # shrink the stacks of small states to a few states each
        monkeypatch.setattr(setups, "MAX_STACK_AMPLITUDES", 16)
    per_stack = max(1, setups.MAX_STACK_AMPLITUDES // _prepare(setup, setup.needs_density).size)
    assert per_stack <= 8
    rng = np.random.default_rng(setup.n)
    for count in (1, per_stack, 2 * per_stack + 1):
        thetas = rng.uniform(-2 * math.pi, 4 * math.pi, count)
        seeds = [[9, k] for k in range(count)]
        looped = [exact_response(setup, float(t)) for t in thetas]
        assert np.array_equal(exact_response(setup, thetas), looped)
        looped = [sample_response(setup, float(t), 200, seed=s) for t, s in zip(thetas, seeds)]
        assert sample_response(setup, thetas, 200, seed=seeds) == looped


def _zero_noise_setups():
    from qsense.variational import TrainableMeasurement

    measurement = TrainableMeasurement.convolutional(4)
    params = np.random.default_rng(5).uniform(0.0, 2 * math.pi, measurement.parameter_count)
    return [make() for make in ALL_BUILDERS] + [measurement.setup(params)]


@pytest.mark.parametrize("setup", _zero_noise_setups(), ids=lambda s: s.kind)
def test_pure_and_density_paths_agree_at_zero_noise(setup):
    # a zero-probability depolarizing step changes nothing but the path taken
    ops = setup.premeasurement.ops + (DepolarizeOp(0.0),)
    forced = dataclasses.replace(setup, premeasurement=Channel(ops))
    assert not setup.needs_density and forced.needs_density
    thetas = np.random.default_rng(24).uniform(0.0, 2 * math.pi, 9)
    pure = exact_response(setup, thetas)
    assert np.abs(exact_response(forced, thetas) - pure).max() < 1e-12
    variance = sensitivity(setup, thetas).variance
    assert np.abs(sensitivity(forced, thetas).variance - variance).max() < 1e-12


def test_build_setup_kinds():
    for kind in SETUP_KINDS:
        setup = build_setup(kind, 3, 0.01, 2, 5)
        assert (setup.kind, setup.n, setup.noise) == (kind, 3, 0.01)
        assert setup == build_setup(kind, 3, 0.01, 2, 5)  # deterministic ansatz seed
    ansatz = build_setup("random", 3, 0.0, 2, 5)
    assert ansatz == build_random_ansatz_setup(3, layers=2, seed=5)
    assert ansatz != build_setup("random", 3, 0.0, 2, 6)
    with pytest.raises(ValueError, match="kind"):
        build_setup("bogus", 3, 0.0, 2, 5)


def _oracle_setups():
    from qsense.variational import TrainableMeasurement

    measurement = TrainableMeasurement.convolutional(4)
    params = np.random.default_rng(4).uniform(0.0, 2 * math.pi, measurement.parameter_count)
    probe = build_random_ansatz_setup(3, layers=2, seed=2).preparation

    def custom(*terms):
        return SensingSetup(
            n=3,
            preparation=probe,
            hamiltonian=EncodingHamiltonian(terms),
            premeasurement=Channel(),
            observable=Observable(((1.0, PauliString("XXX")),)),
        )

    signed = custom(PauliString("ZZZ", -1), PauliString("IZI"), PauliString("ZIZ"))
    xy = dataclasses.replace(
        custom(PauliString("XYY"), PauliString("YXY", -1), PauliString("YYX"), PauliString("IZZ")),
        kind="custom-xy",
    )
    out = []
    for noise in (0.0, 0.02):
        out += [
            build_ghz_setup(1, noise=noise),
            build_ghz_setup(4, noise=noise),
            build_random_ansatz_setup(4, layers=2, seed=9, noise=noise),
            build_squeezing_setup(3, noise=noise),
            build_squeezing_setup(4, noise=noise),
            dataclasses.replace(signed, noise=noise),
            dataclasses.replace(xy, noise=noise),
        ]
    return out + [measurement.setup(params)]


@pytest.mark.parametrize("setup", _oracle_setups(), ids=lambda s: f"{s.kind}{s.n}-{s.noise}")
def test_encoding_matches_dense_oracle(setup):
    from scipy.linalg import expm

    density = setup.needs_density
    prepared = _prepare(setup, density)
    dim = 2**setup.n
    start = prepared.reshape(dim, -1)
    for theta in np.random.default_rng(23).uniform(-math.pi, 3 * math.pi, 5):
        u = expm(-0.5j * theta * setup.hamiltonian.matrix())
        encoded = u @ start @ u.conj().T if density else u @ start.reshape(-1)
        shape = [2] * (2 * setup.n if density else setup.n)
        oracle = setup.premeasurement.apply(
            encoded.reshape(shape), setup.n, density, gate_noise=setup.noise
        ).reshape(encoded.shape)
        got = _encode(setup, prepared, np.array([theta]), density)[0].reshape(encoded.shape)
        assert np.abs(got - oracle).max() < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_theta_rejected(bad):
    for setup in (build_ghz_setup(3), build_ghz_setup(3, noise=0.01)):
        with pytest.raises(ValueError, match="theta"):
            exact_response(setup, bad)
        with pytest.raises(ValueError, match="theta"):
            exact_response(setup, np.array([0.1, bad, 0.3]))
        with pytest.raises(ValueError, match="theta"):
            sample_response(setup, bad, 100, seed=0)
        with pytest.raises(ValueError, match="theta"):
            sample_response(setup, [0.1, bad], 100, seed=[0, 1])


def test_array_theta_must_be_one_dimensional():
    with pytest.raises(ValueError, match="theta"):
        exact_response(build_ghz_setup(2), np.zeros((2, 2)))


@pytest.mark.parametrize("seed", [None, 3, [1, 2], [1, 2, 3, 4]])
def test_array_sample_needs_one_seed_per_angle(seed):
    with pytest.raises(ValueError, match="seed"):
        sample_response(build_ghz_setup(3), [0.1, 0.2, 0.3], 100, seed=seed)
