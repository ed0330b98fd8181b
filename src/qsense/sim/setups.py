"""Sensing setups: preparation, parameter encoding, pre-measurement and
readout, with exact and finite-shot response evaluation.

A setup evaluates the response

    R(theta) = Tr[ D(S_theta(E(|0..0><0..0|))) O ]

where the encoding S_theta conjugates by exp(-i theta H / 2) and H is a sum
of pairwise-commuting involutory Pauli terms.  Only S_theta depends on
theta, so a call prepares E(|0..0><0..0|) once (gate noise included) and
runs encoding and pre-measurement on a stack of its angles: the prepared
tensor is broadcast along a leading batch axis, one entry per angle, and
each rotation, gate and depolarizing step runs once per stack.  A stack
holds at most ``MAX_STACK_AMPLITUDES`` (2**14) amplitudes, so a call's
angles run in chunks (4 at a time for a 12-qubit statevector, one at a
time for a density tensor of 7 or more qubits).  The readout stays per
angle, one ``expectation`` or one read of the measurement-basis
probabilities per stack entry (which then serves any number of seeded
multinomial draws), and every value equals the one a call with that
angle alone returns.

The encoding is a product of per-term rotations cos(theta/2) - i
sin(theta/2) P, which is exact because the terms commute.  Every encoding
takes this one path, with P applied letter by letter as an index flip and
a phase (``apply_pauli_letters``).  The density-matrix path is used
whenever any channel carries noise; otherwise the cheaper statevector path
runs.  Both paths run the same kernels from ``states`` on the raw state
tensor: a density tensor only adds the conjugate action on its column
axes, so the path is a flag (``needs_density``, read once per call) and
not a second set of functions.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .channels import Channel, GateOp
from .pauli import EncodingHamiltonian, Observable, PauliString
from .states import DimensionLimitError, QuantumState, expectation, pauli_rotation

DEFAULT_MAX_PURE_QUBITS = 14
DEFAULT_MAX_DENSITY_QUBITS = 10
# amplitudes in one stack of encoded states: 256 KiB, one 7-qubit density tensor
MAX_STACK_AMPLITUDES = 2**14
SETUP_KINDS = ("ghz", "squeezing", "random")


class ShotEstimate(NamedTuple):
    mean: float
    standard_error: float


@dataclass(frozen=True)
class SensingSetup:
    """Full description of one sensing experiment.

    ``noise`` is the per-gate depolarizing probability applied to each
    gate's target qubits inside the preparation and pre-measurement
    channels (0 means noiseless).  The encoding itself stays exact, so the
    noise is independent of the encoded parameter.
    """

    n: int
    preparation: Channel
    hamiltonian: EncodingHamiltonian
    premeasurement: Channel
    observable: Observable
    noise: float = 0.0
    kind: str = "custom"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("setup needs at least one qubit")
        self.check_noise(self.noise)
        if self.hamiltonian.n_qubits != self.n:
            raise ValueError("encoding qubit count mismatch")
        if self.observable.n_qubits != self.n:
            raise ValueError("observable qubit count mismatch")
        self.preparation.validate(self.n)
        self.premeasurement.validate(self.n)

    @staticmethod
    def check_noise(noise) -> None:
        """Reject a depolarizing probability that is a bool, not a real
        number, NaN or outside [0, 1]."""
        if isinstance(noise, bool) or not isinstance(noise, numbers.Real):
            raise ValueError(f"noise must be a real number, got {noise!r}")
        if not 0.0 <= noise <= 1.0:
            raise ValueError(f"noise probability {noise} outside [0, 1]")

    @property
    def needs_density(self) -> bool:
        return (
            self.noise > 0.0
            or self.preparation.has_noise_ops
            or self.premeasurement.has_noise_ops
        )

    @property
    def encoding_degree(self) -> int:
        """Term count of the encoding; the response is a trigonometric
        polynomial of at most this degree."""
        return len(self.hamiltonian)


def ghz_preparation(n: int) -> Channel:
    # H on qubit 0, then a CNOT fan-out tree: every prepared qubit seeds one
    # new target per round, giving log-depth preparation.
    ops: list[GateOp] = [GateOp("h", (0,))]
    prepared = [0]
    next_target = 1
    while next_target < n:
        for src in list(prepared):
            if next_target >= n:
                break
            ops.append(GateOp("cnot", (src, next_target)))
            prepared.append(next_target)
            next_target += 1
    return Channel(tuple(ops))


def build_ghz_setup(n: int, noise: float = 0.0) -> SensingSetup:
    """GHZ magnetometry: GHZ probe, H = sum_j Z_j, parity readout."""
    if n < 1:
        raise ValueError("GHZ setup needs n >= 1")
    return SensingSetup(
        n=n,
        preparation=ghz_preparation(n),
        hamiltonian=EncodingHamiltonian(tuple(PauliString.on("Z", (j,), n) for j in range(n))),
        premeasurement=Channel(),
        observable=Observable(((1.0, PauliString.on("X", range(n), n)),)),
        noise=noise,
        kind="ghz",
    )


def build_squeezing_setup(n: int, noise: float = 0.0) -> SensingSetup:
    """One-axis twisting on a spin coherent probe |0..0>, reading Z on the
    last qubit.  The encoding has n(n-1)/2 terms X_j X_k."""
    if n < 2:
        raise ValueError("squeezing setup needs n >= 2")
    terms = tuple(
        PauliString.on("X", (j, k), n) for j in range(n) for k in range(j + 1, n)
    )
    return SensingSetup(
        n=n,
        preparation=Channel(),
        hamiltonian=EncodingHamiltonian(terms),
        premeasurement=Channel(),
        observable=Observable(((1.0, PauliString.on("Z", (n - 1,), n)),)),
        noise=noise,
        kind="squeezing",
    )


def build_random_ansatz_setup(
    n: int, layers: int = 4, seed: int = 0, noise: float = 0.0
) -> SensingSetup:
    """Random hardware-efficient probe: per layer, RY and RZ rotations on
    every qubit followed by a nearest-neighbour CNOT chain.  Angles are drawn
    uniformly from [0, 2 pi) using ``seed``; H = sum_j Z_j Z_{j+1} and the
    readout averages X over all qubits."""
    if n < 2:
        raise ValueError("random-ansatz setup needs n >= 2")
    if layers < 0:
        raise ValueError(f"layers must be >= 0, got {layers}")
    rng = np.random.default_rng(seed)
    ops: list[GateOp] = []
    for _ in range(layers):
        for q in range(n):
            ops.append(GateOp("ry", (q,), (float(rng.uniform(0.0, 2.0 * math.pi)),)))
        for q in range(n):
            ops.append(GateOp("rz", (q,), (float(rng.uniform(0.0, 2.0 * math.pi)),)))
        for q in range(n - 1):
            ops.append(GateOp("cnot", (q, q + 1)))
    return SensingSetup(
        n=n,
        preparation=Channel(tuple(ops)),
        hamiltonian=EncodingHamiltonian(
            tuple(PauliString.on("Z", (j, j + 1), n) for j in range(n - 1))
        ),
        premeasurement=Channel(),
        observable=Observable(tuple((1.0 / n, PauliString.on("X", (q,), n)) for q in range(n))),
        noise=noise,
        kind="random",
    )


def build_setup(kind: str, n: int, noise: float, layers: int, seed: int) -> SensingSetup:
    """The built-in setup ``kind`` (one of SETUP_KINDS); ``layers`` and
    ``seed`` only shape the random ansatz."""
    if kind == "ghz":
        return build_ghz_setup(n, noise=noise)
    if kind == "squeezing":
        return build_squeezing_setup(n, noise=noise)
    if kind == "random":
        return build_random_ansatz_setup(n, layers=layers, seed=seed, noise=noise)
    raise ValueError(f"kind must be one of {SETUP_KINDS}, got {kind!r}")


def _angles(theta) -> np.ndarray:
    """Encoding angles as a 1-D float array; rejects NaN and infinities."""
    thetas = np.asarray(theta, dtype=float)
    if thetas.ndim > 1:
        raise ValueError(f"theta must be a scalar or a 1-D array, got shape {thetas.shape}")
    bad = thetas[~np.isfinite(thetas)]
    if bad.size:
        raise ValueError(f"theta must be finite, got {bad.flat[0]}")
    return thetas.reshape(-1)


def _prepare(setup: SensingSetup, density: bool) -> np.ndarray:
    """E(|0..0><0..0|), the theta-independent part of a setup, as a tensor
    on the statevector or (``density``) the density-matrix path."""
    cap = DEFAULT_MAX_DENSITY_QUBITS if density else DEFAULT_MAX_PURE_QUBITS
    n = setup.n
    if n > cap:
        path = "density-matrix" if density else "statevector"
        raise DimensionLimitError(f"{n} qubits exceeds the {path} cap of {cap}")
    tensor = QuantumState.zero(n, density=density).tensor()
    return setup.preparation.apply(tensor, n, density, gate_noise=setup.noise)


def _encode(
    setup: SensingSetup, tensor: np.ndarray, thetas: np.ndarray, density: bool
) -> np.ndarray:
    """The stack of state tensors after encoding and pre-measurement, one
    entry per angle of the 1-D array ``thetas``; the prepared ``tensor`` is
    left untouched."""
    n = setup.n
    tensor = np.broadcast_to(tensor, (len(thetas),) + tensor.shape)
    for term in setup.hamiltonian.terms:
        tensor = pauli_rotation(tensor, term.letters, term.sign, thetas, n, density)
    return setup.premeasurement.apply(tensor, n, density, gate_noise=setup.noise)


def _read_states(
    setup: SensingSetup,
    thetas: np.ndarray,
    readout: Callable[[np.ndarray, bool], object],
    basis: Channel = Channel(),
) -> list:
    """``readout(state, density)`` of each angle's state after preparation,
    encoding, pre-measurement and ``basis``, in angle order; ``density``
    says which path the call runs on.

    The preparation runs once.  The angles then run in consecutive stacks
    of at most MAX_STACK_AMPLITUDES amplitudes (at least one angle each).
    No name holds a stack, so each is freed once read and before the next
    is built: with one angle per stack, a call holds no more state buffers
    at once than a loop over single angles would.
    """
    density = setup.needs_density
    tensor = _prepare(setup, density)
    size = max(1, MAX_STACK_AMPLITUDES // tensor.size)
    values = []
    for start in range(0, len(thetas), size):
        values.extend(readout(state, density) for state in basis.apply(
            _encode(setup, tensor, thetas[start : start + size], density), setup.n, density
        ))
    return values


def exact_response(setup: SensingSetup, theta) -> float | np.ndarray:
    """Exact expectation of the readout observable at encoding angle theta.

    ``theta`` is a float, giving a float, or a 1-D array of angles, giving
    an array of the same length.  The preparation runs once per call and
    the encoding and pre-measurement once per stack of angles, and each
    angle's value is the one a scalar call returns.  NaN or infinite
    angles raise ValueError.
    """
    obs = setup.observable
    values = np.array(_read_states(
        setup, _angles(theta), lambda state, density: expectation(state, obs, density)
    ))
    return float(values[0]) if np.ndim(theta) == 0 else values


def _measurement_rotation(letters: str) -> Channel:
    ops: list[GateOp] = []
    for q, ch in enumerate(letters):
        if ch == "X":
            ops.append(GateOp("h", (q,)))
        elif ch == "Y":
            ops.append(GateOp("sdg", (q,)))
            ops.append(GateOp("h", (q,)))
    return Channel(tuple(ops))


def sample_rows(
    setup: SensingSetup, theta, shots: int, seeds
) -> tuple[np.ndarray, list[list[ShotEstimate]]]:
    """Exact means and finite-shot estimates of the response at the 1-D
    array of angles ``theta``, all from one simulation.

    Each angle's state is rotated into the joint eigenbasis of the
    observable's terms (which must commute qubit-wise) and its
    computational-basis probabilities are read once.  They give the
    angle's exact mean, the probabilities times the observable's
    eigenvalues, and one estimate per row of ``seeds``: a row holds one seed
    per angle, and row r's estimate at angle k is the empirical mean of
    ``shots`` outcomes drawn from ``default_rng(seeds[r][k])`` together with
    its standard error.  Returns the array of exact means and, per row, the
    list of its ShotEstimates.  The preparation runs once per call and the
    encoding, pre-measurement and basis rotation once per stack of angles.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    thetas = _angles(theta)
    for row in seeds:
        if not hasattr(row, "__len__") or len(row) != len(thetas):
            raise ValueError(
                f"an array of {len(thetas)} theta values needs a sequence of "
                f"{len(thetas)} seeds, one per angle, got {row!r}"
            )
    rotation = _measurement_rotation(setup.observable.measurement_letters())
    # computed on the first read, once _prepare has checked the qubit cap
    eigs = functools.cache(setup.observable.measurement_diagonal)
    n = setup.n
    angle = iter(range(len(thetas)))
    estimates: list[list[ShotEstimate]] = [[] for _ in seeds]

    def read(tensor: np.ndarray, density: bool) -> float:
        if density:  # the diagonal as a view, without copying all 4**n entries
            probs = np.einsum(tensor, list(range(n)) * 2, list(range(n))).real.reshape(-1)
        else:
            probs = np.abs(tensor.reshape(-1)) ** 2
        probs = np.clip(probs, 0.0, None)
        probs /= probs.sum()
        k = next(angle)
        for row, out in zip(seeds, estimates):
            counts = np.random.default_rng(row[k]).multinomial(shots, probs)
            mean = float(counts @ eigs()) / shots
            second = float(counts @ (eigs() ** 2)) / shots
            variance = max(second - mean**2, 0.0)
            out.append(ShotEstimate(mean, math.sqrt(variance / shots)))
        return float(probs @ eigs())

    means = np.array(_read_states(setup, thetas, read, rotation))
    return means, estimates


def sample_response(
    setup: SensingSetup,
    theta,
    shots: int,
    seed=None,
) -> ShotEstimate | list[ShotEstimate]:
    """Finite-shot estimate of the response.

    Samples ``shots`` outcomes of the observable from the exact
    distribution and returns their empirical mean together with its
    standard error: the one-row case of ``sample_rows``.  The estimate is
    unbiased: its expectation over the RNG equals ``exact_response``.

    ``theta`` is a float, giving one ShotEstimate drawn from
    ``default_rng(seed)``, or a 1-D array of angles, giving a list of
    ShotEstimates; ``seed`` is then a sequence of one seed per angle and
    angle k draws from ``default_rng(seed[k])``, so each estimate equals the
    scalar call at that angle and seed.  NaN or infinite angles raise
    ValueError.
    """
    scalar = np.ndim(theta) == 0
    _, (estimates,) = sample_rows(setup, theta, shots, [[seed] if scalar else seed])
    return estimates[0] if scalar else estimates


def setup_to_json(setup: SensingSetup) -> dict:
    return {
        "kind": setup.kind,
        "n": setup.n,
        "noise": setup.noise,
        "preparation": setup.preparation.to_json_list(),
        "hamiltonian": [str(t) for t in setup.hamiltonian.terms],
        "observable": [[w, str(p)] for w, p in setup.observable.terms],
        "premeasurement": setup.premeasurement.to_json_list(),
    }


def setup_from_json(doc: dict) -> SensingSetup:
    return SensingSetup(
        n=int(doc["n"]),
        preparation=Channel.from_json_list(doc["preparation"]),
        hamiltonian=EncodingHamiltonian(
            tuple(PauliString.parse(t) for t in doc["hamiltonian"])
        ),
        premeasurement=Channel.from_json_list(doc["premeasurement"]),
        observable=Observable.from_json_list(doc["observable"]),
        noise=float(doc.get("noise", 0.0)),
        kind=doc.get("kind", "custom"),
    )
