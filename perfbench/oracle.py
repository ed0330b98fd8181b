"""Reference answers for the benchmark's correctness checks.

Nothing here imports qsense.  Circuits are written out from the documented
setup definitions, gates and noise are dense matrices built with np.kron,
and response curves are recovered with an FFT, so a defect in the program's
simulator, interpolation or estimation cannot hide behind a shared helper.
Dense matrices keep this to small registers (n <= 8 on the density path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# |a><b| on one qubit, indexed [a][b]
_UNITS = [[np.outer(I2[a], I2[b]) for b in range(2)] for a in range(2)]


def _rotation(letter: str, t: float) -> np.ndarray:
    """exp(-i t P / 2) for a single-qubit Pauli P."""
    return math.cos(t / 2) * I2 - 1j * math.sin(t / 2) * PAULI[letter]


def gate_matrix(name: str, params: tuple[float, ...]) -> np.ndarray:
    if name == "h":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    if name in ("rx", "ry", "rz"):
        return _rotation(name[1].upper(), params[0])
    if name == "cnot":
        return np.kron(_UNITS[0][0], I2) + np.kron(_UNITS[1][1], PAULI["X"])
    raise ValueError(f"oracle knows no gate {name!r}")


def kron_all(factors: list[np.ndarray]) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def pauli_dense(letters: str) -> np.ndarray:
    return kron_all([PAULI[ch] for ch in letters])


def embed(mat: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Dense 2**n matrix of a k-qubit gate on ``targets`` (qubit 0 is the
    most significant bit), as a sum of kron products of |a><b| factors."""
    k = len(targets)
    first = targets[0]
    if tuple(targets) == tuple(range(first, first + k)):
        return kron_all([np.eye(2**first), mat, np.eye(2 ** (n - first - k))])
    out = np.zeros((2**n, 2**n), dtype=complex)
    for row in range(2**k):
        for col in range(2**k):
            if mat[row, col] == 0:
                continue
            factors, last = [], 0
            for q in sorted(targets):
                shift = k - 1 - targets.index(q)
                factors += [np.eye(2 ** (q - last)), _UNITS[(row >> shift) & 1][(col >> shift) & 1]]
                last = q + 1
            factors.append(np.eye(2 ** (n - last)))
            out += mat[row, col] * kron_all(factors)
    return out


@dataclass(frozen=True)
class Circuit:
    """A sensing setup spelled out as data.

    ``prep`` and ``post`` are gate lists ``(name, targets, params)``;
    ``terms`` are the encoding's Pauli strings; ``observable`` is a list of
    ``(weight, letters)``; ``noise`` is the per-gate depolarizing
    probability applied to each gate's targets after the gate.
    """

    n: int
    prep: tuple
    terms: tuple[str, ...]
    post: tuple
    observable: tuple
    noise: float = 0.0

    @property
    def degree(self) -> int:
        return len(self.terms)

    @property
    def outcome_range(self) -> float:
        """Width of the interval that holds every single-shot outcome."""
        return 2.0 * sum(abs(w) for w, _ in self.observable)


def ghz_prep(n: int) -> tuple:
    """H on qubit 0, then a CNOT fan-out where each prepared qubit seeds one
    new target per round."""
    ops = [("h", (0,), ())]
    prepared, nxt = [0], 1
    while nxt < n:
        for src in list(prepared):
            if nxt >= n:
                break
            ops.append(("cnot", (src, nxt), ()))
            prepared.append(nxt)
            nxt += 1
    return tuple(ops)


def _single(n: int, q: int, ch: str) -> str:
    return "I" * q + ch + "I" * (n - q - 1)


def z_sum(n: int) -> tuple[str, ...]:
    return tuple(_single(n, j, "Z") for j in range(n))


def ghz(n: int, noise: float = 0.0) -> Circuit:
    return Circuit(n, ghz_prep(n), z_sum(n), (), ((1.0, "X" * n),), noise)


def squeezing(n: int, noise: float = 0.0) -> Circuit:
    terms = []
    for j in range(n):
        for k in range(j + 1, n):
            letters = ["I"] * n
            letters[j] = letters[k] = "X"
            terms.append("".join(letters))
    return Circuit(n, (), tuple(terms), (), ((1.0, _single(n, n - 1, "Z")),), noise)


def random_ansatz(n: int, layers: int, seed: int, noise: float = 0.0) -> Circuit:
    """Per layer RY then RZ on every qubit (angles uniform on [0, 2 pi) from
    ``default_rng(seed)``) and a CNOT chain; H = sum Z_j Z_j+1; readout is
    the mean of X over all qubits."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(layers):
        for name in ("ry", "rz"):
            for q in range(n):
                ops.append((name, (q,), (float(rng.uniform(0.0, 2.0 * math.pi)),)))
        ops.extend(("cnot", (q, q + 1), ()) for q in range(n - 1))
    terms = tuple("I" * j + "ZZ" + "I" * (n - j - 2) for j in range(n - 1))
    obs = tuple((1.0 / n, _single(n, q, "X")) for q in range(n))
    return Circuit(n, tuple(ops), terms, (), obs, noise)


def study_ansatz_seed(base_seed: int, n: int) -> int:
    """Seed of the random ansatz a study builds for system size n."""
    return int(np.random.default_rng([base_seed, n, 424242]).integers(2**63))


def coarsening(n: int, params) -> Circuit:
    """GHZ probe, Z-sum encoding and the trainable coarsening measurement:
    each block (control, target) applies RZ, RY on both qubits, a CNOT,
    then RY, RZ on the target, which stays active; Z is read on the last
    active qubit."""
    params = [float(p) for p in params]
    active, blocks = list(range(n)), []
    while len(active) > 1:
        kept = []
        for i in range(0, len(active) - 1, 2):
            blocks.append((active[i], active[i + 1]))
            kept.append(active[i + 1])
        if len(active) % 2:
            kept.append(active[-1])
        active = kept
    if len(params) != 6 * len(blocks):
        raise ValueError("parameter count does not match the coarsening template")
    post = []
    for b, (c, t) in enumerate(blocks):
        p = params[6 * b : 6 * b + 6]
        post += [
            ("rz", (c,), (p[0],)), ("ry", (c,), (p[1],)),
            ("rz", (t,), (p[2],)), ("ry", (t,), (p[3],)),
            ("cnot", (c, t), ()),
            ("ry", (t,), (p[4],)), ("rz", (t,), (p[5],)),
        ]
    return Circuit(n, ghz_prep(n), z_sum(n), tuple(post), ((1.0, _single(n, active[0], "Z")),))


def coarsening_param_count(n: int) -> int:
    return 6 * (n - 1)


# -- dense evolution ---------------------------------------------------------


def _depolarize(rho: np.ndarray, q: int, p: float, n: int) -> np.ndarray:
    out = (1.0 - 0.75 * p) * rho
    for ch in "XYZ":
        pq = pauli_dense(_single(n, q, ch))
        out = out + (p / 4.0) * (pq @ rho @ pq)
    return out


def _run_gates(state: np.ndarray, ops, circ: Circuit, density: bool) -> np.ndarray:
    for name, targets, params in ops:
        u = embed(gate_matrix(name, params), targets, circ.n)
        if not density:
            state = u @ state
            continue
        state = u @ state @ u.conj().T
        if circ.noise > 0.0:
            for q in targets:
                state = _depolarize(state, q, circ.noise, circ.n)
    return state


class ExactResponse:
    """R(theta) = Tr[O post(U_theta prep(|0><0|) U_theta^dagger)] with the
    theta-independent preparation run once."""

    def __init__(self, circ: Circuit):
        self.circ = circ
        dim = 2**circ.n
        self.density = circ.noise > 0.0
        zero = np.zeros(dim, dtype=complex)
        zero[0] = 1.0
        state = np.outer(zero, zero) if self.density else zero
        self.prepared = _run_gates(state, circ.prep, circ, self.density)
        self.terms = [pauli_dense(t) for t in circ.terms]
        self.obs = sum(w * pauli_dense(letters) for w, letters in circ.observable)

    def _encode(self, state: np.ndarray, theta: float) -> np.ndarray:
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        for p in self.terms:
            left = c * state - 1j * s * (p @ state)
            state = c * left + 1j * s * (left @ p) if self.density else left
        return state

    def __call__(self, thetas) -> np.ndarray:
        out = []
        for theta in np.atleast_1d(np.asarray(thetas, dtype=float)):
            state = self._encode(self.prepared, float(theta))
            state = _run_gates(state, self.circ.post, self.circ, self.density)
            if self.density:
                out.append(np.trace(self.obs @ state).real)
            else:
                out.append(np.vdot(state, self.obs @ state).real)
        return np.array(out)


def ghz_parity(n: int, thetas) -> np.ndarray:
    """Closed-form noiseless GHZ parity response cos(n theta)."""
    return np.cos(n * np.asarray(thetas, dtype=float))


# -- trigonometric polynomials ------------------------------------------------


def nodes(degree: int) -> np.ndarray:
    count = 2 * degree + 1
    return 2.0 * math.pi * np.arange(count) / count


def interpolate(values) -> tuple[np.ndarray, np.ndarray, float]:
    """Coefficients (a, b, c) of the degree-D trigonometric polynomial through
    ``values`` at the 2D+1 equidistant nodes, via the FFT."""
    values = np.asarray(values, dtype=float)
    count = len(values)
    d = (count - 1) // 2
    spectrum = np.fft.fft(values) / count
    return 2.0 * spectrum[1 : d + 1].real, -2.0 * spectrum[1 : d + 1].imag, float(spectrum[0].real)


def evaluate(coeffs, thetas) -> np.ndarray:
    a, b, c = coeffs
    th = np.asarray(thetas, dtype=float)
    s = np.arange(1, len(a) + 1)
    arg = np.multiply.outer(th, s)
    return c + np.cos(arg) @ np.asarray(a) + np.sin(arg) @ np.asarray(b)


def derivative(coeffs):
    a, b, _ = coeffs
    s = np.arange(1, len(a) + 1)
    return s * np.asarray(b), -s * np.asarray(a), 0.0


def fit_curve(thetas, values, degree: int):
    """Least-squares degree-D coefficients of a sampled curve, and the
    largest residual (round-off when the curve is such a polynomial)."""
    th = np.asarray(thetas, dtype=float)
    s = np.arange(1, degree + 1)
    arg = np.multiply.outer(th, s)
    design = np.column_stack([np.cos(arg), np.sin(arg), np.ones_like(th)])
    x, *_ = np.linalg.lstsq(design, np.asarray(values, dtype=float), rcond=None)
    coeffs = (x[:degree], x[degree : 2 * degree], float(x[2 * degree]))
    return coeffs, float(np.abs(design @ x - values).max())


def lebesgue_constant(degree: int, points: int = 20001) -> float:
    """max over theta of sum_k |l_k(theta)| for equidistant trigonometric
    interpolation, so sup |p - R| <= Lebesgue * max node error."""
    count = 2 * degree + 1
    th = np.linspace(0.0, 2.0 * math.pi / count, points)
    x = th[:, None] - nodes(degree)[None, :]
    half = np.sin(x / 2.0)
    safe = np.where(np.abs(half) < 1e-300, 1.0, half)
    kernel = np.where(np.abs(half) < 1e-300, count, np.sin(count * x / 2.0) / safe)
    return float(np.abs(kernel / count).sum(axis=1).max()) * (1.0 + 1e-9)


def hoeffding(width: float, shots: int, alpha: float = 1e-9) -> float:
    """Deviation t with P(|mean - expectation| >= t) <= alpha for the mean of
    ``shots`` independent outcomes in an interval of the given width."""
    return width * math.sqrt(math.log(2.0 / alpha) / (2.0 * shots))


def window_loss(coeffs, n: int, order: int = 96) -> float:
    """(n / 2 pi) * integral over (-pi/n, pi/n) of (R(t)/n - t)^2 dt by
    Gauss-Legendre quadrature (exact to round-off for these smooth curves)."""
    x, w = np.polynomial.legendre.leggauss(order)
    half = math.pi / n
    t = half * x
    resid = evaluate(coeffs, t) / n - t
    return float((n / (2.0 * math.pi)) * half * (w @ resid**2))
