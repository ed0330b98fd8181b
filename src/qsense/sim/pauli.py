"""Pauli-string operators, weighted observables and commuting encodings.

Everything in this module is plain data plus a little algebra: the heavy
lifting (state evolution, sampling) lives in :mod:`qsense.sim.states` and
:mod:`qsense.sim.setups`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAULI_LETTERS = "IXYZ"

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def _sign_diagonal(letters: str) -> np.ndarray:
    """+1/-1 per computational bitstring: the parity of the bits on the
    qubits where ``letters`` is not I, i.e. the diagonal of the string with
    every non-identity letter replaced by Z.  Qubit 0 is the most
    significant bit."""
    plus_minus = np.array([1.0, -1.0])
    ones = np.array([1.0, 1.0])
    v = np.array([1.0])
    for ch in letters:
        v = np.kron(v, plus_minus if ch != "I" else ones)
    return v


def _letter_product(a: str, b: str) -> tuple[int, str]:
    """a * b = i**k * c for single-qubit Pauli letters: (k, c)."""
    if a == b:
        return 0, "I"
    if "I" in (a, b):
        return 0, (a + b).replace("I", "")
    return (1 if a + b in "XYZX" else 3), "XYZ".replace(a, "").replace(b, "")


class UnsupportedMeasurementError(ValueError):
    """Observable cannot be measured with a single per-qubit basis rotation."""


@dataclass(frozen=True)
class PauliString:
    """A signed tensor product of single-qubit Pauli operators.

    ``letters`` is a string over ``I, X, Y, Z`` with one letter per qubit
    (qubit 0 is the leftmost letter); ``sign`` is +1 or -1.
    """

    letters: str
    sign: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.letters, str) or not self.letters:
            raise ValueError(
                f"PauliString needs a string of at least one letter, got {self.letters!r}"
            )
        bad = set(self.letters) - set(PAULI_LETTERS)
        if bad:
            raise ValueError(f"invalid Pauli letters: {sorted(bad)}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    @classmethod
    def on(cls, letter: str, qubits, n: int) -> "PauliString":
        """``letter`` on each of ``qubits`` and I on the rest of ``n`` qubits."""
        letters = ["I"] * n
        for q in qubits:
            if not 0 <= q < n:
                raise ValueError(f"qubit {q} outside 0..{n - 1}")
            letters[q] = letter
        return cls("".join(letters))

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    def commutes(self, other: "PauliString") -> bool:
        """Two Pauli strings commute iff they differ on an even number of
        positions where both act non-trivially."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit counts differ")
        clashes = sum(
            1
            for x, y in zip(self.letters, other.letters)
            if x != "I" and y != "I" and x != y
        )
        return clashes % 2 == 0

    def matrix(self) -> np.ndarray:
        """Dense matrix, for small-n oracle checks."""
        m = np.array([[self.sign]], dtype=complex)
        for ch in self.letters:
            m = np.kron(m, PAULI_MATRICES[ch])
        return m

    def __str__(self) -> str:
        return ("-" if self.sign < 0 else "") + self.letters

    @classmethod
    def parse(cls, text: str) -> "PauliString":
        """Inverse of ``str``; accepts an optional leading ``+`` or ``-``."""
        sign = 1
        if text and text[0] in "+-":
            sign = -1 if text[0] == "-" else 1
            text = text[1:]
        return cls(text, sign)


@dataclass(frozen=True)
class Observable:
    """Real-weighted sum of Pauli strings with total weight at most one.

    The weight-sum cap enforces an operator-norm bound of 1, which keeps all
    measured responses in [-1, 1].
    """

    terms: tuple[tuple[float, PauliString], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("Observable needs at least one term")
        n = self.terms[0][1].n_qubits
        if any(p.n_qubits != n for _, p in self.terms):
            raise ValueError("all terms must act on the same qubit count")
        total = sum(abs(w) for w, _ in self.terms)
        if total > 1.0 + 1e-12:
            raise ValueError(
                f"sum of |weights| = {total:.6g} exceeds 1; operator norm not certified"
            )
        object.__setattr__(
            self, "terms", tuple((float(w), p) for w, p in self.terms)
        )

    @property
    def n_qubits(self) -> int:
        return self.terms[0][1].n_qubits

    @property
    def is_single_pauli(self) -> bool:
        """True when the observable is a single +/-1-weighted Pauli string,
        in which case it squares to the identity."""
        return len(self.terms) == 1 and abs(abs(self.terms[0][0]) - 1.0) < 1e-12

    def measurement_letters(self) -> str:
        """Per-qubit measurement basis shared by every term.

        Requires the terms to commute qubit-wise: at each position all
        non-identity letters agree.  Raises UnsupportedMeasurementError
        otherwise.
        """
        letters = ["I"] * self.n_qubits
        for _, p in self.terms:
            for q, ch in enumerate(p.letters):
                if ch == "I":
                    continue
                if letters[q] == "I":
                    letters[q] = ch
                elif letters[q] != ch:
                    raise UnsupportedMeasurementError(
                        f"terms disagree on qubit {q} ({letters[q]} vs {ch}); "
                        "a single basis rotation cannot measure this observable"
                    )
        return "".join(letters)

    def measurement_diagonal(self) -> np.ndarray:
        """Eigenvalue of the observable for each computational bitstring after
        the per-qubit basis rotation.  Index convention: qubit 0 is the most
        significant bit."""
        diag = np.zeros(2**self.n_qubits)
        for w, p in self.terms:
            diag += w * p.sign * _sign_diagonal(p.letters)
        return diag

    def matrix(self) -> np.ndarray:
        return sum(w * p.matrix() for w, p in self.terms)

    @classmethod
    def from_json_list(cls, items) -> "Observable":
        """The observable of a list of [weight, signed letters] pairs."""
        return cls(tuple((float(w), PauliString.parse(p)) for w, p in items))

    def squared(self) -> tuple[float, "Observable | None"]:
        """O^2 = c I + Q as the constant c and the Observable Q of the other
        Pauli strings (None when none remain).  O^2 = sum_i w_i^2 + sum_{i<j}
        w_i w_j (P_i P_j + P_j P_i): an anticommuting pair cancels, a commuting
        pair gives 2 P_i P_j, and products equal to +/-I (repeated strings)
        join c.  Q's weights add up to at most (sum |w_i|)^2 - sum w_i^2 < 1."""
        constant = sum(w * w for w, _ in self.terms)
        weights: dict[str, float] = {}
        for i, (w, p) in enumerate(self.terms):
            for v, q in self.terms[i + 1 :]:
                products = [_letter_product(a, b) for a, b in zip(p.letters, q.letters)]
                turns = sum(k for k, _ in products)  # the product's phase is i**turns
                if turns % 2:  # the pair anticommutes
                    continue
                weight = 2.0 * w * v * p.sign * q.sign * (-1 if turns % 4 else 1)
                key = "".join(c for _, c in products)
                if set(key) == {"I"}:
                    constant += weight
                else:
                    weights[key] = weights.get(key, 0.0) + weight
        rest = tuple((w, PauliString(key)) for key, w in weights.items() if w != 0.0)
        return constant, (Observable(rest) if rest else None)


@dataclass(frozen=True)
class EncodingHamiltonian:
    """Sum of pairwise-commuting, involutory Pauli terms.

    The term count sets the degree of the trigonometric response the
    encoding can produce.
    """

    terms: tuple[PauliString, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("EncodingHamiltonian needs at least one term")
        n = self.terms[0].n_qubits
        if any(t.n_qubits != n for t in self.terms):
            raise ValueError("all terms must act on the same qubit count")
        for i, a in enumerate(self.terms):
            for b in self.terms[i + 1 :]:
                if not a.commutes(b):
                    raise ValueError(f"encoding terms {a} and {b} do not commute")

    @property
    def n_qubits(self) -> int:
        return self.terms[0].n_qubits

    def __len__(self) -> int:
        return len(self.terms)

    def matrix(self) -> np.ndarray:
        return sum(t.matrix() for t in self.terms)
