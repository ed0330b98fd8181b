"""Gate lists and depolarizing steps that make up preparation and
pre-measurement channels."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import states

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _rx(t: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _ry(t: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(t: float) -> np.ndarray:
    return np.array([[np.exp(-1j * t / 2), 0.0], [0.0, np.exp(1j * t / 2)]])


def _rxx(t: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    xx = np.fliplr(np.eye(4))
    return c * np.eye(4) - 1j * s * xx


GATES: dict[str, tuple[int, object]] = {
    "h": (1, lambda: np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2),
    "x": (1, lambda: np.array([[0, 1], [1, 0]], dtype=complex)),
    "sdg": (1, lambda: np.array([[1, 0], [0, -1j]], dtype=complex)),
    "rx": (1, _rx),
    "ry": (1, _ry),
    "rz": (1, _rz),
    "cnot": (2, lambda: np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )),
    "rxx": (2, _rxx),
}


@dataclass(frozen=True)
class GateOp:
    name: str
    targets: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.name not in GATES:
            raise ValueError(f"unknown gate {self.name!r}")
        arity, _ = GATES[self.name]
        if len(self.targets) != arity:
            raise ValueError(f"gate {self.name} expects {arity} targets")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("gate targets must be distinct")
        nparams = 1 if self.name in ("rx", "ry", "rz", "rxx") else 0
        if len(self.params) != nparams:
            raise ValueError(f"gate {self.name} expects {nparams} parameter(s)")
        object.__setattr__(self, "targets", tuple(int(q) for q in self.targets))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))

    def matrix(self) -> np.ndarray:
        _, builder = GATES[self.name]
        return builder(*self.params)


@dataclass(frozen=True)
class DepolarizeOp:
    """Explicit depolarizing step.

    ``scope='local'`` applies the single-qubit channel to each target qubit
    (all qubits when ``targets`` is None); ``scope='global'`` mixes with the
    maximally mixed state.
    """

    p: float
    scope: str = "local"
    targets: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"depolarizing probability {self.p} outside [0, 1]")
        if self.scope not in ("local", "global"):
            raise ValueError(f"unknown scope {self.scope!r}")
        if self.targets is not None:
            object.__setattr__(self, "targets", tuple(int(q) for q in self.targets))


@dataclass(frozen=True)
class Channel:
    """Ordered list of gates and depolarizing steps."""

    ops: tuple[GateOp | DepolarizeOp, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))

    @property
    def has_noise_ops(self) -> bool:
        return any(isinstance(op, DepolarizeOp) for op in self.ops)

    def validate(self, n: int) -> None:
        for op in self.ops:
            targets = op.targets if op.targets is not None else ()
            for q in targets:
                if not 0 <= q < n:
                    raise ValueError(f"target qubit {q} outside [0, {n})")

    def apply(
        self, tensor: np.ndarray, n: int, density: bool, gate_noise: float = 0.0
    ) -> np.ndarray:
        """Run the channel on a state tensor.

        ``gate_noise`` > 0 inserts a single-qubit depolarizing step on each
        gate's targets right after the gate (the per-gate noise preset).
        """
        if (self.has_noise_ops or gate_noise > 0.0) and not density:
            raise ValueError("noisy channel requires the density-matrix path")
        for op in self.ops:
            if isinstance(op, GateOp):
                tensor = states.apply_unitary(tensor, op.matrix(), op.targets, n, density)
                if density:
                    for q in op.targets:
                        tensor = states.depolarize_qubit(tensor, q, gate_noise, n)
            elif op.scope == "global":
                tensor = states.depolarize_global(tensor, op.p, n)
            else:
                targets = op.targets if op.targets is not None else tuple(range(n))
                for q in targets:
                    tensor = states.depolarize_qubit(tensor, q, op.p, n)
        return tensor

    def to_json_list(self) -> list[dict]:
        out: list[dict] = []
        for op in self.ops:
            if isinstance(op, GateOp):
                entry: dict = {"gate": op.name, "targets": list(op.targets)}
                if op.params:
                    entry["params"] = list(op.params)
            else:
                entry = {"depolarize": op.p, "scope": op.scope}
                if op.targets is not None:
                    entry["targets"] = list(op.targets)
            out.append(entry)
        return out

    @classmethod
    def from_json_list(cls, items: list[dict]) -> "Channel":
        ops: list[GateOp | DepolarizeOp] = []
        for entry in items:
            if "gate" in entry:
                ops.append(
                    GateOp(
                        entry["gate"],
                        tuple(entry["targets"]),
                        tuple(entry.get("params", ())),
                    )
                )
            else:
                targets = entry.get("targets")
                ops.append(
                    DepolarizeOp(
                        entry["depolarize"],
                        entry.get("scope", "local"),
                        tuple(targets) if targets is not None else None,
                    )
                )
        return cls(tuple(ops))
