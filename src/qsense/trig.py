"""Degree-D trigonometric polynomials and interpolation at 2D+1 nodes.

A degree-D trigonometric polynomial is

    f(theta) = sum_{s=1..D} [ a_s cos(s theta) + b_s sin(s theta) ] + c .

Its 2D+1 coefficients are fixed by the values at any 2D+1 nodes that are
distinct modulo 2 pi.  Two recovery routes are provided:

* ``coeffs_closed_form`` uses the discrete-orthogonality formulas, valid
  only on the equidistant node set 2 pi k / (2D+1); this is the default
  (O(D^2), numerically stable, and exactly the inverse of the
  interpolation matrix at those nodes).
* ``solve_lsp`` builds the (2D+1)x(2D+1) interpolation matrix explicitly
  and solves it by row-pivoted elimination, for arbitrary node sets, and
  reports conditioning diagnostics.

The equidistant choice maximizes |det A| over all node sets, which is why
it minimizes the error amplification of the linear solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

_TWO_PI = 2.0 * math.pi
DUPLICATE_TOL = 1e-9
EQUIDISTANT_TOL = 1e-12
CRITICAL_TOL = 1e-6


class SingularNodeSetError(ValueError):
    """The node set leads to a singular or near-singular interpolation."""


@dataclass(frozen=True, eq=False)
class TrigPoly:
    """Real trigonometric polynomial with cosine coefficients ``a``, sine
    coefficients ``b`` (both indexed s = 1..D) and constant ``c``."""

    a: np.ndarray
    b: np.ndarray
    c: float

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return (
            np.array_equal(self.a, other.a)
            and np.array_equal(self.b, other.b)
            and self.c == other.c
        )

    def __post_init__(self) -> None:
        a = np.array(self.a, dtype=float).reshape(-1)
        b = np.array(self.b, dtype=float).reshape(-1)
        if a.shape != b.shape:
            raise ValueError("a and b must have the same length")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", float(self.c))

    @property
    def degree(self) -> int:
        return len(self.a)

    @classmethod
    def constant(cls, c: float) -> "TrigPoly":
        return cls(np.zeros(0), np.zeros(0), c)

    def evaluate(self, theta):
        """Value at a float, as a float, or at every angle of an array, as
        an array of its shape (2 pi periodic).  Each angle takes its own dot
        product over the D frequencies (``np.vecdot`` on rows that
        ``np.multiply.outer`` lays out contiguously), so an array entry
        equals the float call at its angle bit for bit, whatever the
        array's length or layout."""
        th = np.asarray(theta, dtype=float)
        if self.degree == 0:  # c + 0.0 would turn -0.0 into 0.0
            out = np.full(th.shape, self.c)
        else:
            arg = np.multiply.outer(th, np.arange(1, self.degree + 1))
            out = self.c + np.vecdot(np.cos(arg), self.a) + np.vecdot(np.sin(arg), self.b)
        return float(out) if th.ndim == 0 else out

    def derivative(self) -> "TrigPoly":
        """d/dtheta: a'_s = s b_s, b'_s = -s a_s, c' = 0."""
        s = np.arange(1, self.degree + 1)
        return TrigPoly(s * self.b, -s * self.a, 0.0)

    def critical_points(self) -> np.ndarray:
        """The angles in [-pi, pi], ascending, where the slope vanishes: the
        roots of z^D R'(theta), a degree-2D polynomial in z = e^{i theta}
        (one ``np.roots`` call), that lie within CRITICAL_TOL of the unit
        circle.  A double root of R' (a flat inflection) leaves the circle by
        about sqrt(eps) ~ 1.5e-8 and is kept.  A constant has none."""
        m = np.arange(-self.degree, self.degree + 1)
        roots = np.roots((1j * m * self._complex_coeffs())[::-1])
        return np.sort(np.angle(roots[np.abs(np.abs(roots) - 1.0) <= CRITICAL_TOL]))

    # -- the exact product poly * poly ----------------------------------------

    def _complex_coeffs(self) -> np.ndarray:
        """Coefficients c_m of sum_m c_m e^{i m theta}, m = -D..D."""
        d = self.degree
        coeffs = np.empty(2 * d + 1, dtype=complex)
        coeffs[d] = self.c
        coeffs[d + 1 :] = 0.5 * (self.a - 1j * self.b)
        coeffs[:d] = (0.5 * (self.a + 1j * self.b))[::-1]
        return coeffs

    @classmethod
    def _from_complex_coeffs(cls, coeffs: np.ndarray) -> "TrigPoly":
        d = (len(coeffs) - 1) // 2
        a = 2.0 * coeffs[d + 1 :].real
        b = -2.0 * coeffs[d + 1 :].imag
        return cls(a, b, float(coeffs[d].real))

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        product = np.convolve(self._complex_coeffs(), other._complex_coeffs())
        return TrigPoly._from_complex_coeffs(product)

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "a": [float(x) for x in self.a],
            "b": [float(x) for x in self.b],
            "c": self.c,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TrigPoly":
        """The polynomial of a JSON object with flat lists of numbers ``a`` and
        ``b``, a number ``c`` (no bool) and an optional ``degree``, their length."""
        if not (isinstance(doc, dict) and {"a", "b", "c"} <= doc.keys()):
            raise ValueError("a polynomial must be a JSON object with the keys a, b and c")
        for key in ("a", "b"):
            if not (isinstance(doc[key], list) and all(type(x) in (int, float) for x in doc[key])):
                raise ValueError(f"polynomial field {key} must be a flat list of numbers")
        if type(doc["c"]) not in (int, float):
            raise ValueError("polynomial field c must be a number")
        for key, values in (("a", doc["a"]), ("b", doc["b"]), ("c", [doc["c"]])):
            try:
                np.array(values, dtype=float)
            except OverflowError:
                raise ValueError(
                    f"polynomial field {key} holds an integer beyond the float range"
                ) from None
        poly = cls(doc["a"], doc["b"], doc["c"])
        if poly.degree != doc.get("degree", poly.degree):
            raise ValueError("degree field inconsistent with coefficient arrays")
        if not (np.isfinite(poly.a).all() and np.isfinite(poly.b).all() and math.isfinite(poly.c)):
            raise ValueError("polynomial coefficients a, b and c must be finite")
        return poly


def _canonical(angles: np.ndarray) -> np.ndarray:
    return np.mod(angles, _TWO_PI)


def _neighbours(canon: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The angles' ascending order and, at each place k of it, the distance
    from angle ``order[k]`` to the next one round the circle (from the
    largest across 2 pi to the smallest at the last place).  The shorter
    arc between two angles is covered by the neighbour gaps along it, each
    at most the pair's distance, so the closest pair are neighbours."""
    order = np.argsort(canon, kind="stable")
    ordered = canon[order]
    return order, np.append(np.diff(ordered), _TWO_PI - (ordered[-1] - ordered[0]))


def _coinciding(canon: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """Every pair i < j of angles in [0, 2 pi) closer than ``tol`` modulo
    2 pi, in order.  Without such a pair the cost is one sort and one
    comparison; otherwise each pair is found on the arc that starts at a
    neighbour gap below ``tol`` and measured as min(|a - b|, 2 pi - |a - b|)."""
    order, gaps = _neighbours(canon)
    pairs = set()
    for k in np.flatnonzero(gaps < tol):
        arc, step = 0.0, 0
        # twice the tolerance covers the round-off of the summed gaps
        while step < len(order) - 1 and arc < 2.0 * tol:
            arc += gaps[(k + step) % len(order)]
            step += 1
            i, j = sorted((int(order[k]), int(order[(k + step) % len(order)])))
            gap = abs(canon[i] - canon[j])
            if min(gap, _TWO_PI - gap) < tol:
                pairs.add((i, j))
    return sorted(pairs)


@dataclass(frozen=True)
class NodeSet:
    """Ordered set of 2D+1 angles, canonicalized to [0, 2 pi) and required
    to be distinct modulo 2 pi (tolerance 1e-9 rad)."""

    angles: np.ndarray

    def __post_init__(self) -> None:
        raw = np.array(self.angles, dtype=float).reshape(-1)
        if len(raw) < 1 or len(raw) % 2 == 0:
            raise ValueError("a node set holds an odd number (2D+1) of angles")
        canon = _canonical(raw)
        dupes = _coinciding(canon, DUPLICATE_TOL)
        if dupes:
            detail = "; ".join(
                f"nodes {i} and {j} coincide modulo 2*pi "
                f"(theta_{i}={raw[i]:.12g}, theta_{j}={raw[j]:.12g})"
                for i, j in dupes
            )
            raise SingularNodeSetError(detail)
        canon.flags.writeable = False
        object.__setattr__(self, "angles", canon)

    @property
    def degree(self) -> int:
        return (len(self.angles) - 1) // 2

    @property
    def is_equidistant(self) -> bool:
        k = np.arange(len(self.angles))
        target = _TWO_PI * k / len(self.angles)
        return bool(np.all(np.abs(self.angles - target) <= EQUIDISTANT_TOL))

    def __len__(self) -> int:
        return len(self.angles)

    def __iter__(self) -> Iterator[float]:
        return iter(self.angles)


def equidistant_nodes(degree: int) -> NodeSet:
    """The 2D+1 angles 2 pi k / (2D+1), k = 0..2D."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    count = 2 * degree + 1
    return NodeSet(_TWO_PI * np.arange(count) / count)


@dataclass(frozen=True)
class SampleVector:
    """Per-node response values, optionally with standard errors from
    finite sampling."""

    nodes: NodeSet
    values: np.ndarray
    standard_errors: np.ndarray | None = None

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float).reshape(-1)
        if len(vals) != len(self.nodes):
            raise ValueError("value count must match node count")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if self.standard_errors is not None:
            errs = np.array(self.standard_errors, dtype=float).reshape(-1)
            if len(errs) != len(self.nodes):
                raise ValueError("standard_errors length must match node count")
            errs.flags.writeable = False
            object.__setattr__(self, "standard_errors", errs)

    @property
    def degree(self) -> int:
        return self.nodes.degree


def coeffs_closed_form(samples: SampleVector) -> TrigPoly:
    """Recover the interpolating polynomial on equidistant nodes.

    Uses the discrete-orthogonality formulas
        a_s = 2/(2D+1) sum_k d_k cos(s theta_k)
        b_s = 2/(2D+1) sum_k d_k sin(s theta_k)
        c   = 1/(2D+1) sum_k d_k
    The result passes through every sample exactly.
    """
    if not samples.nodes.is_equidistant:
        raise ValueError(
            "closed-form coefficients require equidistant nodes; use solve_lsp"
        )
    d = samples.degree
    th = samples.nodes.angles
    vals = samples.values
    count = 2 * d + 1
    if d == 0:
        return TrigPoly.constant(float(vals[0]))
    s = np.arange(1, d + 1)
    arg = np.multiply.outer(s, th)
    a = (2.0 / count) * (np.cos(arg) @ vals)
    b = (2.0 / count) * (np.sin(arg) @ vals)
    return TrigPoly(a, b, float(vals.sum() / count))


@dataclass(frozen=True)
class ConditionReport:
    """Conditioning diagnostics for the interpolation matrix.

    ``det_magnitude`` is |det A| from the closed product formula (inf
    where it exceeds the float range); ``sigma_min_lower_bound`` is the
    row-norm lower bound on the smallest singular value (reported, never
    used for rejection).
    """

    det_magnitude: float
    sigma_min_lower_bound: float


def interpolation_matrix(nodes: NodeSet) -> np.ndarray:
    """Rows k: [cos(theta_k), .., cos(D theta_k), sin(theta_k), .., sin(D theta_k), 1]."""
    th = nodes.angles
    d = nodes.degree
    cols = [np.cos(s * th) for s in range(1, d + 1)]
    cols += [np.sin(s * th) for s in range(1, d + 1)]
    cols.append(np.ones_like(th))
    return np.column_stack(cols)


def _log_det(angles: np.ndarray) -> float:
    """ln |det A| = sum_{i<j} ln |e^{i theta_i} - e^{i theta_j}| - D ln 2,
    -inf when two angles coincide.  Summed in log space, so it stays finite
    where the product of the 2D(2D+1)/2 distances leaves the float range."""
    z = np.exp(1j * angles)
    diff = np.abs(z[:, None] - z[None, :])[np.triu_indices(len(z), k=1)]
    with np.errstate(divide="ignore"):
        return float(np.log(diff).sum()) - (len(angles) - 1) // 2 * math.log(2.0)


def det_bound(nodes) -> float:
    """|det A| = 2^-D prod_{i<j} |e^{i theta_i} - e^{i theta_j}|.

    Accepts a NodeSet or a raw angle sequence (which may contain repeats,
    giving 0).  Maximized by the equidistant node set, and invariant under
    a common rotation of all nodes.  Reads inf where |det A| exceeds the
    float range (from D = 143 on equidistant nodes).
    """
    angles = nodes.angles if isinstance(nodes, NodeSet) else np.asarray(nodes, float)
    if len(angles) < 3:
        raise ValueError("det_bound needs at least 3 nodes (degree >= 1)")
    with np.errstate(over="ignore"):
        return float(np.exp(_log_det(angles)))


def solve_lsp(samples: SampleVector) -> tuple[TrigPoly, ConditionReport]:
    """Coefficient recovery for arbitrary (distinct) nodes via the explicit
    linear system, solved by row-pivoted elimination.

    Raises SingularNodeSetError, naming the closest node pair, when |det A|
    falls below 1e-12 of its Hadamard bound prod_k |row_k| =
    (D+1)^((2D+1)/2); equidistant nodes reach about 0.86 of that bound at
    every degree.  The determinant, the bound and the row-norm lower bound
    ((m-1)/m)^((m-1)/2) |det A| min_k |row_k| / prod_k |row_k| on the
    smallest singular value of the m x m matrix are all taken in log space,
    so they hold at any degree.  On equidistant nodes the result agrees
    with ``coeffs_closed_form`` to solver precision.
    """
    nodes = samples.nodes
    d = nodes.degree
    if d == 0:
        return TrigPoly.constant(float(samples.values[0])), ConditionReport(1.0, 1.0)
    a_matrix = interpolation_matrix(nodes)
    log_det = _log_det(nodes.angles)
    log_norms = np.log(np.linalg.norm(a_matrix, axis=1))  # no row is zero
    log_ratio = log_det - float(log_norms.sum())
    if log_ratio < math.log(1e-12):
        # NodeSet has rejected coinciding nodes, so name the closest pair
        order, gaps = _neighbours(nodes.angles)
        k = int(np.argmin(gaps))
        i, j = sorted((int(order[k]), int(order[(k + 1) % len(order)])))
        raise SingularNodeSetError(
            f"|det A| is {math.exp(log_ratio):.3e} of its Hadamard bound, below 1e-12; "
            f"near-duplicate nodes {i} and {j} (theta_{i}={nodes.angles[i]:.12g}, "
            f"theta_{j}={nodes.angles[j]:.12g})"
        )
    try:
        x = np.linalg.solve(a_matrix, samples.values)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - caught by det check
        raise SingularNodeSetError(str(exc)) from exc
    poly = TrigPoly(x[:d], x[d : 2 * d], float(x[2 * d]))
    m = len(a_matrix)
    log_sigma = (m - 1) / 2 * math.log((m - 1) / m) + log_ratio + float(log_norms.min())
    with np.errstate(over="ignore"):
        det_mag = float(np.exp(log_det))
    return poly, ConditionReport(det_mag, math.exp(log_sigma))


def write_rows(path, header: Sequence[str], rows: Iterable, line_end: str = "\r\n") -> None:
    """Write ``header`` and ``rows`` as comma-separated lines, each ending
    in ``line_end``.  Cells are Python ints and floats rendered with repr,
    so floats round-trip bit-exactly."""
    fmt = ",".join(["%r"] * len(header))
    lines = [",".join(header)] + [fmt % tuple(row) for row in rows]
    Path(path).write_text(line_end.join(lines) + line_end, newline="")


def write_curve_csv(
    path, thetas: Sequence[float], values: Iterable, header: Sequence[str] = ("theta", "value")
) -> None:
    """Write aligned columns of floats, one row per angle of ``thetas``
    and one column per column of ``values``, with csv's CRLF line ends;
    floats are rendered with repr so the file round-trips bit-exactly."""
    columns = np.column_stack([np.asarray(thetas, dtype=float), np.asarray(values, dtype=float)])
    write_rows(path, header, columns.tolist())
