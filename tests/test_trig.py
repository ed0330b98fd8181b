import csv
import json
import math
import re
import warnings

import numpy as np
import pytest

from qsense.trig import (
    DUPLICATE_TOL,
    NodeSet,
    SampleVector,
    SingularNodeSetError,
    TrigPoly,
    coeffs_closed_form,
    det_bound,
    equidistant_nodes,
    interpolation_matrix,
    solve_lsp,
    write_curve_csv,
)

TWO_PI = 2.0 * math.pi


def random_poly(rng, degree):
    return TrigPoly(rng.normal(size=degree), rng.normal(size=degree), float(rng.normal()))


def test_equidistant_nodes_values():
    np.testing.assert_allclose(
        equidistant_nodes(1).angles, [0.0, TWO_PI / 3, 2 * TWO_PI / 3], atol=1e-15
    )
    np.testing.assert_allclose(equidistant_nodes(0).angles, [0.0])
    gaps = np.diff(equidistant_nodes(2).angles)
    np.testing.assert_allclose(gaps, TWO_PI / 5, atol=1e-15)
    assert equidistant_nodes(3).is_equidistant


def test_node_set_rejects_duplicates_mod_2pi():
    with pytest.raises(SingularNodeSetError):
        NodeSet([0.3, 1.0, 0.3 + TWO_PI])
    with pytest.raises(ValueError):
        NodeSet([0.0, 1.0])  # even count


def _near_duplicate_pairs(angles, tol):
    """Loop oracle: every pair i < j whose angles lie within tol mod 2 pi."""
    canon = np.mod(angles, TWO_PI)
    pairs = []
    for i in range(len(canon)):
        for j in range(i + 1, len(canon)):
            gap = abs(canon[i] - canon[j])
            gap = min(gap, TWO_PI - gap)
            if gap < tol:
                pairs.append((i, j))
    return pairs


def test_node_set_rejects_exactly_the_oracle_pairs():
    rng = np.random.default_rng(11)
    rejected = accepted = 0
    for _ in range(300):
        count = 2 * int(rng.integers(1, 8)) + 1
        angles = rng.uniform(-TWO_PI, 2 * TWO_PI, count)
        for _ in range(int(rng.integers(0, 3))):
            # near copies, wrapped by whole turns, just inside or outside the tolerance
            i, j = rng.choice(count, 2, replace=False)
            offset = DUPLICATE_TOL * rng.choice([0.0, 0.5, 0.99, 1.01, 2.0]) * rng.choice([-1, 1])
            angles[j] = angles[i] + offset + TWO_PI * rng.integers(-2, 3)
        pairs = _near_duplicate_pairs(angles, DUPLICATE_TOL)
        if pairs:
            with pytest.raises(SingularNodeSetError) as err:
                NodeSet(angles)
            named = re.findall(r"nodes (\d+) and (\d+) coincide", str(err.value))
            assert [(int(i), int(j)) for i, j in named] == pairs
            rejected += 1
        else:
            NodeSet(angles)
            accepted += 1
    assert rejected > 50 and accepted > 50


def test_solve_lsp_names_the_closest_pair():
    # nodes 1 and 2 (gap 1e-5) are closer than 0 and 1 (3e-5)
    angles = [1.0, 1.0 + 3e-5, 1.0 + 4e-5, 3.0, 5.0]
    with pytest.raises(SingularNodeSetError, match=r"near-duplicate nodes 1 and 2 \(theta_1="):
        solve_lsp(SampleVector(NodeSet(angles), np.zeros(5)))
    # the closest pair straddles 0 = 2 pi: nodes 0 and 1 (3e-6 apart)
    angles = [1e-6, TWO_PI - 2e-6, TWO_PI - 1e-5, 2.0, 4.0]
    with pytest.raises(SingularNodeSetError, match=r"near-duplicate nodes 0 and 1 \(theta_0="):
        solve_lsp(SampleVector(NodeSet(angles), np.zeros(5)))


def test_closed_form_degree_one_cosine():
    nodes = equidistant_nodes(1)
    poly = coeffs_closed_form(SampleVector(nodes, [1.0, -0.5, -0.5]))
    assert abs(poly.a[0] - 1.0) < 1e-12
    assert abs(poly.b[0]) < 1e-12
    assert abs(poly.c) < 1e-12


def test_closed_form_constant():
    nodes = equidistant_nodes(2)
    poly = coeffs_closed_form(SampleVector(nodes, np.full(5, 0.7)))
    assert abs(poly.c - 0.7) < 1e-12
    assert np.abs(poly.a).max() < 1e-12
    assert np.abs(poly.b).max() < 1e-12


def test_closed_form_cos_4theta():
    nodes = equidistant_nodes(4)
    poly = coeffs_closed_form(SampleVector(nodes, np.cos(4 * nodes.angles)))
    expected = np.zeros(4)
    expected[3] = 1.0
    np.testing.assert_allclose(poly.a, expected, atol=1e-12)
    np.testing.assert_allclose(poly.b, 0.0, atol=1e-12)
    assert abs(poly.c) < 1e-12


def test_closed_form_requires_equidistant():
    nodes = NodeSet([0.0, 1.0, 2.5])
    with pytest.raises(ValueError):
        coeffs_closed_form(SampleVector(nodes, [1.0, 2.0, 3.0]))


def test_closed_form_interpolates():
    rng = np.random.default_rng(0)
    nodes = equidistant_nodes(5)
    vals = rng.normal(size=len(nodes))
    poly = coeffs_closed_form(SampleVector(nodes, vals))
    np.testing.assert_allclose(poly.evaluate(nodes.angles), vals, atol=1e-10)


def test_solve_lsp_sin_2theta():
    nodes = equidistant_nodes(2)
    poly, report = solve_lsp(SampleVector(nodes, np.sin(2 * nodes.angles)))
    assert abs(poly.b[1] - 1.0) < 1e-9
    assert abs(poly.b[0]) < 1e-9
    assert np.abs(poly.a).max() < 1e-9
    assert abs(poly.c) < 1e-9
    assert report.det_magnitude > 0


def test_solve_lsp_duplicate_2pi_raises():
    with pytest.raises(SingularNodeSetError):
        solve_lsp(SampleVector(NodeSet([0.5, 1.0, 0.5 + TWO_PI]), [1.0, 2.0, 3.0]))


def test_solve_lsp_near_singular_cluster_raises_with_names():
    # three nodes packed within 2e-5 pass the duplicate tolerance (1e-9) but
    # push |det A| below the rejection threshold
    angles = [1.0, 1.0 + 1e-5, 1.0 + 2e-5, 3.0, 5.0]
    with pytest.raises(SingularNodeSetError) as err:
        solve_lsp(SampleVector(NodeSet(angles), np.zeros(5)))
    assert "nodes" in str(err.value)


def test_det_equidistant_degree_one():
    value = det_bound(equidistant_nodes(1))
    assert abs(value - 3.0 * math.sqrt(3.0) / 2.0) < 1e-12
    poly, report = solve_lsp(SampleVector(equidistant_nodes(1), [1.0, 0.0, 0.0]))
    assert abs(report.det_magnitude - 2.598076211353316) < 1e-12


def test_det_bound_matches_numpy_det():
    rng = np.random.default_rng(1)
    for degree in (1, 2, 3):
        angles = np.sort(rng.uniform(0, TWO_PI, 2 * degree + 1))
        nodes = NodeSet(angles)
        direct = abs(np.linalg.det(interpolation_matrix(nodes)))
        assert abs(det_bound(nodes) - direct) < 1e-9 * max(1.0, direct)


@pytest.mark.parametrize("degree", [50, 100, 200])
def test_solve_lsp_large_equidistant_sets(degree):
    # the determinant's product overflows from D = 143, and a threshold of
    # (2D+1)^((2D+1)/2) would reject every node set from D = 40 on
    nodes = equidistant_nodes(degree)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        poly, report = solve_lsp(SampleVector(nodes, np.cos(3 * nodes.angles)))
    grid = np.linspace(0.0, TWO_PI, 1001)
    assert np.abs(poly.evaluate(grid) - np.cos(3 * grid)).max() < 1e-9
    sigma_min = np.linalg.svd(interpolation_matrix(nodes), compute_uv=False).min()
    assert 0.0 < report.sigma_min_lower_bound <= sigma_min
    assert report.det_magnitude > 0


def test_det_bound_repeated_node_is_zero():
    assert det_bound([0.3, 0.3, 1.0]) == 0.0


def test_det_bound_random_never_beats_equidistant():
    rng = np.random.default_rng(2)
    best = det_bound(equidistant_nodes(2))
    for _ in range(200):
        angles = rng.uniform(0, TWO_PI, 5)
        assert det_bound(angles) <= best + 1e-9


def test_eval_deriv_integral_basics():
    cos_poly = TrigPoly([1.0], [0.0], 0.0)
    assert abs(cos_poly.evaluate(math.pi) + 1.0) < 1e-15
    deriv = cos_poly.derivative()
    assert abs(deriv.b[0] + 1.0) < 1e-15  # -sin(theta)
    assert abs(deriv.a[0]) < 1e-15


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(4)
    poly = random_poly(rng, 6)
    deriv = poly.derivative()
    h = 1e-5
    for theta in rng.uniform(0, TWO_PI, 25):
        fd = (poly.evaluate(theta + h) - poly.evaluate(theta - h)) / (2 * h)
        assert abs(deriv.evaluate(theta) - fd) < 1e-6


def test_critical_points():
    def mod(angles):
        return np.sort(np.mod(np.round(angles, 12), TWO_PI))

    cos2 = TrigPoly([0.0, 1.0], [0.0, 0.0], 0.0)
    np.testing.assert_allclose(mod(cos2.critical_points()), np.arange(4) * math.pi / 2, atol=1e-12)
    assert len(TrigPoly.constant(3.0).critical_points()) == 0
    assert len(TrigPoly([0.0, 0.0], [0.0, 0.0], 1.0).critical_points()) == 0
    # R' = (cos u - cos 2u)/2 = (1 - cos u)(cos u + 1/2): a flat inflection
    # at 0 (a double root) and simple roots at +-2 pi/3
    flat = TrigPoly([0.0, 0.0], [0.5, -0.25], 0.0)
    found = flat.critical_points()
    assert np.all(np.abs(flat.derivative().evaluate(found)) <= 1e-12)
    simple = found[np.abs(found) > 1e-6]
    np.testing.assert_allclose(simple, [-TWO_PI / 3, TWO_PI / 3], atol=1e-12)
    assert 1 <= len(found) - len(simple) <= 2 and np.all(np.abs(found) <= np.pi)
    # a generic curve: one critical point per sign change of the slope
    rng = np.random.default_rng(21)
    poly = random_poly(rng, 5)
    grid = np.linspace(-math.pi, math.pi, 20_001)
    changes = np.count_nonzero(np.diff(np.sign(poly.derivative().evaluate(grid))))
    found = poly.critical_points()
    assert len(found) == changes and np.all(np.abs(poly.derivative().evaluate(found)) <= 1e-12)


def test_evaluate_entries_equal_float_calls():
    """Every entry of an array evaluate equals the float call at its angle,
    at any array length and in contiguous, reversed, strided and 2-D
    layouts."""
    rng = np.random.default_rng(19)
    lengths = [1, 2, 3, 5, 8, 17, 64, 127, 300]
    for degree in range(31):
        poly = random_poly(rng, degree)
        thetas = rng.uniform(-2 * TWO_PI, 2 * TWO_PI, lengths[degree % len(lengths)])
        floats = [poly.evaluate(float(t)) for t in thetas]
        assert all(type(value) is float for value in floats)
        floats = np.array(floats)
        wide = np.repeat(thetas, 3)
        layouts = [
            (thetas, floats),
            (thetas[::-1], floats[::-1]),
            (wide[1::3], floats),
            (np.column_stack([thetas, thetas[::-1]]), np.column_stack([floats, floats[::-1]])),
            (np.stack([thetas] * 2).T, np.stack([floats] * 2).T),
        ]
        for angles, want in layouts:
            got = poly.evaluate(angles)
            assert got.shape == angles.shape
            assert (got == want).all(), (degree, angles.shape, angles.strides)
    negative_zero = TrigPoly.constant(-0.0)
    assert math.copysign(1.0, negative_zero.evaluate(1.0)) == -1.0
    assert np.signbit(negative_zero.evaluate(np.zeros((2, 3)))).all()


def test_round_trip_recovery_up_to_degree_12():
    rng = np.random.default_rng(5)
    for degree in range(1, 13):
        truth = random_poly(rng, degree)
        nodes = equidistant_nodes(degree)
        poly = coeffs_closed_form(SampleVector(nodes, truth.evaluate(nodes.angles)))
        np.testing.assert_allclose(poly.a, truth.a, atol=1e-9)
        np.testing.assert_allclose(poly.b, truth.b, atol=1e-9)
        assert abs(poly.c - truth.c) < 1e-9


def test_solver_equivalence_on_equidistant_nodes():
    rng = np.random.default_rng(6)
    for degree in (1, 3, 7, 12):
        nodes = equidistant_nodes(degree)
        vals = rng.normal(size=len(nodes))
        samples = SampleVector(nodes, vals)
        closed = coeffs_closed_form(samples)
        solved, _ = solve_lsp(samples)
        np.testing.assert_allclose(closed.a, solved.a, atol=1e-8)
        np.testing.assert_allclose(closed.b, solved.b, atol=1e-8)
        assert abs(closed.c - solved.c) < 1e-8


def test_degree_monotonicity_zero_padding():
    rng = np.random.default_rng(7)
    truth = random_poly(rng, 3)
    for higher in (5, 8):
        nodes = equidistant_nodes(higher)
        poly = coeffs_closed_form(SampleVector(nodes, truth.evaluate(nodes.angles)))
        assert np.abs(poly.a[3:]).max() < 1e-8
        assert np.abs(poly.b[3:]).max() < 1e-8


def test_equidistant_det_is_global_max():
    rng = np.random.default_rng(8)
    for degree in (1, 2, 3):
        best = det_bound(equidistant_nodes(degree))
        count = 2 * degree + 1
        for _ in range(1000):
            assert det_bound(rng.uniform(0, TWO_PI, count)) <= best + 1e-9


def test_equidistant_det_invariant_under_rotation():
    for degree in (1, 2, 3):
        base = equidistant_nodes(degree).angles
        best = det_bound(base)
        for shift in (0.1, 1.234, 5.0):
            assert abs(det_bound(np.mod(base + shift, TWO_PI)) - best) < 1e-9


def test_poly_algebra_product_against_sampling():
    rng = np.random.default_rng(9)
    p = random_poly(rng, 3)
    q = random_poly(rng, 2)
    prod = p * q
    assert prod.degree == 5
    thetas = rng.uniform(0, TWO_PI, 40)
    np.testing.assert_allclose(
        prod.evaluate(thetas), p.evaluate(thetas) * q.evaluate(thetas), atol=1e-12
    )


def test_trig_poly_json_round_trip():
    poly = TrigPoly([0.5, -0.25], [0.0, 1.5], 0.125)
    doc = poly.to_json_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert TrigPoly.from_json_dict(doc) == poly


def test_curve_csv_round_trips(tmp_path):
    thetas = np.linspace(0, TWO_PI, 7)
    values = np.sin(thetas) * (1 / 3)
    path = tmp_path / "curve.csv"
    write_curve_csv(path, thetas, values)
    arr = np.genfromtxt(path, delimiter=",", names=True)
    np.testing.assert_array_equal(arr["theta"], thetas)
    np.testing.assert_array_equal(arr["value"], values)


def _csv_writer_bytes(path, thetas, values, header):
    """A curve file as a ``csv.writer`` loop over repr cells writes it."""
    values = np.asarray(values, dtype=float).reshape(len(thetas), -1)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for th, row in zip(thetas, values):
            writer.writerow([repr(float(th))] + [repr(float(v)) for v in row])
    return path.read_bytes()


@pytest.mark.parametrize("columns", [1, 3])
def test_curve_csv_bytes_match_a_csv_writer(tmp_path, columns):
    rng = np.random.default_rng(4)
    thetas = rng.uniform(-TWO_PI, TWO_PI, 40)
    values = rng.normal(size=(40, columns)) * 10.0 ** rng.integers(-300, 300, (40, columns))
    values[:5, 0] = [np.inf, -np.inf, np.nan, -0.0, 5e-324]
    header = ("theta",) + tuple(f"c{k}" for k in range(columns))
    write_curve_csv(tmp_path / "a.csv", thetas, values[:, 0] if columns == 1 else values, header)
    want = _csv_writer_bytes(tmp_path / "b.csv", thetas, values, header)
    assert (tmp_path / "a.csv").read_bytes() == want
    write_curve_csv(tmp_path / "empty.csv", [], [])
    assert (tmp_path / "empty.csv").read_bytes() == b"theta,value\r\n"


def test_node_set_names_each_close_pair_of_a_chain_across_zero():
    # 0 and 2 pi - 6e-10 are 6e-10 apart and 0 and 6e-10 too, but the ends of
    # the chain are 1.2e-9 apart, beyond the tolerance
    angles = [TWO_PI - 6e-10, 0.0, 6e-10, 2.0, 4.0]
    with pytest.raises(SingularNodeSetError) as err:
        NodeSet(angles)
    named = re.findall(r"nodes (\d+) and (\d+) coincide", str(err.value))
    assert named == [("0", "1"), ("1", "2")]
