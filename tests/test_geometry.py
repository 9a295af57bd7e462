import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from monolearn.games import GameOracle
from monolearn.geometry import (
    Ball,
    Box,
    MonolearnError,
    ProductSet,
    Unconstrained,
    symmetric_box,
)
from monolearn.learners import Oblivious, make_learner, play_rows
from monolearn.metrics import linearized_gaps, regret_terms

RNG = np.random.default_rng(12345)


def sample_sets():
    return [
        symmetric_box(1.0, 2),
        Box(np.array([-2.0, 0.0, 1.0]), np.array([3.0, 0.0, 4.0])),
        Ball(np.zeros(3), 1.0),
        Ball(np.array([1.0, -2.0]), 2.5),
        ProductSet((symmetric_box(1.0, 2), Ball(np.zeros(2), 1.0))),
        Unconstrained(3),
    ]


# -- brute-force oracles --------------------------------------------------


def box_residual_oracle(box, point, grad):
    """Grid search the normal-cone element minimizing ||grad + c||.

    The cone is a product of per-coordinate intervals, so the search is
    separable: each coordinate is refined on nested linear grids, an
    independent path from the closed form under test.
    """
    p = np.asarray(point, float)
    g = np.asarray(grad, float)
    total = 0.0
    for j in range(box.dim):
        at_lo, at_hi = p[j] == box.lower[j], p[j] == box.upper[j]
        reach = abs(g[j]) + 1.0
        cone_lo = -reach if at_lo else 0.0
        cone_hi = reach if at_hi else 0.0
        lo, hi = cone_lo, cone_hi
        best = 0.0
        for _ in range(4):
            grid = np.linspace(lo, hi, 2001)
            vals = (g[j] + grid) ** 2
            k = int(np.argmin(vals))
            best = grid[k]
            width = (hi - lo) / 2000.0
            lo = max(best - width, cone_lo)
            hi = min(best + width, cone_hi)
        total += (g[j] + best) ** 2
    return math.sqrt(total)


def ball_residual_oracle(ball, point, grad):
    """Line search over the ray of outward normals at a boundary point."""
    p = np.asarray(point, float)
    g = np.asarray(grad, float)
    d = p - ball.center
    r = float(np.linalg.norm(d))
    if r < ball.radius * (1.0 - 1e-9):
        return float(np.linalg.norm(g))
    n_hat = d / r
    lo, hi = 0.0, 10.0 * (float(np.linalg.norm(g)) + 1.0)
    best = 0.0
    for _ in range(5):
        grid = np.linspace(lo, hi, 2001)
        vals = np.linalg.norm(g[None, :] + grid[:, None] * n_hat[None, :], axis=1)
        k = int(np.argmin(vals))
        best = grid[k]
        width = (hi - lo) / 2000.0
        lo, hi = max(best - width, 0.0), best + width
    return float(np.linalg.norm(g + best * n_hat))


def box_gap_oracle(box, point, grad, points_per_axis=101):
    """Evaluate the gap over a full grid (which contains the optimal corner)."""
    axes = [np.linspace(lo, hi, points_per_axis) for lo, hi in zip(box.lower, box.upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = np.stack([m.ravel() for m in mesh], axis=1)
    g = np.asarray(grad, float)
    lowest = float(np.min(flat @ g))
    return float(np.asarray(point, float) @ g) - lowest


# -- projection -----------------------------------------------------------


def test_projection_fixed_points_and_clamp():
    box = symmetric_box(1.0, 2)
    assert np.array_equal(box.project([0.5, 0.2]), [0.5, 0.2])
    assert np.array_equal(box.project([2.0, -3.0]), [1.0, -1.0])


def test_projection_onto_unit_ball():
    ball = Ball(np.zeros(2), 1.0)
    out = ball.project([3.0, 4.0])
    assert np.allclose(out, [0.6, 0.8], atol=1e-15)
    assert math.isclose(float(np.linalg.norm(out)), 1.0, rel_tol=1e-12)


@st.composite
def feasible_sets(draw, factors=True):
    """A random Box (some coordinates pinned), Ball, or ProductSet of them."""
    kinds = ["box", "ball"] + (["product"] if factors else [])
    kind = draw(st.sampled_from(kinds))
    dim = draw(st.integers(1, 4))
    coords = arrays(float, dim, elements=st.floats(-5.0, 5.0))
    if kind == "box":
        lower = draw(coords)
        width = draw(arrays(float, dim, elements=st.just(0.0) | st.floats(0.0, 5.0)))
        return Box(lower, lower + width)
    if kind == "ball":
        return Ball(draw(coords), draw(st.floats(0.1, 5.0)))
    return ProductSet(tuple(draw(st.lists(feasible_sets(factors=False),
                                          min_size=1, max_size=3))))


def points_of(fset):
    return arrays(float, fset.dim, elements=st.floats(-20.0, 20.0))


def norm(v):
    return float(np.linalg.norm(v))


@settings(max_examples=300, deadline=None)
@given(fset=feasible_sets(), data=st.data())
def test_projection_idempotent_and_nonexpansive(fset, data):
    p, q = data.draw(points_of(fset)), data.draw(points_of(fset))
    pp, qq = fset.project(p), fset.project(q)
    assert norm(fset.project(pp) - pp) <= 1e-12 * max(1.0, norm(pp))
    assert norm(pp - qq) <= norm(p - q) + 1e-12 * max(1.0, norm(p) + norm(q))


# -- tangent residual -----------------------------------------------------


def test_residual_unconstrained_is_grad_norm():
    fset = Unconstrained(2)
    assert fset.tangent_residual([7.0, -7.0], [3.0, 4.0]) == 5.0


def test_residual_interval_examples():
    box = symmetric_box(1.0, 1)
    assert math.isclose(box.tangent_residual([-1.0], [-2.0]), 2.0, abs_tol=1e-12)
    assert box.tangent_residual([-1.0], [2.0]) == 0.0
    # independent grid confirmation of both
    assert math.isclose(box_residual_oracle(box, [-1.0], [-2.0]), 2.0, abs_tol=1e-6)
    assert box_residual_oracle(box, [-1.0], [2.0]) <= 1e-6


def test_residual_matches_grid_oracle_on_boxes():
    boxes = [symmetric_box(1.0, 1), Box([-1.0, 0.0], [2.0, 0.5])]
    for box in boxes:
        for _ in range(50):
            # mix of interior, face, and corner points
            p = box.project(RNG.uniform(-2.0, 2.5, box.dim))
            g = RNG.normal(scale=2.0, size=box.dim)
            got = box.tangent_residual(p, g)
            want = box_residual_oracle(box, p, g)
            assert abs(got - want) <= 1e-6


def test_residual_matches_line_search_on_balls():
    ball = Ball(np.array([0.5, -0.5]), 2.0)
    for _ in range(50):
        raw = RNG.normal(scale=4.0, size=2)
        p = ball.project(raw)
        g = RNG.normal(scale=2.0, size=2)
        got = ball.tangent_residual(p, g)
        want = ball_residual_oracle(ball, p, g)
        assert abs(got - want) <= 1e-6


@settings(max_examples=300, deadline=None)
@given(fset=feasible_sets(), data=st.data(), c=st.floats(1e-3, 1e3),
       tau=st.sampled_from([1e-3, 0.1, 1.0]))
def test_residual_zero_iff_projection_stationary(fset, data, c, tau):
    """r_tan(p, g) = 0 exactly when P(p - tau g) = p.

    Stationary pairs are exactly p = P(q), g = c (p - q) with c > 0: then -g
    is in the normal cone at p. Their residual must vanish. For any g, the
    projected step is at most tau times the residual, so a zero residual
    means a stationary point. A box has no tolerance band: a coordinate is
    on a bound only when it equals it, and a projection returns the bound
    itself. The slack covers rounding, and a ball's REL_BOUND_TOL band of
    its sphere, which the residual counts as on it.
    """
    q = data.draw(points_of(fset))
    p = fset.project(q)
    g = c * (p - q)
    assert fset.tangent_residual(p, g) <= 1e-9 * max(1.0, norm(g))
    assert norm(fset.project(p - tau * g) - p) <= 1e-12 * max(1.0, norm(p))
    g = data.draw(points_of(fset))
    step = norm(fset.project(p - tau * g) - p)
    assert step <= tau * fset.tangent_residual(p, g) + 1e-8 * max(1.0, norm(p))


# -- linearized gap -------------------------------------------------------


def linearized_gap(fset, point, grad):
    """<grad, point> - min over the set of <grad, x>, clipped at 0: the one
    row of the formula runs use (``metrics.regret_terms`` and
    ``metrics.linearized_gaps``), with the whole set as one player."""
    p, g = np.asarray(point, float)[None], np.asarray(grad, float)[None]
    return float(linearized_gaps(*regret_terms(fset, p, g, [slice(None)]))[0, 0])


def test_gap_examples():
    box2 = symmetric_box(1.0, 2)
    assert math.isclose(linearized_gap(box2, [1.0, 1.0], [1.0, 1.0]), 4.0, abs_tol=1e-12)
    assert linearized_gap(box2, [0.3, -0.7], [0.0, 0.0]) == 0.0
    box1 = symmetric_box(1.0, 1)
    assert math.isclose(linearized_gap(box1, [0.0], [1.0]), 1.0, abs_tol=1e-12)


def test_gap_matches_grid_oracle():
    boxes = [symmetric_box(1.0, 1), Box([-1.0, -2.0], [1.5, 0.5])]
    for box in boxes:
        scale = box.diameter()
        for _ in range(50):
            p = RNG.uniform(box.lower, box.upper)
            g = RNG.normal(scale=2.0, size=box.dim)
            got = linearized_gap(box, p, g)
            want = box_gap_oracle(box, p, g)
            assert abs(got - want) <= 1e-3 * max(1.0, scale)
            assert got >= want - 1e-12  # grid minimum cannot beat the true minimum


def test_gap_on_unbounded_set_rejected():
    # the comparator of the gap, min over the set of <g, x>, is unbounded
    with pytest.raises(MonolearnError):
        Unconstrained(2).support_min(np.array([1.0, 0.0]))


def test_ball_support_min_direction():
    ball = Ball(np.zeros(2), 3.0)
    x, v = ball.support_min(np.array([0.0, 2.0]))
    assert np.allclose(x, [0.0, -3.0])
    assert math.isclose(v, -6.0)


def test_box_support_min_tie_breaks_low():
    box = symmetric_box(1.0, 3)
    x, v = box.support_min(np.array([0.0, 1.0, -1.0]))
    assert np.array_equal(x, [-1.0, -1.0, 1.0])
    assert v == -2.0


@st.composite
def box_rows(draw):
    """A box (some coordinates pinned), k feasible points with coordinates on
    the bounds, and k gradients with exact zeros among their entries."""
    dim, k = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    lower = draw(arrays(float, dim, elements=st.floats(-5.0, 5.0)))
    width = draw(arrays(float, dim, elements=st.sampled_from([0.0, 1e-12]) | st.floats(0.0, 5.0)))
    box = Box(lower, lower + width)
    u = draw(arrays(float, (k, dim), elements=st.sampled_from([0.0, 1.0]) | st.floats(-0.5, 1.5)))
    points = box.project(lower + u * width)
    grads = draw(arrays(float, (k, dim), elements=st.just(0.0) | st.floats(-3.0, 3.0)))
    return box, points, grads


@settings(max_examples=200, deadline=None)
@given(box_rows())
def test_box_batched_cores_equal_row_cores(case):
    box, points, grads = case
    r_tan = box.tangent_residual(points, grads)
    x_min, values = box.support_min(grads)
    assert r_tan.shape == values.shape == (len(grads),)
    for k, (p, g) in enumerate(zip(points, grads)):
        assert r_tan[k] == box.tangent_residual(p, g)
        x, v = box.support_min(g)
        assert np.array_equal(x_min[k], x) and values[k] == v
        ties = g == 0.0
        assert np.array_equal(x[ties], box.lower[ties])


@pytest.mark.parametrize("fset", [s for s in sample_sets() if s.is_bounded])
def test_batched_cores_equal_row_cores_on_every_set(fset):
    points = np.stack([fset.project(RNG.normal(scale=0.5, size=fset.dim)) for _ in range(6)])
    points[0] = fset.project(points[0] * 50.0)  # a boundary point
    grads = RNG.normal(size=points.shape)
    grads[1] = 0.0
    r_tan = fset.tangent_residual(points, grads)
    x_min, values = fset.support_min(grads)
    projected = fset.project(3.0 * grads)
    for k, (p, g) in enumerate(zip(points, grads)):
        assert np.array_equal(projected[k], fset.project(3.0 * g))
        assert r_tan[k] == fset.tangent_residual(p, g)
        x, v = fset.support_min(g)
        assert np.array_equal(x_min[k], x) and values[k] == v


# -- diameter -------------------------------------------------------------


def test_diameters():
    assert math.isclose(symmetric_box(1.0, 2).diameter(), 2.0 * math.sqrt(2.0))
    assert Ball(np.zeros(3), 5.0).diameter() == 10.0
    assert math.isclose(symmetric_box(200.0, 200).diameter(), 400.0 * math.sqrt(200.0))
    assert Unconstrained(1).diameter() == math.inf
    prod = ProductSet((symmetric_box(1.0, 2), Unconstrained(1)))
    assert not prod.is_bounded


@pytest.mark.filterwarnings("error")
def test_box_diameter_scales_past_the_range_of_squares():
    # the widths' squares underflow or overflow; the scaled norm does not
    for w in (1e-300, 1e-200, 1e200, 1e300):
        assert math.isclose(symmetric_box(w, 3).diameter(), 2.0 * w * math.sqrt(3.0),
                            rel_tol=1e-15)
    # a width, or only the norm, past the float range: inf, with no warning
    assert symmetric_box(1e308, 3).diameter() == math.inf
    assert symmetric_box(0.6e308, 3).diameter() == math.inf
    # in the normal range the scaling is exact: the plain norm, bit for bit
    rng = np.random.default_rng(8)
    for d in (1, 2, 7, 40):
        lower = rng.normal(size=d) * 10.0 ** rng.integers(-50, 50, d)
        upper = lower + np.abs(rng.normal(size=d)) * 10.0 ** rng.integers(-50, 50, d)
        assert Box(lower, upper).diameter() == float(np.linalg.norm(upper - lower))


def test_product_diameter_is_root_sum_square():
    prod = ProductSet((symmetric_box(1.0, 2), Ball(np.zeros(2), 5.0)))
    assert math.isclose(prod.diameter(), math.sqrt(8.0 + 100.0))


def test_degenerate_box():
    with pytest.raises(MonolearnError):
        Box([1.0], [0.0])
    with pytest.raises(MonolearnError):
        Ball(np.zeros(2), 0.0)


# -- one validator: check_param at every boundary -------------------------

NAN = math.nan
BOX2 = symmetric_box(1.0, 2)

# a bad value of each kind where a list of two finite numbers is wanted; at
# the parent's rule a bool read as 1.0 and a 2-d array was flattened
BAD_VECTORS = {
    "bool": [True, 0.5],
    "2d": np.zeros((1, 2)),
    "2d_column": np.zeros((2, 1)),
    "nan": [NAN, 0.0],
    "length": [0.0, 0.0, 0.0],
}


def pair_game(start):
    return GameOracle([symmetric_box(1.0, 1)] * 2, 1.0,
                      affine=(np.zeros((2, 2)), np.zeros(2)), start=start)


def play_adaptive(gradient):
    play_rows(make_learner("gd", BOX2, np.zeros(2), eta=0.1), lambda t, a: gradient, 4)


def play_oblivious(width, row):
    def fill(rows):
        rows[:] = 0.0
        rows[1] = row

    play_rows(make_learner("gd", BOX2, np.zeros(2), eta=0.1), Oblivious(width, fill), 4)


# boundary -> (key of its error, a call that passes a value where two
# numbers are wanted)
VECTOR_BOUNDARIES = {
    "make_learner": ("x1", lambda v: make_learner("aog", BOX2, v, eta=0.1)),
    "box": ("upper", lambda v: Box([-1.0, -1.0], v)),
    "game_oracle": ("start", pair_game),
    "adaptive_source": ("round 1: gradient from the source", play_adaptive),
}

# A ball's center sets its dimension, so no length is wrong. Where a
# boundary takes a number, one outside its rule (an inf radius, a
# fractional dimension) stands in for a wrong length. An oblivious source
# writes into the float rows it is given, so it cannot hand over a bool or
# a 2-d array.
OTHER_CASES = {
    "center-bool": ("center", lambda: Ball([True, 0.5], 1.0)),
    "center-2d": ("center", lambda: Ball(np.zeros((1, 2)), 1.0)),
    "center-nan": ("center", lambda: Ball([NAN, 0.0], 1.0)),
    "radius-bool": ("radius", lambda: Ball([0.0, 0.0], True)),
    "radius-2d": ("radius", lambda: Ball([0.0, 0.0], np.ones((1, 1)))),
    "radius-nan": ("radius", lambda: Ball([0.0, 0.0], NAN)),
    "radius-inf": ("radius", lambda: Ball([0.0, 0.0], math.inf)),
    "dimension-bool": ("dimension", lambda: Unconstrained(True)),
    "dimension-2d": ("dimension", lambda: Unconstrained(np.ones((1, 1), dtype=int))),
    "dimension-nan": ("dimension", lambda: Unconstrained(NAN)),
    "dimension-fraction": ("dimension", lambda: Unconstrained(2.5)),
    "upper-below-lower": ("upper", lambda: Box([-1.0, 1.0], [1.0, 0.0])),
    # a bound may be infinite only on its own side, and never NaN
    "lower-nan": ("lower", lambda: Box([NAN, 0.0], [1.0, 1.0])),
    "lower-inf": ("lower", lambda: Box([math.inf, 0.0], [math.inf, 1.0])),
    "upper-minus-inf": ("upper", lambda: Box([-1.0, -1.0], [-math.inf, 1.0])),
    "oblivious-nan": ("round 2: gradient from the source", lambda: play_oblivious(2, NAN)),
    "oblivious-length": ("round 1: gradient from the source", lambda: play_oblivious(3, 0.0)),
}


def assert_refused_naming(key, call):
    with pytest.raises(MonolearnError) as info:
        call()
    message = str(info.value)
    assert message.startswith(f"{key}: ") and "\n" not in message
    return message


@pytest.mark.parametrize("kind", sorted(BAD_VECTORS))
@pytest.mark.parametrize("boundary", sorted(VECTOR_BOUNDARIES))
def test_every_vector_boundary_refuses_bad_values_naming_its_key(boundary, kind):
    key, call = VECTOR_BOUNDARIES[boundary]
    message = assert_refused_naming(key, lambda: call(BAD_VECTORS[kind]))
    if kind == "length":
        assert message == f"{key}: expected dimension 2, got 3"


@pytest.mark.parametrize("case", sorted(OTHER_CASES))
def test_set_constructors_and_sources_refuse_bad_values_naming_their_key(case):
    assert_refused_naming(*OTHER_CASES[case])


@pytest.mark.parametrize("value", [np.full(100, NAN), np.zeros((10, 10)), np.zeros((100, 1))])
def test_a_refused_long_value_is_one_line(value):
    assert "\n" in repr(value)  # numpy wraps it; the error does not
    box = symmetric_box(1.0, 100)
    assert_refused_naming("x1", lambda: make_learner("gd", box, value, eta=0.1))
    assert_refused_naming("upper", lambda: Box(-np.ones(100), value))
    assert_refused_naming("center", lambda: Ball(value, 1.0))
    learner = make_learner("gd", box, np.zeros(100), eta=0.1)
    assert_refused_naming("round 1: gradient from the source",
                          lambda: play_rows(learner, lambda t, a: value, 2))


def test_box_bounds_may_be_infinite_on_their_own_side():
    box = Box([-math.inf, 0], [1.0, math.inf])
    assert box.lower.tolist() == [-math.inf, 0.0] and box.upper.tolist() == [1.0, math.inf]
    assert box.diameter() == math.inf and not box.is_bounded
    assert box.project([-1e300, 1e300]).tolist() == [-1e300, 1e300]
    with pytest.raises(MonolearnError, match="^support minimization is unbounded$"):
        box.support_min(np.array([1.0, 1.0]))
    free = Unconstrained(3)
    assert isinstance(free, Box) and free.dim == 3
    assert free.lower.tolist() == [-math.inf] * 3 and free.upper.tolist() == [math.inf] * 3


def test_box_residual_tests_a_bound_exactly():
    # a coordinate within 1e-9 of a bound, not on it, is interior: its
    # outward gradient counts
    box = Box([0.0, -1.0], [1.0, 1.0])
    assert box.tangent_residual(np.array([1e-12, 1.0 - 1e-12]), np.array([3.0, -4.0])) == 5.0
    assert box.tangent_residual(np.array([0.0, 1.0]), np.array([3.0, -4.0])) == 0.0


def test_vectors_come_back_as_flat_float_arrays():
    box = Box([-1, 0], np.array([1, 2], dtype=np.int32))
    assert box.lower.dtype == box.upper.dtype == np.float64
    assert make_learner("gd", box, (0, 1), eta=0.1).x1.tolist() == [0.0, 1.0]


def test_the_package_keeps_its_own_copies_of_arrays():
    # a write to the caller's array after construction changes nothing the
    # package keeps
    lo, hi, center = np.array([-1.0]), np.array([1.0]), np.zeros(2)
    box, ball = Box(lo, hi), Ball(center, 1.0)
    lo[0], hi[0], center[0] = 0.5, 0.75, 0.5
    assert box.lower.tolist() == [-1.0] and box.upper.tolist() == [1.0]
    assert box.project(np.zeros(1)).tolist() == [0.0]
    assert ball.center.tolist() == [0.0, 0.0]
    x1, start = np.ones(2), np.ones(2)
    learner = make_learner("aog", Unconstrained(2), x1, eta=0.1)
    game = GameOracle([Unconstrained(2)], 1.0, affine=(np.eye(2), np.zeros(2)), start=start)
    x1[0] = start[0] = 5.0
    assert learner.x1.tolist() == game.start.tolist() == [1.0, 1.0]
    # the operator stays the one its certificate is for
    M, r = np.eye(2), np.zeros(2)
    game = GameOracle([symmetric_box(1.0, 2)], 1.0, affine=(M, r)).validate()
    M[0, 0], r[1] = 3.0, 1.0
    assert game.gradient_fn(np.ones(2)).tolist() == [1.0, 1.0]
    assert game.affine[0].tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert game.affine[1].tolist() == [0.0, 0.0]
