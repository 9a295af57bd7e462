"""Game oracles: joint gradient operators with per-player structure.

A :class:`GameOracle` bundles the per-player feasible sets, the joint
gradient operator ``V`` (stacking each player's own-action gradient), a
Lipschitz bound ``L``, and, when available, per-player loss functions and
exact best responses. Built-in instances cover the bilinear saddle game,
a banded quadratic-bilinear min-max game, and a seeded random linear
monotone operator.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    FeasibleSet,
    Unconstrained,
    _as_vector,
    product,
    symmetric_box,
)

PROBE_SEED = 42
PROBE_PAIRS = 1000


class GameError(ValueError):
    pass


def player_slices(player_dims):
    start = 0
    for d in player_dims:
        yield slice(start, start + d)
        start += d


@dataclass
class GameOracle:
    """Gradient oracle of a smooth monotone game.

    ``gradient_fn`` maps a flat joint action vector to the flat joint
    gradient; ``losses`` (optional) is one callable per player on flat
    joint vectors; ``best_response_fn`` (optional) maps
    ``(player, flat_profile)`` to ``(action, value)``. ``start`` is the
    default initial profile, projected onto the joint set (the projection
    of 0 when not given). The joint set is built once, at construction (see
    :func:`geometry.product`).
    """

    player_sets: list
    lipschitz_bound: float
    gradient_fn: object
    losses: list = None
    best_response_fn: object = None
    name: str = "custom"
    nash: np.ndarray = None
    start: np.ndarray = None
    metadata: dict = field(default_factory=dict)
    joint_set: FeasibleSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.lipschitz_bound <= 0:
            raise GameError("Lipschitz bound must be positive")
        self.player_sets = list(self.player_sets)
        self.joint_set = product(self.player_sets)
        start = np.zeros(self.dim) if self.start is None else self.start
        self.start = self.joint_set.project(start)

    @property
    def num_players(self):
        return len(self.player_sets)

    @property
    def player_dims(self):
        return tuple(s.dim for s in self.player_sets)

    @property
    def dim(self):
        return sum(self.player_dims)

    def diameter(self):
        return self.joint_set.diameter()

    def slices(self):
        return list(player_slices(self.player_dims))

    def gradient(self, profile):
        """Joint gradient V at a feasible profile (flat vector in, flat out)."""
        x = _as_vector(profile, self.dim)
        if not self.joint_set.contains(x):
            raise GameError("profile is infeasible")
        g = _as_vector(self.gradient_fn(x), self.dim)
        return g

    def loss(self, player, profile):
        if self.losses is None:
            raise GameError(f"game {self.name!r} does not expose losses")
        return float(self.losses[player](_as_vector(profile, self.dim)))

    @property
    def has_best_response(self):
        return self.best_response_fn is not None

    def best_response(self, player, profile):
        """Exact (argmin, min) of player's loss over own actions, others fixed."""
        if self.best_response_fn is None:
            raise GameError(f"game {self.name!r} has no exact best response")
        x = _as_vector(profile, self.dim)
        action, value = self.best_response_fn(player, x)
        return _as_vector(action, self.player_dims[player]), float(value)

    def validate(self, seed=PROBE_SEED, pairs=PROBE_PAIRS):
        """Probe monotonicity and the Lipschitz bound on random feasible pairs."""
        rng = np.random.default_rng(seed)
        joint = self.joint_set
        for _ in range(pairs):
            x, y = joint.sample(rng), joint.sample(rng)
            dx = x - y
            dg = self.gradient_fn(x) - self.gradient_fn(y)
            nx = float(np.linalg.norm(dx))
            if float(dg @ dx) < -1e-10 * nx * nx:
                raise GameError(f"game {self.name!r} failed the monotonicity probe")
            if float(np.linalg.norm(dg)) > (self.lipschitz_bound + 1e-8) * nx:
                raise GameError(f"game {self.name!r} failed the Lipschitz probe")
        return self


def _linear_best_response(coeff_fn, player_sets):
    """Best response for losses linear in the player's own action."""

    def br(player, x):
        return player_sets[player].support_min(coeff_fn(player, x))

    return br


def make_bilinear_saddle(payoff_scale=1.0, box_radius=1.0, dims=(1, 1), validate=True):
    """Two-player zero-sum game f(x, y) = scale * <x, y> over symmetric boxes.

    Player 1 minimizes f, player 2 minimizes -f; the joint operator is the
    skew map (scale * y, -scale * x) with Lipschitz constant ``scale``. The
    start point is halfway from the Nash point 0 to the upper corner, so
    runs actually have to converge.
    """
    if payoff_scale <= 0 or box_radius <= 0:
        raise GameError("scale and radius must be positive")
    dx, dy = dims
    if dx != dy:
        raise GameError("bilinear coupling <x, y> requires equal player dims")
    s = float(payoff_scale)
    sets = [symmetric_box(box_radius, dx), symmetric_box(box_radius, dy)]

    def grad(z):
        x, y = z[:dx], z[dx:]
        return np.concatenate([s * y, -s * x])

    def f(z):
        return s * float(z[:dx] @ z[dx:])

    def br_coeff(player, z):
        return s * z[dx:] if player == 0 else -s * z[:dx]

    game = GameOracle(
        player_sets=sets,
        lipschitz_bound=s,
        gradient_fn=grad,
        losses=[f, lambda z: -f(z)],
        best_response_fn=_linear_best_response(br_coeff, sets),
        name="bilinear",
        nash=np.zeros(dx + dy),
        start=np.full(dx + dy, 0.5 * float(box_radius)),
    )
    return game.validate() if validate else game


def banded_coupling_matrix(n):
    """1/4 times the anti-diagonal band: row 0 has +1 in the last column,
    row i >= 1 has -1 at column n-1-i and +1 at column n-i."""
    if n < 2:
        raise GameError("band matrix needs n >= 2")
    A = np.zeros((n, n))
    A[0, n - 1] = 1.0
    for i in range(1, n):
        A[i, n - 1 - i] = -1.0
        A[i, n - i] = 1.0
    return A / 4.0


def make_appendix_e_instance(n=100, box_half_width=200.0, validate=True):
    """Quadratic-bilinear min-max game f(x,y) = x'Hx/2 - h'x - <Ax - b, y>.

    ``A`` is the banded coupling matrix, ``b = ones/4``, ``h = e_n/4``,
    ``H = 2A'A``; both players live in [-w, w]^n. The operator norms satisfy
    ||A|| <= 1/2 and ||H|| <= 1/2, so the game is 1-smooth.
    """
    if n < 2:
        raise GameError("instance requires n >= 2")
    A = banded_coupling_matrix(n)
    b = np.full(n, 0.25)
    h = np.zeros(n)
    h[n - 1] = 0.25
    H = 2.0 * A.T @ A
    sets = [symmetric_box(box_half_width, n), symmetric_box(box_half_width, n)]

    def f(z):
        x, y = z[:n], z[n:]
        return float(0.5 * x @ H @ x - h @ x - (A @ x - b) @ y)

    def grad(z):
        x, y = z[:n], z[n:]
        return np.concatenate([H @ x - h - A.T @ y, A @ x - b])

    game = GameOracle(
        player_sets=sets,
        lipschitz_bound=1.0,
        gradient_fn=grad,
        losses=[f, lambda z: -f(z)],
        best_response_fn=None,  # not exposed: mixed exact/upper-bound reporting is disallowed
        name="appendix_e",
        start=np.full(2 * n, 1.0 / n),
        metadata={"A": A, "b": b, "h": h, "H": H},
    )
    return game.validate() if validate else game


def make_appendix_d_toy(validate=True):
    """The 1+1-dimensional unit bilinear game f(y1, y2) = y1 * y2 on [-1,1]^2."""
    game = make_bilinear_saddle(1.0, 1.0, (1, 1), validate=validate)
    game.name = "appendix_d_toy"
    return game


def make_random_linear_monotone(
    dims=(1, 1), skew_scale=1.0, psd_diag=0.1, seed=0, bounded=None, validate=True
):
    """Linear monotone operator V(z) = M z + r with M = skew + psd_diag * I.

    The Nash equilibrium solves V(z) = 0 and is recorded on the oracle.
    ``bounded``, if given, wraps each player in a symmetric box of that
    half-width (the Nash point may then sit outside; leave unbounded for
    rate experiments that need it).

    The symmetric part of M is exactly ``psd_diag * I`` (the skew part is
    antisymmetric in floating point too), so the operator is monotone iff
    ``psd_diag >= 0``; that is checked exactly, with no probe or
    eigen-decomposition.
    """
    if not psd_diag >= 0:
        raise GameError("psd_diag must be nonnegative for a monotone operator")
    rng = np.random.default_rng(seed)
    dim = sum(dims)
    B = rng.standard_normal((dim, dim))
    M = skew_scale * (B - B.T) / 2.0 + psd_diag * np.eye(dim)
    r = rng.standard_normal(dim)
    nash = np.linalg.solve(M, -r)
    if bounded is None:
        sets = [Unconstrained(d) for d in dims]
    else:
        sets = [symmetric_box(bounded, d) for d in dims]
    L = float(np.linalg.norm(M, 2))
    game = GameOracle(
        player_sets=sets,
        lipschitz_bound=L,
        gradient_fn=lambda z: M @ z + r,
        name="random_linear_monotone",
        nash=nash,
        start=np.ones(dim),
        metadata={"M": M, "r": r},
    )
    if validate and bounded is not None:
        game.validate()
    return game


GAME_BUILDERS = {
    "bilinear": make_bilinear_saddle,
    "appendix_e": make_appendix_e_instance,
    "appendix_d_toy": make_appendix_d_toy,
    "random_linear_monotone": make_random_linear_monotone,
}


def make_game(game_id, **params):
    """Build a built-in instance by string id."""
    try:
        builder = GAME_BUILDERS[game_id]
    except KeyError:
        raise GameError(
            f"unknown game id {game_id!r}; known: {sorted(GAME_BUILDERS)}"
        ) from None
    known = inspect.signature(builder).parameters
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise GameError(f"game_params: unknown keys {unknown} for {game_id!r}; "
                        f"known: {sorted(known)}")
    return builder(**params)
