"""Game oracles: joint gradient operators with per-player structure.

A :class:`GameOracle` bundles the per-player feasible sets, the joint
gradient operator ``V`` (stacking each player's own-action gradient), a
Lipschitz bound ``L``, and, when available, per-player loss functions and
exact best responses. Built-in instances cover the bilinear saddle game,
a banded quadratic-bilinear min-max game, and a seeded random linear
monotone operator. Each is affine, V(z) = M z + r, and passes ``(M, r)``,
so monotonicity and the Lipschitz bound are certified exactly, in two tiers
(:meth:`GameOracle.validate`): first the O(n^2) Gershgorin and Schur bounds,
which ``bilinear`` and ``appendix_e`` meet exactly, and only if one fails,
lambda_min((M + M^T)/2) and ||M||_2 from symmetric eigen-solves
(:func:`spectral_norm`).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    FeasibleSet,
    Unconstrained,
    _as_vector,
    product,
    symmetric_box,
)


class GameError(ValueError):
    pass


def spectral_norm(M):
    """||M||_2 as sqrt(lambda_max(M^T M)): one ``eigvalsh`` of the Gram
    matrix, which numpy forms with one ``syrk``, in place of a full SVD.

    M is first scaled by the power of two 2^-e that brings max|M| into
    [1/2, 1), and the result is scaled back by 2^e. A power-of-two scaling
    rounds nothing in the normal range, and the Gram matrix of the scaled
    copy neither overflows nor underflows for entries from 1e-300 to 1e300.
    The zero matrix has norm 0; a matrix with a non-finite entry raises
    :class:`GameError`.
    """
    peak = max(float(M.max(initial=0.0)), -float(M.min(initial=0.0)))
    if not math.isfinite(peak):
        raise GameError(f"operator matrix has a non-finite entry (max |M| = {peak!r})")
    if peak == 0.0:
        return 0.0
    e = math.frexp(peak)[1]
    # The Gram matrix is allocated before the scaled copy, so the copy, freed
    # first, leaves room that eigvalsh's own work copy reuses.
    gram = np.empty((M.shape[1], M.shape[1]))
    S = np.ldexp(M, -e)
    np.matmul(S.T, S, out=gram)
    del S
    return math.ldexp(math.sqrt(np.linalg.eigvalsh(gram)[-1]), e)


def player_slices(player_dims):
    start = 0
    for d in player_dims:
        yield slice(start, start + d)
        start += d


@dataclass
class GameOracle:
    """Gradient oracle of a smooth monotone game.

    ``gradient_fn`` maps a flat joint action vector to the flat joint
    gradient; for V(z) = M z + r, pass ``affine=(M, r)`` and the oracle sets
    it. ``losses`` (optional) holds one callable per player, and
    ``best_response_fn`` (optional, needs ``losses``) maps ``(player, Z)``
    to the exact minimizers and minimum values. Both take ``(k, dim)`` rows
    ``Z`` of joint profiles and return ``(k,)`` values, and the minimizers
    as ``(k, d_i)`` rows; :meth:`loss` and :meth:`best_response` are their
    checked one-profile forms. ``start`` is the default initial profile,
    projected onto the joint set (the projection of 0 when not given). The
    joint set and the dimensions ``player_dims`` and ``dim`` are computed
    once, at construction (see :func:`geometry.product`).
    """

    player_sets: list
    lipschitz_bound: float
    gradient_fn: object = None
    losses: list = None
    best_response_fn: object = None
    name: str = "custom"
    start: np.ndarray = None
    affine: tuple = None
    metadata: dict = field(default_factory=dict)
    joint_set: FeasibleSet = field(init=False, repr=False, compare=False)
    player_dims: tuple = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.lipschitz_bound) and self.lipschitz_bound > 0):
            raise GameError(f"Lipschitz bound must be finite and positive, "
                            f"got {self.lipschitz_bound!r}")
        self.player_sets = list(self.player_sets)
        self.player_dims = tuple(s.dim for s in self.player_sets)
        self.dim = sum(self.player_dims)
        self.joint_set = product(self.player_sets)
        if self.affine is not None:
            if self.gradient_fn is not None:
                raise GameError("give affine=(M, r) or gradient_fn, not both")
            M, r = self.affine
            self.gradient_fn = lambda z: M @ z + r
        elif self.gradient_fn is None:
            raise GameError("need affine=(M, r) or gradient_fn")
        if self.best_response_fn is not None and self.losses is None:
            raise GameError("best_response_fn needs the players' losses")
        start = np.zeros(self.dim) if self.start is None else self.start
        self.start = self.joint_set.project(start)

    @property
    def num_players(self):
        return len(self.player_sets)

    def diameter(self):
        return self.joint_set.diameter()

    def slices(self):
        return list(player_slices(self.player_dims))

    def gradient(self, profile):
        """Joint gradient V at a feasible profile (flat vector in, flat out)."""
        x = _as_vector(profile, self.dim)
        if not self.joint_set.contains(x):
            raise GameError("profile is infeasible")
        return _as_vector(self.gradient_fn(x), self.dim)

    def loss(self, player, profile):
        if self.losses is None:
            raise GameError(f"game {self.name!r} does not expose losses")
        return float(self.losses[player](_as_vector(profile, self.dim)[None])[0])

    @property
    def has_best_response(self):
        return self.best_response_fn is not None

    def best_response(self, player, profile):
        """Exact (argmin, min) of player's loss over own actions, others fixed."""
        if self.best_response_fn is None:
            raise GameError(f"game {self.name!r} has no exact best response")
        action, value = self.best_response_fn(player, _as_vector(profile, self.dim)[None])
        return _as_vector(action, self.player_dims[player]), float(value[0])

    def validate(self, seed=42, pairs=1000):
        """Certify monotonicity and the Lipschitz bound: exactly for an affine
        operator (monotone iff lambda_min((M + M^T)/2) >= 0, L >= ||M||_2),
        else on ``pairs`` random feasible pairs.

        The affine certificate has two tiers. First two O(n^2) sufficient
        bounds: Gershgorin's lambda_min(S) >= min_i (S_ii - sum_{j!=i} |S_ij|)
        on S = (M + M^T)/2, and Schur's ||M||_2 <= sqrt(||M||_1 ||M||_inf).
        If both pass, no eigen-solve runs. Else lambda_min(S) comes from
        ``eigvalsh`` and ||M||_2 from :func:`spectral_norm`, and a failing
        value is reported.
        """
        L = self.lipschitz_bound
        if self.affine is not None:
            M = self.affine[0]
            floor, cap = -1e-10 * max(1.0, L), L + 1e-8
            S = (M + M.T) / 2.0
            d = np.diagonal(S)
            gershgorin = (d + np.abs(d) - np.abs(S).sum(axis=1)).min()
            absM = np.abs(M)
            # two square roots, so the product cannot overflow
            schur = math.sqrt(absM.sum(axis=0).max()) * math.sqrt(
                absM.sum(axis=1).max())
            if gershgorin >= floor and schur <= cap:
                return self
            low = float(np.linalg.eigvalsh(S)[0])
            norm = spectral_norm(M)
            if low < floor:
                raise GameError(f"game {self.name!r} is not monotone: "
                                f"lambda_min((M + M^T)/2) = {low!r}")
            if norm > cap:
                raise GameError(f"game {self.name!r}: ||M||_2 = {norm!r} > L = {L!r}")
            return self
        rng = np.random.default_rng(seed)
        joint = self.joint_set
        for _ in range(pairs):
            x, y = joint.sample(rng), joint.sample(rng)
            dx = x - y
            dg = self.gradient_fn(x) - self.gradient_fn(y)
            nx = float(np.linalg.norm(dx))
            if float(dg @ dx) < -1e-10 * nx * nx:
                raise GameError(f"game {self.name!r} failed the monotonicity probe")
            if float(np.linalg.norm(dg)) > (L + 1e-8) * nx:
                raise GameError(f"game {self.name!r} failed the Lipschitz probe")
        return self


def make_bilinear_saddle(payoff_scale=1.0, box_radius=1.0, dims=(1, 1)):
    """Two-player zero-sum game f(x, y) = scale * <x, y> over symmetric boxes.

    Player 1 minimizes f, player 2 minimizes -f; the joint operator is the
    skew map (scale * y, -scale * x), M = scale * [[0, I], [-I, 0]], with
    Lipschitz constant ``scale``. The start point is halfway from the Nash
    point 0 to the upper corner, so runs actually have to converge.
    """
    if payoff_scale <= 0 or box_radius <= 0:
        raise GameError("scale and radius must be positive")
    dx, dy = dims
    if dx != dy:
        raise GameError("bilinear coupling <x, y> requires equal player dims")
    s = float(payoff_scale)
    sets = [symmetric_box(box_radius, dx), symmetric_box(box_radius, dy)]
    M = s * np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(dx))
    r = np.zeros(2 * dx)
    blocks = [(M[:dx].T, r[:dx]), (M[dx:].T, r[dx:])]

    def best_response(player, Z):
        # Each loss is <player's block of M z + r, own action>, linear in the
        # own action. The rows are already checked: use the unchecked core.
        M_iT, r_i = blocks[player]
        return sets[player]._support_min(Z @ M_iT + r_i)

    def f(Z):
        return s * np.vecdot(Z[:, :dx], Z[:, dx:])

    return GameOracle(
        player_sets=sets,
        lipschitz_bound=s,
        affine=(M, r),
        losses=[f, lambda Z: -f(Z)],
        best_response_fn=best_response,
        name="bilinear",
        start=np.full(dx + dy, 0.5 * float(box_radius)),
    ).validate()


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


def make_appendix_e_instance(n=100, box_half_width=200.0):
    """Quadratic-bilinear min-max game f(x,y) = x'Hx/2 - h'x - <Ax - b, y>.

    ``A`` is the banded coupling matrix, ``b = ones/4``, ``h = e_n/4``,
    ``H = 2A'A``; both players live in [-w, w]^n. The joint operator has
    M = [[H, -A'], [A, 0]] and r = [-h; -b]. The operator norms satisfy
    ||A|| <= 1/2 and ||H|| <= 1/2, so the game is 1-smooth.

    Every entry is dyadic, so the O(n^2) certificate of
    :meth:`GameOracle.validate` is exact in binary. H is tridiagonal, with
    diagonal 1/4 (1/8 in the first row) and off-diagonal -1/8: weakly
    diagonally dominant, so the symmetric part diag(H, 0) has Gershgorin
    minimum exactly 0. A row or column of |M| sums to at most
    1/2 (of H or 0) + 1/2 (of A), so ||M||_1 = ||M||_inf <= 1 = L.
    """
    if n < 2:
        raise GameError("instance requires n >= 2")
    A = banded_coupling_matrix(n)
    b = np.full(n, 0.25)
    h = np.zeros(n)
    h[n - 1] = 0.25
    H = 2.0 * A.T @ A
    sets = [symmetric_box(box_half_width, n), symmetric_box(box_half_width, n)]

    def f(Z):
        X, Y = Z[:, :n], Z[:, n:]
        return np.vecdot(0.5 * X @ H, X) - X @ h - np.vecdot(X @ A.T - b, Y)

    return GameOracle(
        player_sets=sets,
        lipschitz_bound=1.0,
        affine=(np.block([[H, -A.T], [A, np.zeros((n, n))]]), np.concatenate([-h, -b])),
        losses=[f, lambda Z: -f(Z)],
        best_response_fn=None,  # not exposed: mixed exact/upper-bound reporting is disallowed
        name="appendix_e",
        start=np.full(2 * n, 1.0 / n),
        metadata={"A": A, "b": b, "h": h, "H": H},
    ).validate()


def make_appendix_d_toy():
    """The 1+1-dimensional unit bilinear game f(y1, y2) = y1 * y2 on [-1,1]^2."""
    game = make_bilinear_saddle(1.0, 1.0, (1, 1))
    game.name = "appendix_d_toy"
    return game


def make_random_linear_monotone(dims=(1, 1), skew_scale=1.0, psd_diag=0.1, seed=0,
                                bounded=None):
    """Linear monotone operator V(z) = M z + r with M = skew + psd_diag * I.

    ``bounded``, if given, wraps each player in a symmetric box of that
    half-width; leave it unbounded for rate experiments. Nothing solves
    M z = -r, so M may be singular (``psd_diag`` 0 and an odd dimension).

    It is certified by construction, with no spectral check: the symmetric
    part of M is exactly ``psd_diag * I`` (the skew part is antisymmetric in
    floating point too), so it is monotone iff ``psd_diag >= 0``; and
    L = ||M||_2, from :func:`spectral_norm`.
    """
    dims = list(dims)
    if not dims or any(d < 1 for d in dims):
        raise GameError(f"dims: need at least one player, each of dimension >= 1, "
                        f"got {dims}")
    if not math.isfinite(skew_scale):
        raise GameError(f"skew_scale: must be finite, got {skew_scale!r}")
    if not (math.isfinite(psd_diag) and psd_diag >= 0):
        raise GameError(f"psd_diag: must be finite and nonnegative for a monotone "
                        f"operator, got {psd_diag!r}")
    rng = np.random.default_rng(seed)
    dim = sum(dims)
    B = rng.standard_normal((dim, dim))
    with np.errstate(over="ignore"):  # reported below, with the key to blame
        M = skew_scale * (B - B.T) / 2.0 + psd_diag * np.eye(dim)
    del B  # freed before spectral_norm forms its Gram matrix: peak memory
    if not (math.isfinite(M.max()) and math.isfinite(M.min())):
        raise GameError(f"skew_scale: {skew_scale!r} overflows the operator matrix")
    r = rng.standard_normal(dim)
    if bounded is None:
        sets = [Unconstrained(d) for d in dims]
    else:
        sets = [symmetric_box(bounded, d) for d in dims]
    return GameOracle(
        player_sets=sets,
        lipschitz_bound=spectral_norm(M),
        affine=(M, r),
        name="random_linear_monotone",
        start=np.ones(dim),
    )


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
    try:
        return builder(**params)
    except TypeError as exc:  # a game_params value of the wrong type
        raise GameError(f"game_params: {exc}") from None
