"""Game oracles: joint gradient operators with per-player structure.

A :class:`GameOracle` bundles the per-player feasible sets, the joint
gradient operator ``V`` (stacking each player's own-action gradient), a
Lipschitz bound ``L``, and, when available, per-player loss functions and
exact best responses. Every operator is affine, V(z) = M z + r, given as
``affine=(M, r)``: the one operator form. Built-in instances cover the
bilinear saddle game, a banded quadratic-bilinear min-max game, and a
seeded random linear monotone operator. Monotonicity and the Lipschitz
bound are certified exactly, in two tiers (:meth:`GameOracle.validate`):
first the O(n^2) Gershgorin and Schur bounds, which ``bilinear`` and
``appendix_e`` meet exactly, and only if one fails, lambda_min((M + M^T)/2)
and ||M||_2 from symmetric eigen-solves (:func:`spectral_norm`).
"""

from __future__ import annotations

import inspect
import math
import numbers
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
    """Bad input, named in its message; ``harness.ConfigError`` is this class."""


def spectral_norm(M):
    """||M||_2 as sqrt(lambda_max(M^T M)): one ``eigvalsh`` of the Gram
    matrix, which numpy forms with one ``syrk``, in place of a full SVD.

    M is first scaled by the power of two 2^-e that brings max|M| into
    [1/2, 1), and the result is scaled back by 2^e. A power-of-two scaling
    rounds nothing in the normal range, and the Gram matrix of the scaled
    copy neither overflows nor underflows for entries from 1e-300 to 1e300.
    The zero matrix has norm 0, and a norm past the float range is inf; a
    matrix with a non-finite entry raises :class:`GameError`.
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
    try:
        return math.ldexp(math.sqrt(np.linalg.eigvalsh(gram)[-1]), e)
    except OverflowError:
        return math.inf


def check_param(key, value, least=None, vector=False):
    """``value``, checked by the one rule for every number a user passes: a
    config key, CLI flag, game parameter or learner argument ``key``. Else
    one :class:`GameError`, ``<key>: must be <rule>, got <value>``. The type
    of ``least`` picks the rule: an int, an integer in [least, 2**63); None,
    a finite number > 0; a float, a finite number >= ``least`` (any at -inf).
    A real is converted to float first, so one past the float range is
    refused, and a bool is no number. With ``vector``, ``value`` is a list
    (or 1-d array) of finite numbers, checked as one array, and ``least`` is
    not read."""
    if vector:
        want = "a list of finite numbers"
        # numpy reads a list of numbers as ints or floats, and one with an
        # integer from 2**64 on, or with no number, as objects or text
        try:
            v = np.asarray(value)
        except ValueError:  # ragged nested lists
            v = np.asarray(None)
        ok = (v.ndim == 1 and v.dtype.kind in "iuf" and bool not in map(type, value)
              and bool(np.isfinite(v).all()))
    elif isinstance(least, int):
        want = f"an integer in [{least}, 2**63)"
        ok = (isinstance(value, numbers.Integral) and not isinstance(value, bool)
              and least <= value < 2**63)
    else:
        want = "a finite number" + (" > 0" if least is None
                                    else f" >= {least}" if least > -math.inf else "")
        try:
            v = (float(value) if isinstance(value, numbers.Real)
                 and not isinstance(value, bool) else math.nan)
        except OverflowError:
            v = math.nan
        ok = math.isfinite(v) and (v > 0 if least is None else v >= least)
    if not ok:
        raise GameError(f"{key}: must be {want}, got {value!r}")
    return value


def game_dims(dims):
    """The builder parameter ``dims``: a non-empty list of integers >= 1;
    anything else raises one :class:`GameError` that names ``dims``."""
    if not isinstance(dims, (list, tuple)) or not dims:
        raise GameError(f"game_params: dims: must be a non-empty list of integers >= 1, "
                        f"got {dims!r}")
    return [check_param("game_params: dims", d, 1) for d in dims]


def game_boxes(key, half_width, dims):
    """One symmetric box of half-width ``half_width`` per player dimension in
    ``dims``, for the builder parameter ``key``; an inf joint diameter (only
    a box past 1e300 can have one, so only such a box is built to check)
    raises too."""
    key = f"game_params: {key}"
    w, n = check_param(key, half_width), sum(dims)
    if w * math.sqrt(n) > 1e300 and not math.isfinite(symmetric_box(w, n).diameter()):
        raise GameError(f"{key}: {half_width!r} gives a box of inf diameter")
    return [symmetric_box(half_width, d) for d in dims]


def player_slices(player_dims):
    start = 0
    for d in player_dims:
        yield slice(start, start + d)
        start += d


@dataclass
class GameOracle:
    """Gradient oracle of a smooth monotone game with V(z) = M z + r.

    ``affine=(M, r)``, a finite (dim, dim) M and (dim,) r, is the operator;
    ``gradient_fn``, derived from it, maps a flat joint action vector to the
    flat joint gradient. ``losses`` (optional) holds one callable per player,
    and ``best_response_fn`` (optional, needs ``losses``) maps ``(player,
    Z)`` to the exact minimizers and minimum values. Both take ``(k, dim)`` rows
    ``Z`` of feasible joint profiles, unchecked, and return ``(k,)`` values,
    and the minimizers as ``(k, d_i)`` rows. ``start`` is the default initial
    profile, checked and projected onto the joint set (the projection of 0
    when not given). The joint set and the dimensions ``player_dims`` and
    ``dim`` are computed once, at construction (see :func:`geometry.product`).
    """

    player_sets: list
    lipschitz_bound: float
    affine: tuple
    losses: list = None
    best_response_fn: object = None
    name: str = "custom"
    start: np.ndarray = None
    gradient_fn: object = field(init=False, repr=False, compare=False)
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
        M, r = self.affine
        n = self.dim
        if np.shape(M) != (n, n) or np.shape(r) != (n,) or not (
                np.isfinite(M).all() and np.isfinite(r).all()):
            raise GameError(f"affine: need a finite ({n}, {n}) M and a finite ({n},) r, "
                            f"got shapes {np.shape(M)} and {np.shape(r)}")
        self.gradient_fn = lambda z: M @ z + r
        if self.best_response_fn is not None and self.losses is None:
            raise GameError("best_response_fn needs the players' losses")
        start = np.zeros(self.dim) if self.start is None else self.start
        self.start = self.joint_set.project(_as_vector(start, self.dim))

    @property
    def num_players(self):
        return len(self.player_sets)

    def diameter(self):
        return self.joint_set.diameter()

    def slices(self):
        return list(player_slices(self.player_dims))

    @property
    def has_best_response(self):
        return self.best_response_fn is not None

    def validate(self):
        """Certify monotonicity and the Lipschitz bound exactly: monotone iff
        lambda_min((M + M^T)/2) >= 0, and L >= ||M||_2.

        The certificate has two tiers. First two O(n^2) sufficient bounds:
        Gershgorin's lambda_min(S) >= min_i (S_ii - sum_{j!=i} |S_ij|) on
        S = (M + M^T)/2, and Schur's ||M||_2 <= sqrt(||M||_1 ||M||_inf).
        If both pass, no eigen-solve runs. Else lambda_min(S) comes from
        ``eigvalsh`` and ||M||_2 from :func:`spectral_norm`, and a failing
        value is reported.
        """
        L, M = self.lipschitz_bound, self.affine[0]
        floor, cap = -1e-10 * max(1.0, L), L + 1e-8
        S = (M + M.T) / 2.0
        d = np.diagonal(S)
        gershgorin = (d + np.abs(d) - np.abs(S).sum(axis=1)).min()
        absM = np.abs(M)
        # two square roots, so the product cannot overflow
        schur = math.sqrt(absM.sum(axis=0).max()) * math.sqrt(absM.sum(axis=1).max())
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


def make_bilinear_saddle(payoff_scale=1.0, box_radius=1.0, dims=(1, 1)):
    """Two-player zero-sum game f(x, y) = scale * <x, y> over symmetric boxes.

    Player 1 minimizes f, player 2 minimizes -f; the joint operator is the
    skew map (scale * y, -scale * x), M = scale * [[0, I], [-I, 0]], with
    Lipschitz constant ``scale``. The start point is halfway from the Nash
    point 0 to the upper corner, so runs actually have to converge.
    """
    check_param("game_params: payoff_scale", payoff_scale)
    dims = game_dims(dims)
    if len(dims) != 2 or dims[0] != dims[1]:
        raise GameError(f"dims: the bilinear coupling <x, y> needs two equal player "
                        f"dimensions, got {dims}")
    dx, dy = dims
    s = float(payoff_scale)
    sets = game_boxes("box_radius", box_radius, dims)
    M = s * np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(dx))
    r = np.zeros(2 * dx)
    blocks = [(M[:dx].T, r[:dx]), (M[dx:].T, r[dx:])]

    def best_response_rows(player, Z):
        # Each loss is <player's block of M z + r, own action>, linear in the
        # own action, so its minimum is the support minimum of that block.
        M_iT, r_i = blocks[player]
        return sets[player].support_min(Z @ M_iT + r_i)

    def f(Z):
        return s * np.vecdot(Z[:, :dx], Z[:, dx:])

    return GameOracle(
        player_sets=sets,
        lipschitz_bound=s,
        affine=(M, r),
        losses=[f, lambda Z: -f(Z)],
        best_response_fn=best_response_rows,
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
    check_param("game_params: n", n, 2)
    sets = game_boxes("box_half_width", box_half_width, [n, n])
    A = banded_coupling_matrix(n)
    b = np.full(n, 0.25)
    h = np.zeros(n)
    h[n - 1] = 0.25
    H = 2.0 * A.T @ A
    return GameOracle(
        player_sets=sets,
        lipschitz_bound=1.0,
        affine=(np.block([[H, -A.T], [A, np.zeros((n, n))]]), np.concatenate([-h, -b])),
        # no losses or exact best responses: the gap columns are linearized
        name="appendix_e",
        start=np.full(2 * n, 1.0 / n),
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
    dims = game_dims(dims)
    check_param("game_params: skew_scale", skew_scale, -math.inf)
    check_param("game_params: psd_diag", psd_diag, 0.0)
    rng = np.random.default_rng(check_param("game_params: seed", seed, 0))
    dim = sum(dims)
    B = rng.standard_normal((dim, dim))
    with np.errstate(over="ignore"):  # reported below, with the key to blame
        M = skew_scale * (B - B.T) / 2.0 + psd_diag * np.eye(dim)
    del B  # freed before spectral_norm forms its Gram matrix: peak memory
    if not (math.isfinite(M.max()) and math.isfinite(M.min())):
        raise GameError(f"game_params: skew_scale: {skew_scale!r} overflows the operator matrix")
    L = spectral_norm(M)
    if not math.isfinite(L):
        raise GameError(f"game_params: skew_scale: {skew_scale!r} gives ||M||_2 past the "
                        f"float range")
    r = rng.standard_normal(dim)
    sets = ([Unconstrained(d) for d in dims] if bounded is None
            else game_boxes("bounded", bounded, dims))
    return GameOracle(
        player_sets=sets,
        lipschitz_bound=L,
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
    return builder(**params)
