"""Feasible sets with exact Euclidean projection and normal-cone machinery.

Supported sets: axis-aligned boxes, whose bounds may be infinite (the
unconstrained space is the box with every bound infinite), Euclidean balls,
and products of sets. All sets expose projection, the tangent residual
(distance from a gradient to the negative normal cone), support
minimization, and the diameter. All norms are Euclidean.

Projection, residual, support minimization and membership trust their
input: finite vectors of the set's dimension, and for the residual a
feasible point. Outside input is checked once, where it arrives, by
:func:`check_param`, the one rule for every number and vector a user
passes; the set constructors check their own arguments by it. Projection,
residual and support minimization also take ``(k, dim)`` arrays and answer
row by row, with the same rounding as one row at a time.
:func:`product` builds the joint set of several players: one ``Box`` for
boxes, bounded or not, and a ``ProductSet`` only for other factors.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# A point of a ball counts as on its sphere when its distance from the center
# is within REL_BOUND_TOL * radius of the radius: a projection onto the sphere
# lands on it in real arithmetic but drifts by ulps.
REL_BOUND_TOL = 1e-9

# ``contains`` accepts points within this distance of their projection.
MEMBERSHIP_TOL = 1e-9


class MonolearnError(ValueError):
    """The package's one error class: bad input, or a run that its input
    makes fail, named in the message."""


def check_param(key, value, least=None, vector=False):
    """``value``, checked by the one rule for every number and vector a user
    passes, named ``key``; else one :class:`MonolearnError` line, ``<key>:
    must be <rule>, got <value>``. The type of ``least`` picks a number's
    rule: an int, an integer in [least, 2**63); None, a finite number > 0; a
    float, a finite number >= ``least`` (any at -inf). A real is converted
    to float first, so one past the float range is refused; a bool is no
    number. With ``vector`` True or a length d, ``value`` is a list or 1-d
    array of finite numbers (``least`` unread), returned as a new 1-d float
    array; a wrong length is ``<key>: expected dimension d, got n``."""
    if vector is not False:
        return _check_vector(key, value, vector)
    if isinstance(least, int):
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
        raise _refusal(key, want, value)
    return value


def _check_vector(key, value, dim, unbounded=None):
    """:func:`check_param`'s vector rule, with length ``dim`` (any, if True);
    an entry equal to ``unbounded`` (-inf or inf, the infinite side of a
    box's bound) passes too: each entry is then < inf, or > -inf, which is
    one comparison, as the finite test is one ufunc."""
    # numpy reads a list of numbers as ints or floats, and one with an
    # integer from 2**64 on, or with no number, as objects or text
    try:
        v = np.asarray(value)
    except ValueError:  # ragged nested lists
        v = np.asarray(None)
    # an array's dtype tells if it holds bools; count_nonzero costs half
    # of .all() on the short gradient an adaptive source gives each round
    ok = (v.ndim == 1 and v.dtype.kind in "iuf"
          and (type(value) is np.ndarray or {bool, np.bool_}.isdisjoint(map(type, value)))
          and np.count_nonzero(np.isfinite(v) if unbounded is None
                               else v < math.inf if unbounded < 0 else v > -math.inf) == v.size)
    if not ok:
        want = "a list of finite numbers" + ("" if unbounded is None else f" or {unbounded}")
        raise _refusal(key, want, value)
    if dim is not True and v.size != dim:
        raise MonolearnError(f"{key}: expected dimension {dim}, got {v.size}")
    return v.astype(float)  # always a copy


def _refusal(key, want, value):
    # numpy wraps the repr of a long or 2-d array over several lines
    return MonolearnError(f"{key}: must be {want}, got {' '.join(repr(value).split())}")


def player_slices(player_dims):
    """Each player's slice of the joint vector, the dimensions laid end to end."""
    start = 0
    for d in player_dims:
        yield slice(start, start + d)
        start += d


def row_norms(v):
    """Euclidean norm over the last axis; equals ``np.linalg.norm`` of one row."""
    return np.sqrt(np.vecdot(v, v))


def scaled_row_norms(v):
    """:func:`row_norms` with no overflow or underflow in the squares: each
    row is scaled by the power of two 2^-e that brings its largest |entry|
    into [1/2, 1), and its norm is scaled back by 2^e. A power-of-two scaling
    rounds nothing in the normal range; a norm past the float range is inf
    (with numpy's overflow warning)."""
    e = np.frexp(np.abs(v).max(axis=-1, initial=0.0))[1]
    return np.ldexp(row_norms(np.ldexp(v, -e[..., None])), e)


class FeasibleSet:
    """Closed convex set supporting projection and normal-cone queries."""

    dim: int

    def contains(self, p):
        """Whether the point ``p`` is within ``MEMBERSHIP_TOL`` of its projection."""
        return float(np.linalg.norm(p - self.project(p))) <= MEMBERSHIP_TOL

    def diameter(self):
        """Euclidean diameter, or ``math.inf`` for unbounded sets."""
        raise NotImplementedError

    @property
    def is_bounded(self):
        return math.isfinite(self.diameter())

    def project(self, p):
        raise NotImplementedError

    def tangent_residual(self, p, g):
        """min over c in the normal cone at the feasible ``p`` of ||g + c||."""
        raise NotImplementedError

    def support_min(self, g):
        """(argmin, min) of <g, x> over the set.

        Ties are broken toward the componentwise-lowest minimizer, so regret
        traces are deterministic: a box takes its lower bound wherever
        g_j = 0, and a ball its center at g = 0.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Box(FeasibleSet):
    """The box lower <= x <= upper; a lower bound may be -inf and an upper
    bound inf, so a free coordinate is one with both bounds infinite."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _check_vector("lower", self.lower, True, -math.inf)
        hi = _check_vector("upper", self.upper, lo.size, math.inf)
        if np.any(lo > hi):
            j = int(np.argmax(lo > hi))
            raise MonolearnError(f"upper: must be >= lower componentwise, got upper[{j}] = "
                                 f"{hi[j]} < lower[{j}] = {lo[j]}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self):
        return self.lower.size

    def project(self, p):
        return np.minimum(np.maximum(p, self.lower), self.upper)

    def diameter(self):
        with np.errstate(over="ignore"):
            return float(scaled_row_norms(self.upper - self.lower))

    def tangent_residual(self, p, g):
        # p is feasible. Interior coordinate: the normal cone is {0},
        # contributes |g_j|. At the lower bound the cone is (-inf, 0], so only
        # g_j < 0 survives; symmetric at the upper bound. A pinned coordinate
        # contributes 0. "At a bound" is exact: every point a run measures
        # comes out of a clip, which returns the bound itself where it binds.
        contrib = np.where(p == self.lower, np.minimum(g, 0.0), g)
        contrib = np.where(p == self.upper, np.maximum(contrib, 0.0), contrib)
        return row_norms(contrib)

    def support_min(self, g):
        x = np.where(g < 0, self.upper, self.lower)
        if not np.isfinite(x).all():
            raise MonolearnError("support minimization is unbounded")
        return x, np.vecdot(x, g)


@dataclass(frozen=True)
class Ball(FeasibleSet):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", check_param("center", self.center, vector=True))
        object.__setattr__(self, "radius", float(check_param("radius", self.radius)))

    @property
    def dim(self):
        return self.center.size

    def project(self, p):
        d = p - self.center
        r = row_norms(d)[..., None]
        return np.where(r <= self.radius, p,
                        self.center + d * (self.radius / np.maximum(r, self.radius)))

    def diameter(self):
        return 2.0 * self.radius

    def tangent_residual(self, p, g):
        d = p - self.center
        r = row_norms(d)[..., None]
        # The normal cone is nontrivial only on the boundary; at radius within
        # tolerance of the boundary the cone is discontinuous and the boundary
        # formula lower-bounds both branches, so it is used there.
        interior = r[..., 0] < self.radius * (1.0 - REL_BOUND_TOL)
        n_hat = d / np.where(r > 0, r, 1.0)
        # min over lam >= 0 of ||g + lam * n_hat||: an inward normal component
        # (g . n_hat < 0) is cancelled, an outward one cannot be.
        lam = np.maximum(-np.vecdot(g, n_hat), 0.0)[..., None]
        return np.where(interior, row_norms(g), row_norms(g + lam * n_hat))

    def support_min(self, g):
        norm = row_norms(g)[..., None]
        x = np.where(norm > 0, self.center - self.radius * g / np.where(norm > 0, norm, 1.0),
                     self.center)
        return x, np.vecdot(x, g)


def Unconstrained(dimension):
    """The unconstrained space R^dimension: the box with every bound infinite."""
    d = check_param("dimension", dimension, 1)
    return Box(np.full(d, -math.inf), np.full(d, math.inf))


@dataclass(frozen=True)
class ProductSet(FeasibleSet):
    factors: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise MonolearnError("product of zero sets")

    @property
    def dim(self):
        return sum(f.dim for f in self.factors)

    def _slices(self):
        return zip(self.factors, player_slices(f.dim for f in self.factors))

    def project(self, p):
        return np.concatenate([f.project(p[..., s]) for f, s in self._slices()], axis=-1)

    def diameter(self):
        sq = 0.0
        for f in self.factors:
            d = f.diameter()
            if not math.isfinite(d):
                return math.inf
            sq += d * d
        return math.sqrt(sq)

    def tangent_residual(self, p, g):
        sq = sum(f.tangent_residual(p[..., s], g[..., s]) ** 2 for f, s in self._slices())
        return np.sqrt(sq)

    def support_min(self, g):
        parts, total = [], 0.0
        for f, s in self._slices():
            x, v = f.support_min(g[..., s])
            parts.append(x)
            total = total + v
        return np.concatenate(parts, axis=-1), total


def product(factors):
    """The joint set of several players' sets.

    A product of boxes, bounded or not, is the box over the concatenated
    bounds; any other factor makes a :class:`ProductSet`.
    """
    factors = tuple(factors)
    if factors and all(isinstance(f, Box) for f in factors):
        return Box(np.concatenate([f.lower for f in factors]),
                   np.concatenate([f.upper for f in factors]))
    return ProductSet(factors)


def symmetric_box(half_width, dim):
    """[-w, w]^dim, the box shape used by the built-in game instances."""
    w = float(half_width)
    return Box(np.full(dim, -w), np.full(dim, w))
