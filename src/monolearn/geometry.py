"""Feasible sets with exact Euclidean projection and normal-cone machinery.

Supported sets: axis-aligned boxes, Euclidean balls, products of sets,
and unconstrained space. All sets expose projection, the tangent residual
(distance from a gradient to the negative normal cone), support
minimization, and the diameter. All norms are Euclidean.

Projection, residual and support minimization trust their input: finite
vectors of the set's dimension, and for the residual a feasible point.
Outside input is checked once, where it arrives, with :func:`_as_vector`
and :meth:`FeasibleSet.contains`. All three also take ``(k, dim)`` arrays
and answer row by row, with the same rounding as one row at a time.
:func:`product` builds the joint set of several players: one ``Box`` for
boxes, one ``Unconstrained`` for unconstrained factors, and a
``ProductSet`` only for mixed factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# A coordinate counts as "at a bound" when within REL_BOUND_TOL * max(1, |bound|);
# projected iterates land on bounds exactly in real arithmetic but drift by ulps.
REL_BOUND_TOL = 1e-9

# ``contains`` accepts points within this distance of their projection.
MEMBERSHIP_TOL = 1e-9


class GeometryError(ValueError):
    """Invalid geometric input (dimension mismatch, infeasible point, ...)."""


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


def _as_vector(x, dim=None):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        v = v.reshape(-1)
    if not np.isfinite(v).all():
        raise GeometryError("vector has non-finite entries")
    if dim is not None and v.size != dim:
        raise GeometryError(f"expected dimension {dim}, got {v.size}")
    return v


class FeasibleSet:
    """Closed convex set supporting projection and normal-cone queries."""

    dim: int

    def contains(self, point, tol=MEMBERSHIP_TOL):
        p = _as_vector(point, self.dim)
        return float(np.linalg.norm(p - self.project(p))) <= tol

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
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _as_vector(self.lower)
        hi = _as_vector(self.upper, lo.size)
        if np.any(lo > hi):
            raise GeometryError("box requires lower <= upper componentwise")
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

    @cached_property
    def _bound_tol(self):
        """Per-coordinate "at a bound" tolerances for the lower and upper bounds."""
        return (REL_BOUND_TOL * np.maximum(1.0, np.abs(self.lower)),
                REL_BOUND_TOL * np.maximum(1.0, np.abs(self.upper)))

    def tangent_residual(self, p, g):
        # p is feasible, so p - lower and upper - p are the distances to the
        # bounds. Interior coordinate: the normal cone is {0}, contributes
        # |g_j|. At the lower bound the cone is (-inf, 0], so only g_j < 0
        # survives; symmetric at the upper bound. A pinned coordinate
        # contributes 0.
        tol_lo, tol_hi = self._bound_tol
        contrib = np.where(p - self.lower <= tol_lo, np.minimum(g, 0.0), g)
        contrib = np.where(self.upper - p <= tol_hi, np.maximum(contrib, 0.0), contrib)
        return row_norms(contrib)

    def support_min(self, g):
        x = np.where(g < 0, self.upper, self.lower)
        return x, np.vecdot(x, g)


@dataclass(frozen=True)
class Ball(FeasibleSet):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = _as_vector(self.center)
        if not (self.radius > 0):
            raise GeometryError("ball radius must be positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

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


@dataclass(frozen=True)
class Unconstrained(FeasibleSet):
    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise GeometryError("dimension must be positive")

    @property
    def dim(self):
        return self.dimension

    def project(self, p):
        return p

    def diameter(self):
        return math.inf

    def tangent_residual(self, p, g):
        return row_norms(g)

    def support_min(self, g):
        raise GeometryError("support minimization is unbounded")


@dataclass(frozen=True)
class ProductSet(FeasibleSet):
    factors: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise GeometryError("product of zero sets")

    @property
    def dim(self):
        return sum(f.dim for f in self.factors)

    def _slices(self):
        start = 0
        for f in self.factors:
            yield f, slice(start, start + f.dim)
            start += f.dim

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

    A product of boxes is the box over the concatenated bounds, and a
    product of unconstrained spaces is one unconstrained space; other
    combinations stay a :class:`ProductSet`.
    """
    factors = tuple(factors)
    if factors and all(isinstance(f, Box) for f in factors):
        return Box(np.concatenate([f.lower for f in factors]),
                   np.concatenate([f.upper for f in factors]))
    if factors and all(isinstance(f, Unconstrained) for f in factors):
        return Unconstrained(sum(f.dim for f in factors))
    return ProductSet(factors)


def symmetric_box(half_width, dim):
    """[-w, w]^dim, the box shape used by the built-in game instances."""
    w = float(half_width)
    return Box(np.full(dim, -w), np.full(dim, w))
