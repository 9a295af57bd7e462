"""Feasible sets with exact Euclidean projection and normal-cone machinery.

Supported sets: axis-aligned boxes, Euclidean balls, products of sets,
and unconstrained space. All sets expose projection, the tangent residual
(distance from a gradient to the negative normal cone), the linearized gap
(support-function form), and the diameter. All norms are Euclidean.

Each public method checks its input (finite entries, dimension, and for
residual and gap a feasible point) and then calls an unchecked core of the
same name with a leading underscore. The self-play round loop calls the
cores directly on vectors it built itself from finite, feasible values.
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

# Points within this distance of the set (after projection) are snapped onto it
# before residual/gap evaluation; anything farther is rejected.
MEMBERSHIP_TOL = 1e-9


class GeometryError(ValueError):
    """Invalid geometric input (dimension mismatch, infeasible point, ...)."""


def _as_vector(x, dim=None):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        v = v.reshape(-1)
    if not np.all(np.isfinite(v)):
        raise GeometryError("vector has non-finite entries")
    if dim is not None and v.size != dim:
        raise GeometryError(f"expected dimension {dim}, got {v.size}")
    return v


class FeasibleSet:
    """Closed convex set supporting projection and normal-cone queries."""

    dim: int

    def project(self, point):
        return self._project(_as_vector(point, self.dim))

    def contains(self, point, tol=MEMBERSHIP_TOL):
        p = _as_vector(point, self.dim)
        return float(np.linalg.norm(p - self._project(p))) <= tol

    def diameter(self):
        """Euclidean diameter, or ``math.inf`` for unbounded sets."""
        raise NotImplementedError

    @property
    def is_bounded(self):
        return math.isfinite(self.diameter())

    def _clean(self, point):
        """Snap a near-feasible point onto the set, rejecting distant ones."""
        p = _as_vector(point, self.dim)
        q = self._project(p)
        if float(np.linalg.norm(p - q)) > MEMBERSHIP_TOL:
            raise GeometryError("point lies outside the feasible set")
        return q

    def tangent_residual(self, point, grad):
        """min over c in the normal cone at ``point`` of ||grad + c||."""
        return self._tangent_residual(self._clean(point), _as_vector(grad, self.dim))

    def support_min(self, grad):
        """Return (argmin, min) of <grad, x> over the set.

        Ties are broken toward the componentwise-lowest feasible point so
        downstream regret traces are deterministic.
        """
        return self._support_min(_as_vector(grad, self.dim))

    def linearized_gap(self, point, grad):
        """<grad, point> - min over the set of <grad, x'>; requires boundedness."""
        if not self.is_bounded:
            raise GeometryError("linearized gap is undefined on unbounded sets")
        return self._linearized_gap(self._clean(point), _as_vector(grad, self.dim))

    def sample(self, rng):
        """Uniform-ish random feasible point (testing helper)."""
        raise NotImplementedError

    # -- unchecked cores: finite vectors of the right size, feasible points --
    def _project(self, p):
        raise NotImplementedError

    def _tangent_residual(self, p, g):
        raise NotImplementedError

    def _support_min(self, g):
        raise NotImplementedError

    def _linearized_gap(self, p, g):
        _, low = self._support_min(g)
        return max(float(p.dot(g)) - low, 0.0)


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

    def _project(self, p):
        return np.minimum(np.maximum(p, self.lower), self.upper)

    def diameter(self):
        return float(np.linalg.norm(self.upper - self.lower))

    @cached_property
    def _bound_tol(self):
        """Per-coordinate "at a bound" tolerances for the lower and upper bounds."""
        return (REL_BOUND_TOL * np.maximum(1.0, np.abs(self.lower)),
                REL_BOUND_TOL * np.maximum(1.0, np.abs(self.upper)))

    def _tangent_residual(self, p, g):
        # p is feasible, so p - lower and upper - p are the distances to the
        # bounds. Interior coordinate: the normal cone is {0}, contributes
        # |g_j|. At the lower bound the cone is (-inf, 0], so only g_j < 0
        # survives; symmetric at the upper bound. A pinned coordinate
        # contributes 0.
        tol_lo, tol_hi = self._bound_tol
        contrib = np.where(p - self.lower <= tol_lo, np.minimum(g, 0.0), g)
        contrib = np.where(self.upper - p <= tol_hi, np.maximum(contrib, 0.0), contrib)
        return math.sqrt(contrib.dot(contrib))

    def _support_min(self, g):
        x = np.where(g < 0, self.upper, self.lower)
        return x, float(x.dot(g))

    def sample(self, rng):
        return rng.uniform(self.lower, self.upper)


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

    def _project(self, p):
        d = p - self.center
        r = float(np.linalg.norm(d))
        if r <= self.radius:
            return p
        return self.center + d * (self.radius / r)

    def diameter(self):
        return 2.0 * self.radius

    def _tangent_residual(self, p, g):
        d = p - self.center
        r = float(np.linalg.norm(d))
        # The normal cone is nontrivial only on the boundary; at radius within
        # tolerance of the boundary the cone is discontinuous and the boundary
        # formula lower-bounds both branches, so it is used there.
        if r < self.radius * (1.0 - REL_BOUND_TOL):
            return float(np.linalg.norm(g))
        n_hat = d / r
        # min over lam >= 0 of ||g + lam * n_hat||: an inward normal component
        # (g . n_hat < 0) is cancelled, an outward one cannot be.
        lam = max(-float(g @ n_hat), 0.0)
        return float(np.linalg.norm(g + lam * n_hat))

    def _support_min(self, g):
        norm = float(np.linalg.norm(g))
        if norm == 0.0:
            return self.center.copy(), float(self.center @ g)
        x = self.center - self.radius * g / norm
        return x, float(x @ g)

    def sample(self, rng):
        d = rng.standard_normal(self.dim)
        d /= np.linalg.norm(d)
        r = self.radius * rng.uniform() ** (1.0 / self.dim)
        return self.center + r * d


@dataclass(frozen=True)
class Unconstrained(FeasibleSet):
    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise GeometryError("dimension must be positive")

    @property
    def dim(self):
        return self.dimension

    def _project(self, p):
        return p

    def diameter(self):
        return math.inf

    def _tangent_residual(self, p, g):
        return float(np.linalg.norm(g))

    def _support_min(self, g):
        raise GeometryError("support minimization is unbounded")

    def sample(self, rng):
        return rng.standard_normal(self.dim)


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

    def _project(self, p):
        return np.concatenate([f._project(p[s]) for f, s in self._slices()])

    def diameter(self):
        sq = 0.0
        for f in self.factors:
            d = f.diameter()
            if not math.isfinite(d):
                return math.inf
            sq += d * d
        return math.sqrt(sq)

    def _tangent_residual(self, p, g):
        sq = sum(f._tangent_residual(p[s], g[s]) ** 2 for f, s in self._slices())
        return math.sqrt(sq)

    def _support_min(self, g):
        parts, total = [], 0.0
        for f, s in self._slices():
            x, v = f._support_min(g[s])
            parts.append(x)
            total += v
        return np.concatenate(parts), total

    def sample(self, rng):
        return np.concatenate([f.sample(rng) for f in self.factors])


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


def project(feasible_set, point):
    """Euclidean projection of ``point`` onto ``feasible_set``."""
    return feasible_set.project(point)


def tangent_residual(feasible_set, point, grad):
    return feasible_set.tangent_residual(point, grad)


def linearized_gap(feasible_set, point, grad):
    return feasible_set.linearized_gap(point, grad)


def diameter(feasible_set):
    return feasible_set.diameter()


def symmetric_box(half_width, dim):
    """[-w, w]^dim, the box shape used by the built-in game instances."""
    w = float(half_width)
    return Box(np.full(dim, -w), np.full(dim, w))
