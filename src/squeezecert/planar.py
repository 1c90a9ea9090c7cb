"""One-variable conformal maps applied coordinatewise.

The half-plane map z/(2-z) and its n-fold product drive the convex witness;
the Riemann-map catalog (disc, half-plane, slit plane, affine images) covers
the planar projections a bounded pipeline can actually produce.  The radius
checks at the bottom sample the two containments that turn these maps into
squeezing-function bounds: tau(c) for the product of half-plane maps, rho(c)
for products of arbitrary catalog maps through the distortion ceiling.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .domains import _axis_points
from .errors import ArgumentError, MapDomainError, UnsupportedShapeError
from .numerics import rho

_EDGE = 1e-12


# -- the Cayley-type half-plane map ------------------------------------------

def cayley(z):
    """Map {Re z < 1} onto the unit disc by z/(2-z), coordinatewise."""
    z = np.asarray(z, dtype=complex)
    if np.any(z.real >= 1.0):
        raise MapDomainError("cayley requires Re z < 1 in every coordinate")
    return z / (2.0 - z)


def cayley_inverse(w):
    """Inverse map 2w/(1+w), defined on the unit disc coordinatewise."""
    w = np.asarray(w, dtype=complex)
    if np.any(np.abs(w) >= 1.0):
        raise MapDomainError("cayley_inverse requires |w| < 1 in every coordinate")
    return 2.0 * w / (1.0 + w)


def koebe_bound(zeta):
    """Distortion ceiling 4|z|/(1-|z|)^2 for univalent maps fixing 0."""
    zeta = np.asarray(zeta, dtype=complex)
    mod = np.abs(zeta)
    if np.any(mod >= 1.0):
        raise ArgumentError("koebe_bound is defined on the open unit disc")
    out = 4.0 * mod / (1.0 - mod) ** 2
    return float(out) if out.ndim == 0 else out


# -- planar shape catalog -----------------------------------------------------

_SHAPE_KINDS = ("unit_disc", "half_plane", "disc", "slit_plane", "affine")


@dataclass(frozen=True)
class PlanarShape:
    """Descriptor of a simply connected planar domain containing 0."""

    kind: str
    center: complex = 0.0 + 0.0j
    radius: float = 1.0
    base: "PlanarShape | None" = None
    scale: complex = 1.0 + 0.0j
    offset: complex = 0.0 + 0.0j


def unit_disc() -> PlanarShape:
    return PlanarShape(kind="unit_disc")


def half_plane() -> PlanarShape:
    """The half plane {Re z < 1}."""
    return PlanarShape(kind="half_plane")


def disc_shape(center, radius) -> PlanarShape:
    center = complex(center)
    radius = float(radius)
    if radius <= 0:
        raise ArgumentError("disc radius must be positive")
    if abs(center) >= radius:
        raise ArgumentError("disc must contain 0")
    return PlanarShape(kind="disc", center=center, radius=radius)


def slit_plane() -> PlanarShape:
    """The plane with the ray [1, oo) removed."""
    return PlanarShape(kind="slit_plane")


def affine_shape(base: PlanarShape, scale, offset) -> PlanarShape:
    scale = complex(scale)
    if scale == 0:
        raise ArgumentError("affine scale must be nonzero")
    shape = PlanarShape(kind="affine", base=base, scale=scale,
                        offset=complex(offset))
    if not _shape_contains(shape, np.zeros(1, dtype=complex))[0]:
        raise ArgumentError("affine image must contain 0")
    return shape


def _shape_contains(shape, z):
    z = np.asarray(z, dtype=complex)
    kind = shape.kind
    if kind == "unit_disc":
        return np.abs(z) < 1.0
    if kind == "half_plane":
        return z.real < 1.0
    if kind == "disc":
        return np.abs(z - shape.center) < shape.radius
    if kind == "slit_plane":
        return ~((np.abs(z.imag) < _EDGE) & (z.real >= 1.0))
    if kind == "affine":
        return _shape_contains(shape.base, (z - shape.offset) / shape.scale)
    raise UnsupportedShapeError(f"unknown planar shape kind {shape.kind!r}")


def _shape_boundary_distance(shape, p):
    """Distance from the point p to the boundary of the shape."""
    p = complex(p)
    kind = shape.kind
    if kind == "unit_disc":
        return abs(1.0 - abs(p))
    if kind == "half_plane":
        return abs(1.0 - p.real)
    if kind == "disc":
        return abs(shape.radius - abs(p - shape.center))
    if kind == "slit_plane":
        if p.real >= 1.0:
            return abs(p.imag)
        return abs(p - 1.0)
    if kind == "affine":
        return abs(shape.scale) * _shape_boundary_distance(
            shape.base, (p - shape.offset) / shape.scale)
    raise UnsupportedShapeError(f"unknown planar shape kind {shape.kind!r}")


# -- Riemann map catalog ------------------------------------------------------

@dataclass(frozen=True)
class RiemannMap:
    """Closed-form conformal equivalence (Omega, 0) -> (disc, 0).

    `forward` sends the shape into the disc, `inverse` comes back, and
    `inverse_derivative` is the analytic derivative of the inverse, used both
    for the distortion checks and for chaining affine entries.
    `inverse_mobius` is (p, q, r, s) for an inverse that is the Mobius map
    w -> (p w + q) / (r w + s), and None for the slit plane.
    """

    shape: PlanarShape
    forward: object
    inverse: object
    inverse_derivative: object
    derivative_at_zero: complex
    boundary_distance: float
    one_on_boundary: bool
    inverse_mobius: tuple | None


def _blaschke(u0):
    conj = np.conj(u0)

    def fwd(u):
        return (u - u0) / (1.0 - conj * u)

    def inv(w):
        return (w + u0) / (1.0 + conj * w)

    def inv_deriv(w):
        return (1.0 - abs(u0) ** 2) / (1.0 + conj * w) ** 2

    return fwd, inv, inv_deriv


def _check_disc_arg(w, label):
    w = np.asarray(w, dtype=complex)
    if np.any(np.abs(w) >= 1.0):
        raise MapDomainError(f"{label} takes arguments in the open unit disc")
    return w


def riemann_catalog(shape: PlanarShape) -> RiemannMap:
    """Closed-form Riemann map for a catalog shape.

    Raises UnsupportedShapeError for kinds outside the catalog, so a caller
    matching sampled projections can fall back to the universal bound.
    """
    kind = shape.kind
    if kind not in _SHAPE_KINDS:
        raise UnsupportedShapeError(f"unknown planar shape kind {kind!r}")
    if kind == "unit_disc":
        fwd = lambda z: _check_disc_arg(z, "unit_disc forward")
        inv = lambda w: _check_disc_arg(w, "unit_disc inverse")
        inv_d = lambda w: np.ones_like(np.asarray(w, dtype=complex))
        deriv0 = 1.0 + 0.0j
        mobius = np.eye(2, dtype=complex)
    elif kind == "half_plane":
        fwd = cayley
        inv = cayley_inverse

        def inv_d(w):
            w = _check_disc_arg(w, "half_plane inverse derivative")
            return 2.0 / (1.0 + w) ** 2

        deriv0 = 2.0 + 0.0j
        mobius = np.array([[2.0, 0.0], [1.0, 1.0]], dtype=complex)
    elif kind == "slit_plane":

        def fwd(z):
            z = np.asarray(z, dtype=complex)
            if np.any((np.abs(z.imag) < _EDGE) & (z.real >= 1.0)):
                raise MapDomainError("slit_plane forward is undefined on the slit")
            # stable branch of the inverse of 4w/(1+w)^2 fixing 0
            return z / ((2.0 - z) + 2.0 * np.sqrt(1.0 - z))

        def inv(w):
            w = _check_disc_arg(w, "slit_plane inverse")
            return 4.0 * w / (1.0 + w) ** 2

        def inv_d(w):
            w = _check_disc_arg(w, "slit_plane inverse derivative")
            return 4.0 * (1.0 - w) / (1.0 + w) ** 3

        deriv0 = 4.0 + 0.0j
        mobius = None
    else:
        # a disc is the image of the unit disc under z -> radius z + center
        if kind == "disc":
            base, lam, beta = riemann_catalog(unit_disc()), shape.radius, shape.center
        else:
            base, lam, beta = riemann_catalog(shape.base), shape.scale, shape.offset
        u0 = complex(base.forward(np.array([-beta / lam]))[0])
        b_fwd, b_inv, b_inv_d = _blaschke(u0)

        def fwd(z):
            z = np.asarray(z, dtype=complex)
            return b_fwd(base.forward((z - beta) / lam))

        def inv(w):
            w = _check_disc_arg(w, "affine inverse")
            return lam * base.inverse(b_inv(w)) + beta

        def inv_d(w):
            w = _check_disc_arg(w, "affine inverse derivative")
            return lam * base.inverse_derivative(b_inv(w)) * b_inv_d(w)

        deriv0 = lam * complex(base.inverse_derivative(np.array([u0]))[0]) \
            * (1.0 - abs(u0) ** 2)
        mobius = None
        if base.inverse_mobius is not None:
            # w -> lam * base.inverse(b_inv(w)) + beta, one matrix per layer
            mobius = (np.array([[lam, beta], [0.0, 1.0]], dtype=complex)
                      @ np.reshape(base.inverse_mobius, (2, 2))
                      @ np.array([[1.0, u0], [np.conj(u0), 1.0]]))
    return RiemannMap(
        shape=shape,
        forward=fwd,
        inverse=inv,
        inverse_derivative=inv_d,
        derivative_at_zero=complex(deriv0),
        boundary_distance=_shape_boundary_distance(shape, 0.0),
        one_on_boundary=_shape_boundary_distance(shape, 1.0) <= 1e-12,
        inverse_mobius=None if mobius is None else tuple(complex(c) for c in mobius.ravel()),
    )


# -- radius containment checks ------------------------------------------------

@dataclass(frozen=True)
class ContainmentReport:
    """Sampled verdict on one set containment, violations counted."""

    check: str
    n: int
    parameter: float
    radius: float
    samples: int
    violations: int
    min_slack: float

    def as_dict(self) -> dict:
        return asdict(self)


def _sphere_points(n, count, rng):
    z = rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def tau_radius_check(n, c, samples=100_000, seed=0) -> ContainmentReport:
    """Sample the containment tau(c)*ball inside the half-plane product image.

    The negative real axis is the tight configuration, so the deterministic
    axis points are always included alongside the random sphere draw.  The
    closed endpoint c = 1 is admitted here: the containment statement still
    makes sense on the closed unit ball of parameters even though the scalar
    map tau keeps the open interval.
    """
    if n < 1:
        raise ArgumentError("dimension must be at least 1")
    if not 0.0 < c <= 1.0:
        raise ArgumentError("parameter c must lie in (0, 1]")
    if samples < 1:
        raise ArgumentError("sample budget must be positive")
    return _radius_check("tau_radius", [cayley_inverse] * n, c,
                         (c / (2.0 + c)) * (1.0 - 1e-9), samples, seed)


def rho_radius_check(maps, c, samples=100_000, seed=0) -> ContainmentReport:
    """Sample rho(c)*ball inside the product of catalog map images of c*ball.

    Each coordinate map must have c*disc inside its shape.  Slit-plane
    coordinates are tight along the negative real axis, where the inverse
    map attains the distortion ceiling exactly.
    """
    maps = list(maps)
    n = len(maps)
    if n < 1:
        raise ArgumentError("at least one coordinate map is required")
    if not 0.0 < c <= 1.0:
        raise ArgumentError("parameter c must lie in (0, 1]")
    if samples < 1:
        raise ArgumentError("sample budget must be positive")
    for j, mp in enumerate(maps):
        if mp.boundary_distance < c - 1e-12:
            raise ArgumentError(
                f"coordinate {j}: c*disc does not fit inside the shape")
    return _radius_check("rho_radius", [mp.inverse for mp in maps], c,
                         rho(c) * (1.0 - 1e-9), samples, seed)


def _radius_check(check, inverses, c, radius, samples, seed):
    """Sample radius*ball, the axis points first, through the coordinatewise
    `inverses` and measure the slack inside c*ball."""
    n = len(inverses)
    rng = np.random.default_rng(seed)
    w = np.concatenate([_axis_points(n), _sphere_points(n, samples, rng)])
    w *= radius
    z = np.empty_like(w)
    for j, inv in enumerate(inverses):
        z[:, j] = inv(w[:, j])
    slack = c - np.linalg.norm(z, axis=1)
    return ContainmentReport(
        check=check, n=n, parameter=float(c), radius=float(radius),
        samples=int(w.shape[0]), violations=int(np.count_nonzero(slack < 0)),
        min_slack=float(slack.min()))
