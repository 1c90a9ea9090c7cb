"""One-variable conformal maps applied coordinatewise.

The half-plane map z/(2-z) and its n-fold product drive the convex witness;
the Riemann-map catalog (disc, half-plane, slit plane, affine images) covers
the planar projections a bounded pipeline can actually produce.  Every
catalog map is derived from one normal form of its inverse, w -> lam K(M w)
+ beta, with M a Mobius matrix and K the identity or the Koebe map of the
slit plane; discs and affine shapes compose their base's form with a disc
automorphism.  The radius checks at the bottom sample the two containments
that turn these maps into squeezing-function bounds: tau(c) for the product
of half-plane maps, rho(c) for products of arbitrary catalog maps through the
distortion ceiling.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .domains import _axis_points, _sphere_draw
from .errors import ArgumentError, MapDomainError, UnsupportedShapeError
from .numerics import _check_counts, rho

_EDGE = 1e-12


# -- the Cayley-type half-plane map ------------------------------------------

def cayley(z):
    """Map {Re z < 1} onto the unit disc by z/(2-z), coordinatewise: the half
    plane's catalog map."""
    return _HALF_PLANE.forward(z)


def cayley_inverse(w):
    """Inverse map 2w/(1+w), defined on the unit disc coordinatewise."""
    return _HALF_PLANE.inverse(w)


def koebe_bound(zeta):
    """Distortion ceiling 4|z|/(1-|z|)^2 for univalent maps fixing 0."""
    zeta = np.asarray(zeta, dtype=complex)
    mod = np.abs(zeta)
    if np.any(mod >= 1.0):
        raise ArgumentError("koebe_bound is defined on the open unit disc")
    out = 4.0 * mod / (1.0 - mod) ** 2
    return float(out) if out.ndim == 0 else out


# -- planar shape catalog -----------------------------------------------------

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

    Every field is read off one normal form of the inverse, w -> lam K(M w) +
    beta with M a 2x2 Mobius matrix and K the identity or, for slit-based
    shapes, the Koebe map 4w/(1+w)^2.  `forward` sends the shape into the
    disc, `inverse` comes back, and `inverse_derivative` is the analytic
    derivative of the inverse, used for the distortion checks.
    `inverse_mobius` is (p, q, r, s) for an inverse that is the Mobius map
    w -> (p w + q) / (r w + s), and None when K is the Koebe map.
    """

    shape: PlanarShape
    forward: object
    inverse: object
    inverse_derivative: object
    derivative_at_zero: complex
    boundary_distance: float
    one_on_boundary: bool
    inverse_mobius: tuple | None


def _normal_form(shape):
    """(M, koebe, lam, beta) of the inverse Riemann map w -> lam K(M w) + beta."""
    kind = shape.kind
    if kind == "unit_disc":
        return np.eye(2, dtype=complex), False, 1.0, 0.0
    if kind == "half_plane":
        return np.array([[2.0, 0.0], [1.0, 1.0]], dtype=complex), False, 1.0, 0.0
    if kind == "slit_plane":
        return np.eye(2, dtype=complex), True, 1.0, 0.0
    if kind == "disc":
        # a disc is the image of the unit disc under z -> radius z + center
        base, lam, beta = unit_disc(), shape.radius, shape.center
    elif kind == "affine":
        base, lam, beta = shape.base, shape.scale, shape.offset
    else:
        raise UnsupportedShapeError(f"unknown planar shape kind {kind!r}")
    form = _normal_form(base)
    # u0 is where the base map sends the point that lands on 0; the disc
    # automorphism w -> (w + u0) / (1 + conj(u0) w) moves it back to 0
    u0 = complex(_forward(base, form, np.array([-beta / lam]))[0])
    m, koebe, lam0, beta0 = form
    return (m @ np.array([[1.0, u0], [np.conj(u0), 1.0]]), koebe,
            lam * lam0, lam * beta0 + beta)


def _forward(shape, form, z):
    """The Riemann map of `shape` at z, inverting its normal form `form`."""
    z = np.asarray(z, dtype=complex)
    if not np.all(_shape_contains(shape, z)):
        raise MapDomainError(f"{shape.kind} forward is undefined outside the shape")
    ((p, q), (r, s)), koebe, lam, beta = form
    x = (z - beta) / lam
    if koebe:
        # stable branch of the inverse of the Koebe map fixing 0
        x = x / ((2.0 - x) + 2.0 * np.sqrt(1.0 - x))
    return (s * x - q) / (p - r * x)


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
    form = _normal_form(shape)
    m, koebe, lam, beta = form
    (p, q), (r, s) = m

    def inv(w):
        w = _check_disc_arg(w, f"{shape.kind} inverse")
        x = (p * w + q) / (r * w + s)
        return lam * (4.0 * x / (1.0 + x) ** 2 if koebe else x) + beta

    def inv_d(w):
        w = _check_disc_arg(w, f"{shape.kind} inverse derivative")
        x = (p * w + q) / (r * w + s)
        dk = 4.0 * (1.0 - x) / (1.0 + x) ** 3 if koebe else 1.0
        return lam * dk * (p * s - q * r) / (r * w + s) ** 2

    return RiemannMap(
        shape=shape,
        forward=lambda z: _forward(shape, form, z),
        inverse=inv,
        inverse_derivative=inv_d,
        derivative_at_zero=complex(inv_d(np.zeros(1))[0]),
        boundary_distance=_shape_boundary_distance(shape, 0.0),
        one_on_boundary=_shape_boundary_distance(shape, 1.0) <= 1e-12,
        inverse_mobius=None if koebe else tuple(
            complex(c) for c in (np.array([[lam, beta], [0.0, 1.0]], dtype=complex) @ m).ravel()),
    )


_HALF_PLANE = riemann_catalog(half_plane())


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


def tau_radius_check(n, c, samples=100_000, seed=0) -> ContainmentReport:
    """Sample the containment tau(c)*ball inside the half-plane product image.

    The negative real axis is the tight configuration, so the deterministic
    axis points are always included alongside the random sphere draw.  The
    closed endpoint c = 1 is admitted here: the containment statement still
    makes sense on the closed unit ball of parameters even though the scalar
    map tau keeps the open interval.
    """
    _check_counts(n=n, samples=samples, seed=seed)
    if not 0.0 < c <= 1.0:
        raise ArgumentError("parameter c must lie in (0, 1]")
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
    _check_counts(samples=samples, seed=seed)
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
    w = np.concatenate([_axis_points(n), _sphere_draw(rng, samples, n)])
    w *= radius
    z = np.empty_like(w)
    for j, inv in enumerate(inverses):
        z[:, j] = inv(w[:, j])
    slack = c - np.linalg.norm(z, axis=1)
    return ContainmentReport(
        check=check, n=n, parameter=float(c), radius=float(radius),
        samples=int(w.shape[0]), violations=int(np.count_nonzero(slack < 0)),
        min_slack=float(slack.min()))
