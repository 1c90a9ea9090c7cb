"""Bounded domain descriptions: membership, ray exits, tangent functionals.

A DomainSpec is a closed description of a bounded domain in C^n containing the
origin-to-be-certified, either as a catalog body (ball, polydisc, l1 ball,
lp ball), as an affine or projective image of another spec, or as a sublevel
set of a user-supplied real-analytic defining expression.  It is the only
body type: the model bodies of the certificate are catalog specs, scaled
through affine_image.

One batched residual kernel per kind carries membership and the boundary
equation: gauge - 1 for catalog kinds, the base residual at the preimage for
image kinds (one closed-form preimage shared by affine and projective maps,
+inf on the horizon, where no preimage exists), the defining values
otherwise; `contains` is residual < 0.  Every first exit along rays comes
from one geometric march and bisection, `_first_exits`: ray_exit_batch (and
through it the frame search, the C-convex spot check and the sampling
radius of rejection sampling) and the inscribed radius of `bounds`.
`boundary_samples` draws boundary points of the ball, polydisc and l1 ball and
their images.

Membership, residuals, ray exits, and sampling all accept batched inputs with
shape (..., n); everything downstream leans on that.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import sympy as sp

from .errors import (
    ArgumentError,
    DomainFormatError,
    NonsmoothBoundaryError,
    RayCapError,
    ValidationFailureError,
)

CATALOG_KINDS = ("ball", "polydisc", "l1ball", "lp_ball")
IMAGE_KINDS = ("affine_image", "projective_image")
ALL_KINDS = CATALOG_KINDS + IMAGE_KINDS + ("defining_function",)

DEFAULT_BOUNDING_RADIUS = 1e6

# geometric march used to bracket the first boundary crossing along a ray
_MARCH_START = 1e-2
_MARCH_GROWTH = 1.12
# absolute bisection tolerance on the exit parameter
_EXIT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DomainSpec:
    """Closed description of a bounded domain in C^n containing reference data.

    `convexity_class` is "convex" or "cconvex" and is set by the catalog
    constructors; defining-function specs carry the user's declaration, which
    is only spot-checked by sampling.
    """

    n: int
    kind: str
    convexity_class: str
    bounding_radius: float = DEFAULT_BOUNDING_RADIUS
    p: float | None = None
    base: "DomainSpec | None" = None
    matrix: np.ndarray | None = None
    offset: np.ndarray | None = None
    denominator: np.ndarray | None = None
    rho: str | None = None

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise DomainFormatError(f"domain dimension must be an integer >= 2, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if self.kind not in ALL_KINDS:
            raise DomainFormatError(f"unknown domain kind {self.kind!r}")
        if self.convexity_class not in ("convex", "cconvex"):
            raise DomainFormatError(f"convexity class must be convex or cconvex, got {self.convexity_class!r}")
        if not (isinstance(self.bounding_radius, (int, float)) and self.bounding_radius > 0):
            raise DomainFormatError("bounding_radius must be a positive real")
        object.__setattr__(self, "bounding_radius", float(self.bounding_radius))
        getattr(self, f"_init_{self.kind}")()

    # -- per kind construction checks ------------------------------------

    def _init_ball(self):
        self._require(p=False, base=False, maps=False, rho=False)

    _init_polydisc = _init_ball
    _init_l1ball = _init_ball

    def _init_lp_ball(self):
        self._require(p=True, base=False, maps=False, rho=False)
        if not (isinstance(self.p, (int, float)) and self.p >= 1.0):
            raise DomainFormatError(f"lp_ball requires real p >= 1, got {self.p!r}")
        object.__setattr__(self, "p", float(self.p))

    def _init_affine_image(self):
        self._require(p=False, base=True, maps=True, rho=False)
        if self.denominator is not None:
            raise DomainFormatError("affine_image takes no denominator")
        den = np.zeros(self.n + 1, dtype=complex)
        den[0] = 1.0
        self._set_map(den)

    def _init_projective_image(self):
        self._require(p=False, base=True, maps=True, rho=False)
        if self.denominator is None:
            raise DomainFormatError("projective_image requires a denominator")
        den = np.asarray(self.denominator, dtype=complex)
        if den.shape != (self.n + 1,):
            raise DomainFormatError(f"denominator must have length n+1={self.n + 1}, got shape {den.shape}")
        if den[0] == 0:
            raise DomainFormatError("projective denominator must not vanish at the base origin")
        den.setflags(write=False)
        object.__setattr__(self, "denominator", den)
        self._set_map(den)

    def _set_map(self, den):
        """Store the data of the one closed-form preimage of z = (M w + c) /
        (d0 + d.w): z0 = c/d0, d0 N^-1 with N = M - z0 d^T, and e = d/d0.

        det of the homogeneous map is d0 det N, so a singular N is a
        degenerate map; affine maps have den = (1, 0, ..., 0) and N = M.
        """
        mat, off = self._coerce_map()
        z0 = off / den[0]
        n_mat = mat - np.outer(z0, den[1:])
        sv = np.linalg.svd(n_mat, compute_uv=False)
        if sv[-1] <= 1e-12 * sv[0]:
            raise DomainFormatError(
                f"{self.kind} map is degenerate: M - c d^T/d0 is singular within tolerance")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_z0", z0)
        object.__setattr__(self, "_n_inv", den[0] * np.linalg.inv(n_mat))
        object.__setattr__(self, "_e", den[1:] / den[0])

    def _init_defining_function(self):
        self._require(p=False, base=False, maps=False, rho=True)
        member_fn, grad_fns = _parse_defining_expression(self.rho, self.n)
        object.__setattr__(self, "_member_fn", member_fn)
        object.__setattr__(self, "_grad_fns", grad_fns)

    def _require(self, p, base, maps, rho):
        for name, wanted in (("p", p), ("base", base), ("rho", rho)):
            have = getattr(self, name) is not None
            if have and not wanted:
                raise DomainFormatError(f"{self.kind} takes no {name}")
            if wanted and not have:
                raise DomainFormatError(f"{self.kind} requires {name}")
        have_maps = self.matrix is not None and self.offset is not None
        if maps and not have_maps:
            raise DomainFormatError(f"{self.kind} requires matrix and offset")
        if not maps and (self.matrix is not None or self.offset is not None
                         or self.denominator is not None):
            raise DomainFormatError(f"{self.kind} takes no map data")
        if base and not isinstance(self.base, DomainSpec):
            raise DomainFormatError("base must itself be a DomainSpec")
        if base and self.base.n != self.n:
            raise DomainFormatError("base dimension must match")

    def _coerce_map(self):
        mat = np.asarray(self.matrix, dtype=complex)
        off = np.asarray(self.offset, dtype=complex)
        if mat.shape != (self.n, self.n):
            raise DomainFormatError(f"map matrix must be {self.n}x{self.n}, got {mat.shape}")
        if off.shape != (self.n,):
            raise DomainFormatError(f"map offset must have length {self.n}, got {off.shape}")
        if not (np.all(np.isfinite(mat)) and np.all(np.isfinite(off))):
            raise DomainFormatError("map data must be finite")
        mat.setflags(write=False)
        off.setflags(write=False)
        return mat, off


# -- catalog constructors ----------------------------------------------------

def ball(n, bounding_radius=DEFAULT_BOUNDING_RADIUS) -> DomainSpec:
    """Open unit euclidean ball in C^n."""
    return DomainSpec(n=n, kind="ball", convexity_class="convex", bounding_radius=bounding_radius)


def polydisc(n, bounding_radius=DEFAULT_BOUNDING_RADIUS) -> DomainSpec:
    """Open unit polydisc in C^n."""
    return DomainSpec(n=n, kind="polydisc", convexity_class="convex", bounding_radius=bounding_radius)


def l1ball(n, bounding_radius=DEFAULT_BOUNDING_RADIUS) -> DomainSpec:
    """Open unit l1 ball {sum |z_j| < 1} in C^n."""
    return DomainSpec(n=n, kind="l1ball", convexity_class="convex", bounding_radius=bounding_radius)


def lp_ball(n, p, bounding_radius=DEFAULT_BOUNDING_RADIUS) -> DomainSpec:
    """Open unit lp ball {sum |z_j|**p < 1}, p >= 1."""
    return DomainSpec(n=n, kind="lp_ball", convexity_class="convex", p=p,
                      bounding_radius=bounding_radius)


def affine_image(base, matrix, offset=None, bounding_radius=None) -> DomainSpec:
    """Image of `base` under z = matrix @ w + offset; inherits the base class."""
    offset = np.zeros(base.n) if offset is None else offset
    return DomainSpec(
        n=base.n, kind="affine_image", convexity_class=base.convexity_class,
        bounding_radius=base.bounding_radius if bounding_radius is None else bounding_radius,
        base=base, matrix=matrix, offset=offset)


def projective_image(base, matrix, offset, denominator, bounding_radius=None,
                     convexity_class="cconvex") -> DomainSpec:
    """Image of `base` under z = (matrix @ w + offset) / (d0 + d . w).

    `denominator` lists the affine coefficients (d0, d1, ..., dn) with d0 != 0.
    The map must be nondegenerate, that is M - c d^T / d0 nonsingular, or
    construction raises DomainFormatError.  Projective images of convex bases
    are C-convex, which is the default declaration.
    """
    return DomainSpec(
        n=base.n, kind="projective_image", convexity_class=convexity_class,
        bounding_radius=base.bounding_radius if bounding_radius is None else bounding_radius,
        base=base, matrix=matrix, offset=offset, denominator=denominator)


def defining_domain(n, rho, convexity_class, bounding_radius=DEFAULT_BOUNDING_RADIUS) -> DomainSpec:
    """Domain {rho < 0} for a real-analytic expression in z1..zn.

    The expression may use abs, re, im, conjugate, powers, and complex
    constants; the convexity class is the caller's declaration and is only
    spot-checked by sampling.
    """
    return DomainSpec(n=n, kind="defining_function", convexity_class=convexity_class,
                      rho=rho, bounding_radius=bounding_radius)


def translate(d: DomainSpec, point) -> DomainSpec:
    """The translated domain d - point, recentring `point` to the origin."""
    point = np.asarray(point, dtype=complex)
    return affine_image(d, np.eye(d.n), -point)


# -- defining expression parsing --------------------------------------------

def _parse_defining_expression(text, n):
    zs = sp.symbols(f"z1:{n + 1}", complex=True)
    ws = sp.symbols(f"_w1:{n + 1}", complex=True)
    names = {f"z{k + 1}": zs[k] for k in range(n)}
    names.update(abs=sp.Abs, Abs=sp.Abs, re=sp.re, im=sp.im,
                 conj=sp.conjugate, conjugate=sp.conjugate,
                 I=sp.I, pi=sp.pi, sqrt=sp.sqrt, exp=sp.exp)
    try:
        expr = sp.sympify(text, locals=names)
    except (sp.SympifyError, SyntaxError, TypeError) as exc:
        raise DomainFormatError(f"cannot parse defining expression: {exc}") from exc
    stray = expr.free_symbols - set(zs)
    if stray:
        raise DomainFormatError(f"unknown symbols in defining expression: {sorted(map(str, stray))}")
    # rewrite everything through conjugates so Wirtinger derivatives are plain diffs
    expr = expr.replace(sp.Abs, lambda u: sp.sqrt(u * sp.conjugate(u)))
    expr = expr.replace(sp.re, lambda u: (u + sp.conjugate(u)) / 2)
    expr = expr.replace(sp.im, lambda u: (u - sp.conjugate(u)) / (2 * sp.I))
    expr = expr.subs({sp.conjugate(z): w for z, w in zip(zs, ws)})
    if expr.atoms(sp.conjugate):
        raise DomainFormatError("defining expression has unsupported nested conjugates")
    args = list(zs) + list(ws)
    member_fn = sp.lambdify(args, expr, modules="numpy")
    # lambda_k = 2 d(rho)/d(conj z_k): the outward coefficient vector at a point
    grad_fns = [sp.lambdify(args, 2 * sp.diff(expr, w), modules="numpy") for w in ws]
    return member_fn, grad_fns


def _defining_values(d, z):
    args = [z[..., k] for k in range(d.n)] + [np.conj(z[..., k]) for k in range(d.n)]
    vals = np.asarray(d._member_fn(*args), dtype=complex)
    if np.any(np.abs(vals.imag) > 1e-9 * (1.0 + np.abs(vals.real))):
        raise DomainFormatError("defining expression does not evaluate real")
    return vals.real


# -- membership and boundary residuals ---------------------------------------

def contains(d: DomainSpec, z):
    """Whether z lies in the open domain; z may be a batch of shape (..., n)."""
    z, res = _batched_residual(d, z)
    inside = res < 0.0
    return bool(inside) if z.ndim == 1 else inside


def boundary_residual(d: DomainSpec, a):
    """Signed residual of the kind's boundary equation (negative inside).

    a may be a batch of shape (..., n); a single point gives a float.  Image
    kinds report +inf where a point has no preimage.
    """
    a, res = _batched_residual(d, a)
    return float(res) if a.ndim == 1 else res


def _batched_residual(d, z):
    z = np.asarray(z, dtype=complex)
    if z.shape[-1] != d.n:
        raise ArgumentError(f"point has trailing dimension {z.shape[-1]}, domain has n={d.n}")
    return z, _residual(d, z.reshape(-1, d.n)).reshape(z.shape[:-1])


def _residual(d, z):
    """Residuals at points z of shape (m, n): gauge - 1 for catalog kinds, the
    base residual at the preimage for image kinds, the defining values."""
    # the array-method reductions (the sum is the one np.linalg.norm takes)
    # give the same values as the np.* wrappers and save more per call than
    # the subtraction costs; membership runs 10^5 times per certificate
    kind = d.kind
    if kind == "ball":
        return np.sqrt((z.conj() * z).real.sum(axis=-1)) - 1.0
    if kind == "polydisc":
        return np.abs(z).max(axis=-1) - 1.0
    if kind == "l1ball":
        return np.abs(z).sum(axis=-1) - 1.0
    if kind == "lp_ball":
        return (np.abs(z) ** d.p).sum(axis=-1) - 1.0
    if kind in IMAGE_KINDS:
        w, ok = _preimage(d, z)
        if ok is None:
            return _residual(d.base, w)
        res = np.full(z.shape[0], np.inf)
        res[ok] = _residual(d.base, w[ok])
        return res
    return _defining_values(d, z)


def _preimage(d, z):
    """Base points w = u / (1 - e.u), u = d0 N^-1 (z - z0), of image points z
    (..., n), and the mask of points off the horizon (None: affine, no horizon).

    Sherman-Morrison on N - (z - z0) d^T; the divisor is a per-row einsum, so
    a batch rounds as its rows do one at a time.
    """
    u = (z - d._z0) @ d._n_inv.T
    if d.denominator is None:
        return u, None
    div = 1.0 - np.einsum("...j,j->...", u, d._e)
    ok = np.abs(div) > 1e-13 * (1.0 + np.abs(u).max(axis=-1))
    return u / np.where(ok, div, 1.0)[..., None], ok


def forward_map(d: DomainSpec, w):
    """Apply an image kind's forward map to base points w of shape (..., n)."""
    if d.kind not in IMAGE_KINDS:
        raise ArgumentError(f"{d.kind} has no forward map")
    w = np.asarray(w, dtype=complex)
    z = w @ d.matrix.T + d.offset
    if d.denominator is None:
        # affine: the divisor is 1; skipping it halves the cost of a sample batch
        return z
    den = d._den[0] + w @ d._den[1:]
    if np.any(np.abs(den) < 1e-13):
        raise DomainFormatError("projective denominator vanishes on the base set")
    return z / den[..., None]


# -- ray exits ---------------------------------------------------------------

def ray_exit(d: DomainSpec, base, direction, tol=_EXIT_TOL) -> float:
    """First t > 0 with base + t*direction outside the open domain.

    Bracketed by a geometric march (resolution factor ~1.12, so a sliver the
    ray leaves and re-enters between consecutive marks can be skipped), then
    bisected to absolute tolerance `tol`; `ray_exit_batch` and the inscribed
    radius of `bounds` share the loop.  Raises RayCapError if the ray never
    leaves below the bounding radius.
    """
    t = ray_exit_batch(d, base, np.asarray(direction, dtype=complex)[None, :], tol=tol)
    return float(t[0])


def ray_exit_batch(d: DomainSpec, base, directions, tol=_EXIT_TOL) -> np.ndarray:
    """First exits of rays base + t*directions[i]; `base` is one point (n,)
    shared by every ray or one point per ray (m, n), all inside the domain."""
    base = np.asarray(base, dtype=complex)
    directions = np.asarray(directions, dtype=complex)
    if directions.ndim != 2 or directions.shape[1] != d.n:
        raise ArgumentError(f"directions must have shape (m, {d.n})")
    if base.shape not in ((d.n,), directions.shape):
        raise ArgumentError(f"base must have shape ({d.n},) or {directions.shape}")
    norms = np.linalg.norm(directions, axis=1)
    if np.any(norms == 0.0):
        raise ArgumentError("zero direction")
    if not np.all(contains(d, base)):
        raise ArgumentError("ray base point must lie inside the domain")
    # march cap in parameter units: bounding radius along the slowest direction
    cap = d.bounding_radius / norms.min() * 2.0
    # the closure looks `contains` up at call time, so a rebound one is used
    return _first_exits(lambda z: contains(d, z), base, directions, cap, tol)


def _first_exits(inside, bases, directions, cap, tol=_EXIT_TOL):
    """First t > 0 with bases + t*directions outside, for a batched membership
    oracle `inside` of an open set holding every base.

    A geometric march brackets each crossing, then bisection narrows the
    bracket to `tol`; RayCapError when a ray is still inside past `cap`.
    """
    def points(idx, t):
        # a shared base broadcasts; indexing it per round would cost a copy
        return (bases if bases.ndim == 1 else bases[idx]) + t * directions[idx]

    m = directions.shape[0]
    lo = np.zeros(m)
    hi = np.full(m, np.nan)
    t = _MARCH_START
    active = np.arange(m)
    while active.size:
        if t > cap:
            raise RayCapError(f"{active.size} rays still inside past t = {cap:g}")
        out = ~inside(points(active, t))
        hi[active[out]] = t
        lo[active[~out]] = t
        active = active[~out]
        t *= _MARCH_GROWTH

    while True:
        todo = np.flatnonzero(hi - lo > tol)
        if not todo.size:
            return lo
        mid = 0.5 * (lo[todo] + hi[todo])
        ins = inside(points(todo, mid[:, None]))
        lo[todo[ins]] = mid[ins]
        hi[todo[~ins]] = mid[~ins]


# -- boundary sampling -------------------------------------------------------

_PHASES = np.array([1.0, -1.0, 1j, -1j])


def boundary_samples(d: DomainSpec, count, rng) -> np.ndarray:
    """Boundary points of a ball, polydisc or l1 ball, or of an image of one.

    The axis points and the all-ones corner under the four quarter phases
    lead the block, followed by `count` random boundary points; image kinds
    map their base's samples forward.
    """
    if d.kind in IMAGE_KINDS:
        return forward_map(d, boundary_samples(d.base, count, rng))
    n = d.n
    ones = np.ones(n, dtype=complex)
    if d.kind == "ball":
        g = rng.normal(size=(count, 2 * n)).view(complex)
        rand = g / np.linalg.norm(g, axis=1, keepdims=True)
        corner = ones / np.sqrt(n)
    elif d.kind == "polydisc":
        rand = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(count, n)))
        corner = ones
    elif d.kind == "l1ball":
        mod = rng.dirichlet(np.ones(n), size=count)
        rand = mod * np.exp(1j * rng.uniform(-np.pi, np.pi, size=(count, n)))
        corner = ones / n
    else:
        raise ArgumentError(f"no boundary sampler for {d.kind}")
    return np.concatenate([_axis_points(n), np.outer(_PHASES, corner), rand])


def _axis_points(n):
    """The 4n points phase * e_k, phase-major over the four quarter phases."""
    eye = np.eye(n, dtype=complex)
    return np.concatenate([ph * eye for ph in _PHASES])


# -- interior sampling -------------------------------------------------------

def interior_samples(d: DomainSpec, count, rng) -> np.ndarray:
    """Draw `count` interior points: uniform for the catalog kinds, pushed
    forward from the base for image kinds, by rejection from a ball for
    defining functions."""
    kind = d.kind
    n = d.n
    if kind == "ball":
        g = rng.normal(size=(count, 2 * n)).view(complex)
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        r = rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / (2 * n))
        return g * r
    if kind == "polydisc":
        mod = np.sqrt(rng.uniform(0.0, 1.0, size=(count, n)))
        arg = rng.uniform(-np.pi, np.pi, size=(count, n))
        return mod * np.exp(1j * arg)
    if kind in ("l1ball", "lp_ball"):
        # exact law, p = 1 for l1: moduli**p ~ Dirichlet(2/p, .., 2/p) is the
        # cone measure of the unit sphere, scaled by the radial law u**(1/2n)
        p = 1.0 if kind == "l1ball" else d.p
        g = rng.gamma(2.0 / p, size=(count, n))
        mod = (g / g.sum(axis=1, keepdims=True)) ** (1.0 / p)
        mod *= rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / (2 * n))
        arg = rng.uniform(-np.pi, np.pi, size=(count, n))
        return mod * np.exp(1j * arg)
    if kind in IMAGE_KINDS:
        return forward_map(d, interior_samples(d.base, count, rng))
    return _rejection_samples(d, count, rng)


def _rejection_samples(d, count, rng, max_rounds=400):
    # probe a sampling radius along the coordinate axes from the origin
    radius = 2.0 * ray_exit_batch(d, np.zeros(d.n, dtype=complex), _axis_points(d.n)).max()
    radius = min(radius, d.bounding_radius)
    out = []
    have = 0
    for _ in range(max_rounds):
        m = max(count, 4 * (count - have))
        g = rng.normal(size=(m, 2 * d.n)).view(complex)
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        r = radius * rng.uniform(0.0, 1.0, size=(m, 1)) ** (1.0 / (2 * d.n))
        cand = g * r
        keep = cand[_residual(d, cand) < 0.0]
        if keep.size:
            out.append(keep)
            have += keep.shape[0]
        if have >= count:
            return np.concatenate(out)[:count]
    raise ValidationFailureError(
        f"interior sampling of {d.kind} accepted {have}/{count} points; domain too thin")


# -- tangent functionals -----------------------------------------------------

@dataclass(frozen=True)
class TangentFunctional:
    """Hyperplane coefficients at a boundary point.

    The pairing is the Hermitian inner product <z, coefficients>.  For the
    real_supporting flavor the open domain satisfies Re<z, c> < Re<a, c>; for
    complex_avoiding it satisfies <z, c> != <a, c>.
    """

    point: np.ndarray
    coefficients: np.ndarray
    flavor: str
    value: complex
    samples_checked: int = 0
    min_margin: float = math.nan

    def __post_init__(self):
        for name in ("point", "coefficients"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def tangent_functional(d: DomainSpec, a, flavor, samples=1000, seed=0) -> TangentFunctional:
    """Supporting (real flavor) or avoiding (complex flavor) functional at a.

    Raises NonsmoothBoundaryError at corner points of the catalog bodies and
    where a defining gradient degenerates; ValidationFailureError if any of
    the sampled interior points violates the flavor's invariant.
    """
    if flavor not in ("real_supporting", "complex_avoiding"):
        raise ArgumentError(f"unknown flavor {flavor!r}")
    a = np.asarray(a, dtype=complex)
    if a.shape != (d.n,):
        raise ArgumentError(f"boundary point must have shape ({d.n},)")
    if abs(boundary_residual(d, a)) > 1e-6:
        raise ArgumentError("point is not on the boundary within tolerance")
    lam = _functional_coefficients(d, a)
    value = complex(np.vdot(lam, a))
    tf = TangentFunctional(point=a, coefficients=lam, flavor=flavor, value=value)
    if samples:
        tf = _validate_functional(d, tf, samples, seed)
    return tf


def _functional_coefficients(d, a, smooth_tol=1e-9):
    kind = d.kind
    if kind == "ball":
        return a.copy()
    if kind == "polydisc":
        mods = np.abs(a)
        on_face = mods >= 1.0 - smooth_tol
        if on_face.sum() != 1:
            raise NonsmoothBoundaryError(
                f"polydisc point touches {int(on_face.sum())} faces; tangent undefined")
        lam = np.zeros(d.n, dtype=complex)
        k = int(np.flatnonzero(on_face)[0])
        lam[k] = a[k]
        return lam
    if kind == "l1ball":
        mods = np.abs(a)
        if np.any(mods < smooth_tol):
            raise NonsmoothBoundaryError("l1 boundary point has a vanishing coordinate")
        return a / mods
    if kind == "lp_ball":
        mods = np.abs(a)
        if d.p == 1.0 and np.any(mods < smooth_tol):
            raise NonsmoothBoundaryError("l1 boundary point has a vanishing coordinate")
        lam = np.zeros(d.n, dtype=complex)
        nz = mods > 0
        lam[nz] = d.p * mods[nz] ** (d.p - 2.0) * a[nz]
        return lam
    if kind in IMAGE_KINDS:
        w, ok = _preimage(d, a)
        if ok is not None and not ok:
            raise ArgumentError("no preimage at the requested point")
        lam_base = _functional_coefficients(d.base, w, smooth_tol)
        # hyperplane coefficients transform by the conjugate transpose of the
        # inverse forward derivative (M - a d^T) / (d0 + d.w)
        jac = (d.matrix - a[:, None] * d._den[None, 1:]) / (d._den[0] + w @ d._den[1:])
        return np.conj(np.linalg.inv(jac)).T @ lam_base
    lam = np.array([fn(*list(a) + list(np.conj(a))) for fn in d._grad_fns], dtype=complex)
    if np.linalg.norm(lam) < smooth_tol:
        raise NonsmoothBoundaryError("defining gradient degenerates at the point")
    return lam


def _validate_functional(d, tf, samples, seed):
    rng = np.random.default_rng(seed)
    pts = interior_samples(d, samples, rng)
    pairings = pts @ np.conj(tf.coefficients)
    scale = 1.0 + abs(tf.value)
    if tf.flavor == "real_supporting":
        margins = tf.value.real - pairings.real
        violations = int(np.count_nonzero(margins <= -1e-12 * scale))
    else:
        margins = np.abs(pairings - tf.value)
        violations = int(np.count_nonzero(margins <= 1e-12 * scale))
    if violations:
        raise ValidationFailureError(
            f"{violations}/{samples} interior samples violate the {tf.flavor} invariant")
    return TangentFunctional(
        point=tf.point, coefficients=tf.coefficients, flavor=tf.flavor, value=tf.value,
        samples_checked=samples, min_margin=float(margins.min()))


# -- declared class spot checks ---------------------------------------------

def convexity_spot_check(d: DomainSpec, trials=200, seed=0) -> int:
    """Sampled necessary-condition check of the declared convexity class.

    convex: midpoints of interior pairs stay interior.  cconvex: the real
    segment between the two first exits of a random real line through an
    interior point is gridded at 101 parameters and must stay one run of
    inside points.  Its endpoints are inside by construction, so a trial is
    flagged only when the exit march stepped over two slivers; complex-line
    slices are not tested.  Returns the violation count (0 is consistent).
    """
    rng = np.random.default_rng(seed)
    if d.convexity_class == "convex":
        z = interior_samples(d, 2 * trials, rng)
        mid = 0.5 * (z[:trials] + z[trials:])
        return int(np.count_nonzero(~contains(d, mid)))
    pts = interior_samples(d, trials, rng)
    dirs = rng.normal(size=(trials, 2 * d.n)).view(complex)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    span = ray_exit_batch(d, np.concatenate([pts, pts]), np.concatenate([dirs, -dirs]))
    ts = np.linspace(-span[trials:], span[:trials], 101, axis=-1)
    mask = contains(d, pts[:, None, :] + ts[:, :, None] * dirs[:, None, :])
    runs = np.count_nonzero(np.diff(mask.astype(int), axis=1) == 1, axis=1)
    return int(np.count_nonzero(runs > 1))


# -- JSON schema -------------------------------------------------------------

def _c2pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _pair2c(pair) -> complex:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise DomainFormatError(f"complex values are [re, im] pairs, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def domain_to_json(d: DomainSpec) -> dict:
    out = {"n": d.n, "kind": d.kind, "class": d.convexity_class,
           "bounding_radius": d.bounding_radius}
    if d.p is not None:
        out["p"] = d.p
    if d.base is not None:
        out["base"] = domain_to_json(d.base)
    if d.matrix is not None:
        m = {"matrix": [[_c2pair(v) for v in row] for row in d.matrix],
             "offset": [_c2pair(v) for v in d.offset]}
        if d.denominator is not None:
            m["denominator"] = [_c2pair(v) for v in d.denominator]
        out["map"] = m
    if d.rho is not None:
        out["rho"] = d.rho
    return out


def domain_from_json(data) -> DomainSpec:
    if not isinstance(data, dict):
        raise DomainFormatError("domain description must be a JSON object")
    unknown = set(data) - {"n", "kind", "class", "bounding_radius", "p", "base", "map", "rho"}
    if unknown:
        raise DomainFormatError(f"unknown domain keys {sorted(unknown)}")
    try:
        n = data["n"]
        kind = data["kind"]
    except KeyError as exc:
        raise DomainFormatError(f"missing required key {exc}") from exc
    base = domain_from_json(data["base"]) if "base" in data else None
    matrix = offset = denominator = None
    if "map" in data:
        m = data["map"]
        matrix = [[_pair2c(v) for v in row] for row in m["matrix"]]
        offset = [_pair2c(v) for v in m["offset"]]
        if "denominator" in m:
            denominator = [_pair2c(v) for v in m["denominator"]]
    default_class = base.convexity_class if base is not None else "convex"
    if kind == "projective_image":
        default_class = "cconvex"
    cls = data.get("class", default_class)
    if kind == "defining_function" and "class" not in data:
        raise DomainFormatError("defining_function requires an explicit class declaration")
    return DomainSpec(
        n=n, kind=kind, convexity_class=cls,
        bounding_radius=data.get("bounding_radius", DEFAULT_BOUNDING_RADIUS),
        p=data.get("p"), base=base, matrix=matrix, offset=offset,
        denominator=denominator, rho=data.get("rho"))
