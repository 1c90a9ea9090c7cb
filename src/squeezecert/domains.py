"""Bounded domain descriptions: membership, ray exits, tangent functionals.

A DomainSpec is a closed description of a bounded domain in C^n containing the
origin-to-be-certified, either as a catalog body (ball, polydisc, l1 ball,
lp ball), as an affine or projective image of another spec, or as a sublevel
set of a user-supplied real-analytic defining expression.  It is the only
body type: the sampled containment checks take catalog specs and their
affine images.

One batched residual kernel per kind carries membership and the boundary
equation: gauge - 1 for the ball and polydisc, sum |z_k|^p - 1 for l1 and
lp balls (the gauge's p-th power, not the gauge), the body residual at the
preimage for image kinds (one closed-form preimage of the composite map its
chain builds at construction, +inf on its horizon), the defining values
otherwise; `contains` is residual < 0.  Every first exit along rays comes
from one engine, `_first_exits`: ray_exit_batch (and through it the frame
search, the C-convex spot check and the sampling radius of rejection
sampling) and the inscribed radius of `bounds`.  Both seed it with exit
brackets taken through that map: ray_exit_batch from `_exact_exits`, a ray
pulled back to a degree-1 path, `bounds` from `_path_exits`, a witness-image
ray pulled back through Mobius coordinate maps by `_mobius_path_exits`; every
chain, affine or projective, pulls a path back in one form, U(t) / alpha(t).
Over every chain of a catalog body, affine or projective, a closed-form
enclosure of Mobius images of discs starts each witness scan at an inner
radius and, past a pilot chunk, gives the rays that cannot hold the least
exit a certified lower end instead of a path.
Rays over ball and polydisc bases, and over l1 and lp bases under affine
maps, give closed-form exits, bracketed within _EXIT_TOL; every other path
gives two consecutive marks of the march from one grid scan, which Newton
refines over ball and polydisc bases where the path can hold the least
exit.  One membership call tests the bases and both ends of every bracket;
a bracket that holds is bisected, and rays over defining functions, and
rays whose bracket fails, take a geometric march and bisection.  `bounds`
asks for the least exit alone, so the engine gives up each ray whose
bracket lies above another ray's.
`boundary_samples` draws boundary points of the ball, the polydisc, the l1
ball (every lp ball at p = 1) and their images.  `_projection_disc` gives
the projection of a domain under a linear functional in closed form,
through the support function of its innermost catalog body: a disc over
ball bodies and affine chains.

Membership, residuals, ray exits, and sampling all accept batched inputs with
shape (..., n); everything downstream leans on that.
"""
from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    DomainFormatError,
    NonsmoothBoundaryError,
    RayCapError,
    ValidationFailureError,
)
from .numerics import _check_counts, _freeze, _frozen, _pairs

# the optional fields each kind takes, all of them required; None elsewhere
_KIND_FIELDS = {
    "ball": (),
    "polydisc": (),
    "l1ball": (),
    "lp_ball": ("p",),
    "affine_image": ("base", "matrix", "offset"),
    "projective_image": ("base", "matrix", "offset", "denominator"),
    "defining_function": ("rho",),
}
_OPTIONAL_FIELDS = ("p", "base", "matrix", "offset", "denominator", "rho")
ALL_KINDS = tuple(_KIND_FIELDS)
IMAGE_KINDS = tuple(k for k in ALL_KINDS if "base" in _KIND_FIELDS[k])
CATALOG_KINDS = tuple(k for k in ALL_KINDS if not {"base", "rho"} & set(_KIND_FIELDS[k]))

DEFAULT_BOUNDING_RADIUS = 1e6
# the lp exponent of each catalog body's gauge, its `_p`; an lp ball reads its p
_EXPONENTS = {"ball": 2.0, "polydisc": math.inf, "l1ball": 1.0}

# geometric march used to bracket the first boundary crossing along a ray
_MARCH_START = 1e-2
_MARCH_GROWTH = 1.12
# absolute bisection tolerance on the exit parameter
_EXIT_TOL = 1e-12
# Newton rounds of the closed-form exits; each row stops on its own test,
# well before this
_NEWTON_ROUNDS = 60
# Mobius paths are built in chunks of rays that hold about this many
# coefficients, n + 1 per coordinate, bounding their memory
_PATH_COEFFS = 24576
# rays of the witness's pilot chunk, whose least upper end starts the screen;
# a convex_catalog round takes as long from 32 to 256 of them, longer at 512
_PILOT_ROWS = 256
# the witness screen takes its rays in blocks of this many, which keep its
# temporaries in cache: over the witness passes of a convex_catalog round
# 2048 ran fastest from 512 to 8192, and one call over a whole 12 000-ray
# batch took 1.3 times as long
_SCREEN_ROWS = 2048
# one membership call tests both bracket ends of up to this many rays; a
# large batch (a witness's 12 000 rays) goes in blocks, which bound the
# points held at once
_CHECK_ROWS = 4096
# the grid scan of `_grid_brackets` evaluates blocks of this many marks, over
# as many rows as keep a block within this many values
_SCAN_MARKS = 8
_SCAN_FLOATS = 1 << 16
# rounds of rejection proposals before interior sampling gives up
_REJECTION_ROUNDS = 400
# moduli below this vanish; a polydisc coordinate this close to the largest
# one, relatively, touches its face
_SMOOTH_TOL = 1e-9
# a preimage's divisor 1 - e.u must exceed this times 1 + max|u|, or its
# point lies on the composite map's horizon
_HORIZON = 1e-13


@dataclass(frozen=True, eq=False)
class DomainSpec:
    """Closed description of a bounded domain in C^n containing reference data.

    Each kind takes exactly the optional fields `_KIND_FIELDS` lists for it:
    `p` for lp_ball; `base`, `matrix` and `offset` for both image kinds, with
    the `denominator` (d0, ..., dn) for projective images; `rho` for a
    defining function.  `convexity_class` is "convex" or "cconvex"; left None
    it is derived: catalog bodies are convex, an affine image has its base's
    class, a projective image is C-convex, and a defining function must
    declare its own, which is only spot-checked by sampling.
    """

    n: int
    kind: str
    convexity_class: str | None = None
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
        self._store(n=int(self.n))
        if self.kind not in ALL_KINDS:
            raise DomainFormatError(f"unknown domain kind {self.kind!r}")
        for name in _OPTIONAL_FIELDS:
            have = getattr(self, name) is not None
            if have != (name in _KIND_FIELDS[self.kind]):
                raise DomainFormatError(f"{self.kind} {'takes no' if have else 'requires'} {name}")
        if self.base is not None:
            if not isinstance(self.base, DomainSpec):
                raise DomainFormatError("base must itself be a DomainSpec")
            if self.base.n != self.n:
                raise DomainFormatError("base dimension must match")
        if self.convexity_class is None:
            if self.kind == "defining_function":
                raise DomainFormatError("defining_function requires a declared convexity_class")
            self._store(convexity_class=(
                "cconvex" if self.kind == "projective_image"
                else self.base.convexity_class if self.kind == "affine_image" else "convex"))
        if self.convexity_class not in ("convex", "cconvex"):
            raise DomainFormatError(f"convexity class must be convex or cconvex, got {self.convexity_class!r}")
        if isinstance(self.bounding_radius, bool) or not (
                isinstance(self.bounding_radius, numbers.Real)
                and 0 < self.bounding_radius < math.inf):
            raise DomainFormatError("bounding_radius must be a positive finite real")
        self._store(bounding_radius=float(self.bounding_radius))
        if self.p is not None:
            if isinstance(self.p, bool) or not (
                    isinstance(self.p, numbers.Real) and 1.0 <= self.p < math.inf):
                raise DomainFormatError(f"lp_ball requires finite real p >= 1, got {self.p!r}")
            self._store(p=float(self.p))
        self._store(_p=_EXPONENTS.get(self.kind, self.p))
        if self.matrix is not None:
            self._set_map()
        else:  # a body is its own chain, under the identity map
            self._store(_body=self, _hom=np.eye(self.n + 1, dtype=complex), _projective=False)
        if self.rho is not None:
            if not isinstance(self.rho, str):
                raise DomainFormatError(f"defining expression must be a string, got {self.rho!r}")
            member_fn, grad_fns = _parse_defining_expression(self.rho, self.n)
            self._store(_member_fn=member_fn, _grad_fns=grad_fns)

    def _store(self, **fields):
        """Set fields of the frozen instance during construction."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _set_map(self):
        """Check the map z = (M w + c) / (d0 + d.w), compose it with the base's
        chain into one map z = (C v + c') / (q0 + q.v) over the innermost body
        B (`_hom`, rows (q0, q) and (c', C); `_body`), and store the data of
        its one closed-form preimage: z0 = c'/q0, q0 N^-1 with N = C - z0 q^T,
        and e = q/q0.  `_projective`: some layer is projective (read by
        `_preimage`, which skips the divisor 1 - e.u of affine chains, and by
        `_enclosure`, which keeps no e for them).

        Affine maps keep `denominator` None and map with den = (1, 0, ..., 0).
        det of the composite is q0 det N, so a singular N is a degenerate map.
        Over a catalog body the composite denominator must stay off the closed
        body, |q0| > h_B(q), or the image is unbounded.
        """
        n = self.n
        try:
            mat, off = _frozen(self.matrix), _frozen(self.offset)
            den = _frozen(np.eye(1, n + 1)[0] if self.denominator is None else self.denominator)
        except (TypeError, ValueError) as exc:
            raise DomainFormatError(f"map data must be numeric arrays: {exc}") from exc
        for name, arr, shape in (("matrix", mat, (n, n)), ("offset", off, (n,)),
                                 ("denominator", den, (n + 1,))):
            if arr.shape != shape:
                raise DomainFormatError(f"map {name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise DomainFormatError("map data must be finite")
        # rows: the denominator (d0, d), then the numerator (c, M)
        hom = np.vstack([den, np.column_stack([off, mat])]) @ self.base._hom
        body, q0, q = self.base._body, hom[0, 0], hom[0, 1:]
        if q0 == 0:
            raise DomainFormatError("projective denominator must not vanish at the base origin")
        # q0 + q.v vanishes somewhere on the closed catalog body exactly when
        # |q0| <= sup |q.v| there, which is the dual norm of q
        if body.kind in CATALOG_KINDS and q.any() and abs(q0) <= _dual_norm(body, q):
            raise DomainFormatError(
                "projective denominator vanishes on the closed base: the image is unbounded")
        z0 = hom[1:, 0] / q0
        n_mat = hom[1:, 1:] - np.outer(z0, q)
        sv = np.linalg.svd(n_mat, compute_uv=False)
        if sv[-1] <= 1e-12 * sv[0]:
            raise DomainFormatError(
                f"{self.kind} map is degenerate: M - c d^T/d0 is singular within tolerance")
        if self.denominator is not None:
            self._store(denominator=den)
        self._store(matrix=mat, offset=off, _body=body, _hom=hom, _z0=z0,
                    _n_inv=q0 * np.linalg.inv(n_mat), _e=q / q0,
                    _projective=self.denominator is not None or self.base._projective)


# -- catalog constructors ----------------------------------------------------

def ball(n, bounding_radius=DEFAULT_BOUNDING_RADIUS) -> DomainSpec:
    """Open unit euclidean ball in C^n."""
    return DomainSpec(n=n, kind="ball", bounding_radius=bounding_radius)


def polydisc(n, bounding_radius=DEFAULT_BOUNDING_RADIUS) -> DomainSpec:
    """Open unit polydisc in C^n."""
    return DomainSpec(n=n, kind="polydisc", bounding_radius=bounding_radius)


def l1ball(n, bounding_radius=DEFAULT_BOUNDING_RADIUS) -> DomainSpec:
    """Open unit l1 ball {sum |z_j| < 1} in C^n."""
    return DomainSpec(n=n, kind="l1ball", bounding_radius=bounding_radius)


def lp_ball(n, p, bounding_radius=DEFAULT_BOUNDING_RADIUS) -> DomainSpec:
    """Open unit lp ball {sum |z_j|**p < 1}, p >= 1."""
    return DomainSpec(n=n, kind="lp_ball", p=p, bounding_radius=bounding_radius)


def affine_image(base, matrix, offset=None, bounding_radius=None) -> DomainSpec:
    """Image of `base` under z = matrix @ w + offset; inherits the base class."""
    offset = np.zeros(base.n) if offset is None else offset
    return DomainSpec(
        n=base.n, kind="affine_image",
        bounding_radius=base.bounding_radius if bounding_radius is None else bounding_radius,
        base=base, matrix=matrix, offset=offset)


def projective_image(base, matrix, offset, denominator, bounding_radius=None,
                     convexity_class=None) -> DomainSpec:
    """Image of `base` under z = (matrix @ w + offset) / (d0 + d . w).

    `denominator` lists the affine coefficients (d0, d1, ..., dn) with d0 != 0.
    The map must be nondegenerate, that is M - c d^T / d0 nonsingular, or
    construction raises DomainFormatError.  Projective images of convex bases
    are C-convex, the class DomainSpec derives when `convexity_class` is None.
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
    # sympy takes most of the package's import time; only this parser needs it
    import sympy as sp

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


# -- row reductions over the last axis ---------------------------------------
# NumPy reduces a short last axis one row at a time, 20-60 times slower than
# the n - 1 elementwise ops over its columns; these give the same bits

def _columns(op, x, out):
    for k in range(1, x.shape[-1]):
        op(out, x[..., k], out=out)
    return out


def _row_max(x):
    """x.max(axis=-1), nan propagating as there."""
    return _columns(np.maximum, x, x[..., 0].copy())


def _row_min(x):
    """x.min(axis=-1), nan propagating as there."""
    return _columns(np.minimum, x, x[..., 0].copy())


def _row_all(x):
    """x.all(axis=-1) of a boolean array."""
    return _columns(np.logical_and, x, x[..., 0].copy())


def _row_sum(x):
    """x.sum(axis=-1) of a float array: from +0 in column order, as NumPy adds
    fewer than 8 terms; from 8 on it adds pairwise, so that sum is NumPy's."""
    if x.shape[-1] >= 8:
        return x.sum(axis=-1)
    return _columns(np.add, x, x[..., 0] + 0.0)


def _row_norm(x, g):
    """np.linalg.norm(x, ord=g, axis=-1) for a finite g >= 1, in its steps."""
    if g == 2.0:
        return np.sqrt(_row_sum((x.conj() * x).real))
    mod = np.abs(x)
    return _row_sum(mod) if g == 1.0 else _row_sum(mod ** g) ** (1.0 / g)


# -- membership and boundary residuals ---------------------------------------

def contains(d: DomainSpec, z):
    """Whether z lies in the open domain; z may be a batch of shape (..., n)."""
    z, res = _batched_residual(d, z)
    inside = res < 0.0
    return bool(inside) if z.ndim == 1 else inside


def boundary_residual(d: DomainSpec, a):
    """Signed residual of the kind's boundary equation (negative inside).

    a may be a batch of shape (..., n); a single point gives a float.  Image
    kinds report +inf on the composite map's horizon, where no preimage exists.
    """
    a, res = _batched_residual(d, a)
    return float(res) if a.ndim == 1 else res


def _batched_residual(d, z):
    z = np.asarray(z, dtype=complex)
    if z.shape[-1] != d.n:
        raise ArgumentError(f"point has trailing dimension {z.shape[-1]}, domain has n={d.n}")
    return z, _residual(d, z.reshape(-1, d.n)).reshape(z.shape[:-1])


def _residual(d, z):
    """Residuals at points z of shape (m, n): gauge - 1 for the ball and
    polydisc, sum |z_k|^p - 1 for l1 and lp balls, the innermost body's
    residual at the preimage for image kinds, the defining values."""
    # the column-wise row reductions give the bits of .max/.sum(axis=-1) at
    # a fraction of their cost; membership runs 10^5 times per certificate
    kind = d.kind
    if kind == "ball":
        return _row_norm(z, 2.0) - 1.0
    if kind == "polydisc":
        return _row_max(np.abs(z)) - 1.0
    if kind in ("l1ball", "lp_ball"):
        mod = np.abs(z)  # the plain sum at p = 1: a power of 1 costs a copy
        return _row_sum(mod if d._p == 1.0 else mod ** d._p) - 1.0
    if kind in IMAGE_KINDS:
        w, ok = _preimage(d, z)
        if ok is None:
            return _residual(d._body, w)
        res = np.full(z.shape[0], np.inf)
        res[ok] = _residual(d._body, w[ok])
        return res
    return _defining_values(d, z)


def _preimage(d, z):
    """Body points w = u / (1 - e.u), u = q0 N^-1 (z - z0), of image points z
    (..., n), and the mask of points off the horizon (None: an affine chain).

    Sherman-Morrison on N - (z - z0) d^T; the divisor is a per-row einsum, so
    a batch rounds as its rows do one at a time.
    """
    u = (z - d._z0) @ d._n_inv.T
    if not d._projective:
        return u, None
    div = 1.0 - np.einsum("...j,j->...", u, d._e)
    ok = np.abs(div) > _HORIZON * (1.0 + _row_max(np.abs(u)))
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
    den = d.denominator[0] + w @ d.denominator[1:]
    if np.any(np.abs(den) < 1e-13):
        raise DomainFormatError("projective denominator vanishes on the base set")
    return z / den[..., None]


# -- ray exits ---------------------------------------------------------------

def ray_exit(d: DomainSpec, base, direction) -> float:
    """First t > 0 with base + t*direction outside the open domain.

    Kinds whose innermost base is a ball or polydisc, and l1 and lp balls
    under affine maps, take the closed-form exit of `_exact_exits`; rays
    through projective images of l1 and lp balls take the bracket of one
    grid scan of their gauge residual on the marks of the march.  One
    membership call tests the base and both ends of the bracket, which is
    kept when it holds; closed-form exits are then exact first crossings.
    Rays over defining functions, and rays whose bracket fails, take a
    geometric march (resolution factor ~1.12, so a sliver the ray leaves and
    re-enters between consecutive marks can be skipped).  Brackets are
    bisected to tolerance _EXIT_TOL in t, taken for a direction whose
    largest modulus lies in [2^-5, 2) (others are scaled into it by a power
    of two, so the tolerance scales with them); a grid bracket is bisected
    exactly as the march's, so those exits are the marched ones.  Raises
    RayCapError if the ray never leaves below the bounding radius.
    """
    t = ray_exit_batch(d, base, np.asarray(direction, dtype=complex)[None, :])
    return float(t[0])


def ray_exit_batch(d: DomainSpec, base, directions) -> np.ndarray:
    """First exits of rays base + t*directions[i]; `base` is one point (n,)
    shared by every ray or one point per ray (m, n), all inside the domain.
    An empty batch gives an empty array."""
    base = np.asarray(base, dtype=complex)
    directions = np.asarray(directions, dtype=complex)
    if directions.ndim != 2 or directions.shape[1] != d.n:
        raise ArgumentError(f"directions must have shape (m, {d.n})")
    if base.shape not in ((d.n,), directions.shape):
        raise ArgumentError(f"base must have shape ({d.n},) or {directions.shape}")
    if not directions.shape[0]:
        return np.empty(0)
    # moduli first: the complex norm would take inf * 0 on an infinite entry
    mod = np.abs(directions)
    top = _row_max(mod)
    least, most = top.min(), top.max()
    if not (least > 0.0 and most < np.inf):
        raise ArgumentError("directions must be finite and nonzero")
    # the march start and the exit tolerance are absolute in t: a row whose
    # largest modulus leaves [2^-5, 2) (every unit vector up to n = 1024 is
    # inside) is scaled by the power of two that brings it into [1/2, 1), and
    # its exit scaled back; both steps are exact
    scale = None
    if least < 2.0 ** -5 or most >= 2.0:
        scale = np.where((top < 2.0 ** -5) | (top >= 2.0), np.ldexp(1.0, -np.frexp(top)[1]), 1.0)
        directions = directions * scale[:, None]
        mod = mod * scale[:, None]
    # march cap in parameter units: bounding radius along the slowest direction
    # (the norm as np.linalg.norm takes it, without its call overhead)
    cap = d.bounding_radius / np.sqrt(_row_sum(mod * mod)).min() * 2.0
    bracket = _exact_exits(d, base, directions, cap)
    # the closure looks `contains` up at call time, so a rebound one is used
    t = _first_exits(lambda z: contains(d, z), base, directions, cap, bracket)
    return t if scale is None else t * scale


def _first_exits(inside, bases, directions, cap, bracket=None, least=False):
    """First t > 0 with bases + t*directions outside, for a batched membership
    oracle `inside` of an open set holding every base.

    A `bracket` (lower, upper) of arrays over the rays is kept for a ray when
    0 <= lower, upper <= cap, `inside` holds at lower and fails at upper:
    closed-form exits t come as t -+ 0.4*_EXIT_TOL, grid scans as two
    consecutive marks of the march below.  One membership call tests the
    bases and both ends of every bracket, and only the rays whose bracket
    fails, or that have none, march: a geometric march brackets each
    crossing.  Bisection then narrows every bracket to _EXIT_TOL, or to one
    ulp where that is wider; RayCapError when a ray is still inside past
    `cap`.  Each returned t is the lower end of its bracket, a point tested
    inside.  The bases ride on the first membership call; ArgumentError when
    one is outside.

    With `least`, only the least of those exits is returned, bit for bit.  A
    ray whose lower end reaches the least upper end over all rays exits
    strictly above the least exit, so it is given up: the march stops at the
    first mark that reaches that bound, and bisection splits only brackets
    below it.  A bracket (lower, +inf) is a certified lower end, the caller's
    proof that the ray is inside up to lower: with no oracle call, the ray
    is given up once the least upper end held is at or below lower, and
    marches as an unbracketed ray otherwise (outside the least mode it
    always marches, as +inf fails the bracket test).  RayCapError then means
    that no ray leaves below `cap`.
    """
    def points(idx, t):
        # a shared base broadcasts; indexing it per round would cost a copy
        return (bases if bases.ndim == 1 else bases[idx]) + t * directions[idx]

    unchecked = bases.reshape(-1, bases.shape[-1])

    def first_inside(z):
        nonlocal unchecked
        if unchecked is None:
            return inside(z)
        k = unchecked.shape[0]
        got = inside(np.concatenate([unchecked, z]))
        unchecked = None
        if not got[:k].all():
            raise ArgumentError("ray base point must lie inside the domain")
        return got[k:]

    m = directions.shape[0]
    lo = np.zeros(m)
    hi = np.full(m, np.nan)

    def open_rays(idx):
        # a lower end at the least upper end cannot hold the least exit; an
        # unbracketed ray's upper end is nan, which the bound skips
        return idx[lo[idx] < np.fmin.reduce(hi, initial=np.inf)] if least else idx

    active = np.arange(m)
    if bracket is not None:
        lower, upper = bracket
        # nan and +inf ends fail these comparisons
        idx = ((lower >= 0.0) & (upper <= cap)).nonzero()[0]
        for start in range(0, idx.size, _CHECK_ROWS):
            rows = idx[start:start + _CHECK_ROWS]
            got = first_inside(points(np.concatenate([rows, rows]),
                                      np.concatenate([lower[rows], upper[rows]])[:, None]))
            held = rows[got[:rows.size] & ~got[rows.size:]]
            lo[held], hi[held] = lower[held], upper[held]
        active = np.isnan(hi).nonzero()[0]
        if least:
            # a certified lower end, (lower, +inf): given up at the least
            # upper end held, else marched as if unbracketed
            sure = active[(lower[active] >= 0.0) & np.isposinf(upper[active])]
            lo[sure] = lower[sure]
            active = open_rays(active)
            lo[active] = 0.0
        # every bracket held and is narrow: the bisection below has no work
        if not active.size and (hi - lo <= _EXIT_TOL).all():
            return lo.min() if least else lo

    t = _MARCH_START
    while active.size:
        if t > cap and not (least and np.isfinite(hi).any()):
            if unchecked is not None:
                first_inside(directions[:0])
            raise RayCapError(f"{active.size} rays still inside past t = {cap:g}")
        out = ~first_inside(points(active, t))
        hi[active[out]] = t
        lo[active[~out]] = t
        active = open_rays(active[~out])
        t *= _MARCH_GROWTH

    todo = np.arange(m)
    while True:
        todo = open_rays(todo[hi[todo] - lo[todo] > _EXIT_TOL])
        mid = 0.5 * (lo[todo] + hi[todo])
        # past t ~ 8e3 an ulp of t exceeds _EXIT_TOL: a bracket one ulp wide
        # cannot split, its mid rounds to an end, and the ray is done
        split = (lo[todo] < mid) & (mid < hi[todo])
        todo, mid = todo[split], mid[split]
        if not todo.size:
            return lo.min() if least else lo
        ins = inside(points(todo, mid[:, None]))
        lo[todo[ins]] = mid[ins]
        hi[todo[~ins]] = mid[~ins]


def _exact_exits(d, bases, directions, cap):
    """Exit brackets of the rays bases + t*directions: `_line_exits` of the
    degree-1 paths (bases + t directions) / 1 pulled back by `_pull_back` (an
    affine chain keeps the 1), a shared base as one row; None unless the
    innermost body is a catalog one."""
    if d._body.kind not in CATALOG_KINDS:
        return None
    u0 = bases.reshape(-1, d.n)
    k = u0.shape[0]
    alpha = np.repeat(np.array([1.0, 0.0], dtype=complex), [k, directions.shape[0]])
    body, u, alpha = _pull_back(d, np.concatenate([u0, directions]), alpha)
    return _line_exits(body, u[:k], u[k:], alpha[:k], alpha[k:], cap)


def _line_exits(d, u0, u1, a0, a1, cap):
    """Exit brackets (lower, upper) of the degree-1 paths (u0 + t u1) /
    (a0 + t a1) from the catalog body d, at `cap` at the latest; u0 and a0
    hold one row shared by every path or one per path.

    Ball and polydisc bodies are left where |u0 + t u1|^2 = |a0 + t a1|^2,
    summed over coordinates or per coordinate, a quadratic; l1 and lp bodies,
    along paths with a1 = 0 (every ray of an affine chain, with a0 = 1), where
    their gauge is a norm.  These closed-form exits t come as t -+ 0.4*_EXIT_TOL;
    the other paths (projective l1 and lp chains) take `_gauge_brackets`.
    Products are per row, so a batch rounds as its rows one at a time.
    """
    m = u1.shape[0]
    if d.kind in ("ball", "polydisc"):
        u0c = u0.conj()
        a, b, c = (u1.conj() * u1).real, (u0c * u1).real, (u0c * u0).real
        if d.kind == "ball":
            a, b, c = _row_sum(a), _row_sum(b), _row_sum(c)
        else:
            a0, a1 = a0[:, None], a1[:, None]
        a, b, c = (a - (a1.conj() * a1).real, b - (a0.conj() * a1).real,
                   c - (a0.conj() * a0).real)
        t = _first_root(a, b, c)
        if d.kind == "polydisc":
            t = _row_min(t)
        scan = ()
    else:
        u0, a0, flat = np.broadcast_to(u0, u1.shape), np.broadcast_to(a0, (m,)), a1 == 0.0
        t = np.full(m, np.nan)
        scale = a0[flat, None]
        # a start on a projective horizon has scale 0: its exit is nan and marches
        with np.errstate(divide="ignore", invalid="ignore"):
            t[flat] = _norm_exits(u0[flat] / scale, u1[flat] / scale, d._p)
        scan = np.flatnonzero(~flat)
    t = np.minimum(t, cap)
    lower, upper = t - 0.4 * _EXIT_TOL, t + 0.4 * _EXIT_TOL
    if len(scan):
        lower[scan], upper[scan] = _gauge_brackets(
            np.stack([u0[scan], u1[scan]]), np.stack([a0[scan], a1[scan]]),
            np.broadcast_to(cap, (m,))[scan], d._p)
    return lower, upper


def _pull_back(d, u, alpha):
    """d's innermost body and the coefficient rows u (r, n), alpha (r,) of
    paths U(t) / alpha(t) pulled back to it: the composite map's preimage
    w = u / (1 - e.u), u = q0 N^-1 (z - z0), maps each row on its own (in
    per-row einsums, so a batch rounds as its rows one at a time); e = 0
    under an affine chain, which leaves alpha exactly as it came."""
    if d.kind not in IMAGE_KINDS:
        return d, u, alpha
    u = np.einsum("ij,kj->ik", u - alpha[:, None] * d._z0, d._n_inv)
    return d._body, u, alpha - np.einsum("ij,j->i", u, d._e)


def _mobius_path_exits(d, mobius, affine_inv, enclosure, inner, directions):
    """Exit brackets (lower, upper) of the rays t*v from 0 whose preimages
    affine_inv psi(t v) reach d, psi_j(y) = (p_j y + q_j) / (r_j y + s_j) for
    mobius = (p, q, r, s) (arrays over coordinates); each ray leaves the unit
    polydisc at its clip 1/max|v_j|, the cap of its path.  None unless d's
    innermost base is a catalog body, before any path is built.

    Coordinate j of a ray pulls back to (q_j + p_j v_j t) / (s_j + r_j v_j t);
    over the common denominator alpha(t) = prod_j (s_j + r_j v_j t) the
    preimage is a rational path of degree n.  Paths are built in chunks of
    the rays that hold about _PATH_COEFFS coefficients, and each chunk is
    refined only below the running bound U, the least upper end of the
    chunks built before it.  A positive `inner`, the image's inner radius T
    from `_inner_radius`, is a mark up to which every mark is inside along
    rays with max|v_j| <= 1 (the unit boundary draws of the inscribed
    radius), so every grid scan starts at T; a ray leaving earlier fails its
    bracket and marches.  With it a pilot chunk of the first _PILOT_ROWS rays
    (a chunk's rays from n = 10 on, where a chunk holds fewer) sets U, and
    the later rays are screened in blocks of _SCREEN_ROWS against U as it
    stands when their block is screened: a ray whose segment from
    T min(1, clip) to U passes `_disc_product_inside` under `enclosure` (one
    disc about each coordinate's segment) exits above U and cannot hold the
    least exit: its bracket is (U, +inf), a certified lower end, and it gets
    no path.  The rays a block leaves are gathered, and their paths built a
    chunk at a time once a chunk is pending, the rest at the end.  Over
    every body and chain, affine or projective, the screen takes most rows
    of a batch.  With no inner radius (an image that misses the first mark's
    polydisc) nothing is screened and the chunks are the plain ones.
    """
    if d._body.kind not in CATALOG_KINDS:
        return None
    p, q, r, s = mobius
    m, n = directions.shape
    out = np.empty((2, m))
    chunk = max(1, _PATH_COEFFS // (n * (n + 1)))
    clip = 1.0 / _row_max(np.abs(directions))
    bound = np.inf

    def build(rows):
        nonlocal bound
        v = directions[rows]
        num = np.stack([np.broadcast_to(q, v.shape), p * v])
        den = np.stack([np.broadcast_to(s, v.shape), r * v])
        alpha = den[:, :, 0]
        x = num[:, :, :1]
        for j in range(1, n):
            x = np.concatenate([_polymul(x, den[:, :, j:j + 1]),
                                _polymul(alpha, num[:, :, j])[..., None]], axis=-1)
            alpha = _polymul(alpha, den[:, :, j])
        out[:, rows] = _path_exits(d, x @ affine_inv.T, alpha, clip[rows], bound, inner)
        bound = min(bound, out[1, rows].min())

    pilot = min(_PILOT_ROWS, chunk, m) if inner > 0.0 else 0
    if pilot:
        build(np.arange(pilot))
    pending = np.arange(0)
    for start in range(pilot, m, _SCREEN_ROWS):
        stop = min(m, start + _SCREEN_ROWS)
        rows = np.arange(start, stop)
        if 0.0 < inner < bound < np.inf:
            # coordinate-major, as the screen takes them
            v = np.ascontiguousarray(directions[start:stop].T)
            t0 = inner * np.minimum(1.0, clip[rows])
            screened = _disc_product_inside(enclosure, 0.5 * (t0 + bound) * v,
                                            0.5 * (bound - t0) * np.abs(v))
            out[0, rows[screened]], out[1, rows[screened]] = bound, np.inf
            rows = rows[~screened]
        pending = np.concatenate([pending, rows])
        while pending.size >= chunk:
            build(pending[:chunk])
            pending = pending[chunk:]
    if pending.size:
        build(pending)
    return out[0], out[1]


def _disc_product_inside(enclosure, a, rad):
    """Whether the witness image of `_mobius_path_exits` holds every product
    of the closed discs |y_j - a_j| <= rad_j, for `enclosure` the image's
    `_enclosure` (a chain over a catalog body, or the body itself).  a and
    rad are coordinate-major, (n, m) with one product per column, so that
    each coordinate's constants broadcast along a row; the matrix products
    take the transposed (m, n) views, which round as row-major operands do.
    Returns (m,) booleans: a valid product passes when its numerator bound
    lies below its denominator bound (`_disc_product_bounds`), which is 1
    over an affine chain.  Over a projective chain the denominator bound,
    positive once it exceeds the numerator bound, must also clear the
    horizon tolerance of `_preimage`, _HORIZON (1 + max|u|), where max|u| <=
    g(u) <= the numerator bound, widened by 1 + gamma for its rounding.
    On the chains tried the rounding slack already keeps such products out;
    the clearance does not rely on it.
    """
    valid, num, den = _disc_product_bounds(enclosure, a, rad)
    if den is None:
        return valid & (num < 1.0)
    return valid & (num < den) & (den > _HORIZON * (1.0 + num) * (1.0 + enclosure.gamma))


def _disc_product_bounds(enclosure, a, rad):
    """The bounds that `_disc_product_inside` compares, each (m,): whether
    the product is valid (its y discs lie in the open unit disc, off their
    Mobius poles); an upper bound on the body gauge g(u) over it; and over a
    projective chain a lower bound on |1 - e.u| (None over an affine chain,
    whose divisor is 1).  Every elementwise step writes in place.

    psi_j maps |y - a| <= R onto the disc of centre (q' conj(s') - p conj(r)
    R^2) / D and radius R |p s - q r| / D, q' = p a + q, s' = r a + s, D =
    |s'|^2 - |r|^2 R^2 > 0.  With B = N^-1 affine_inv (`_n_inv`), discs of
    centres c and radii rho map onto the points u = u_c + B (rho zeta),
    |zeta_j| <= 1, u_c = B c - N^-1 z0, and the oracle takes w = u / (1 -
    e.u) (`_preimage`; e = 0 over affine chains).  So the product lies in
    the body when g(u_c) + sup g(B (rho zeta)) < delta, g its lp gauge and
    delta = |1 - e.u_c| - sum_j |(e^T B)_j| rho_j <= |1 - e.u|.  Over a
    polydisc body the supremum is exact: max_k (|(u_c)_k| + sum_j |B_kj|
    rho_j).  Over the others it is bounded by the lesser of sum_j rho_j
    g(B e_j) (the triangle inequality) and the Gram term kappa sqrt(rho^T H
    rho) of `_enclosure`, which an l1 body under B = DFT/n attains (where
    the former is sqrt(n) times larger).

    Rounding: the radii are widened by gamma (|a| + R) to cover the float
    points t v, and the numerator bound adds gamma times the gauge of err =
    |N^-1| (|affine_inv| m + |z0|), where m_j = (|p| y + |q| + (|c| + rho)
    (|r| y + |s|)) / (|s'| - |r| R), y = |a| + R, bounds the moduli that the
    closed form, the oracle's Mobius step and both matrix products round
    against (m_j >= |c_j| + rho_j, so err_k >= |u_k|): each takes at most
    3n + 8 steps of at most 8 ulps of them, gamma = 8 (3n + 8) ulps over an
    affine chain.  A projective chain adds the n + 2 steps of div = 1 - e.u
    (n products and sums, the subtraction from 1) and of u / div, so gamma
    = 8 (4n + 10) ulps there.  Its denominator bound subtracts gamma (1 +
    sum_k |e_k| err_k): the rounding of u, of e.u_c and of e^T B moves e.u
    by at most gamma sum_k |e_k| err_k, and the steps of div round against
    1 + sum_k |e_k| |u_k|.  The division's step is relative to g(u) <=
    g(err), within the numerator's gamma g(err).
    """
    enc = enclosure
    mod_a = np.abs(a)
    wide = mod_a + rad
    wide *= enc.gamma
    wide += rad
    top = mod_a
    top += wide
    q1 = enc.p * a
    q1 += enc.q
    s1 = enc.r * a
    s1 += enc.s
    mod_s1 = np.abs(s1)
    gap = enc.mod_r * wide
    span = mod_s1 + gap
    np.subtract(mod_s1, gap, out=gap)
    span *= gap
    with np.errstate(divide="ignore", invalid="ignore"):
        centre = q1
        centre *= np.conj(s1, out=s1)
        centre -= enc.pr * np.square(wide)
        centre /= span
        rho = wide * enc.det
        rho /= span
        mag = enc.mod_p * top
        mag += enc.mod_q
        far = np.abs(centre)
        far += rho
        scale = enc.mod_r * top
        scale += enc.mod_s
        far *= scale
        mag += far
        mag /= gap
    w = centre.T @ enc.mat_t
    w -= enc.n_inv_z0
    err = mag.T @ enc.abs_affine_t
    err += enc.abs_z0
    err = err @ enc.abs_n_inv_t
    # a matrix-vector product of a transposed view rounds otherwise
    rho = np.ascontiguousarray(rho.T)
    if enc.g == math.inf:
        f = rho @ enc.abs_mat_t
        f += np.abs(w)
        f = _row_max(f)
        slack = _row_max(err)
    else:
        # a disc over a pole (rho < 0, failed by gap) may take a nan root
        torus = rho @ enc.h
        torus *= rho
        torus = _row_sum(torus)
        with np.errstate(invalid="ignore"):
            np.sqrt(torus, out=torus)
        torus *= enc.kappa
        torus = np.minimum(rho @ enc.gauges, torus, out=torus)
        f = _row_norm(w, enc.g)
        f += torus
        slack = _row_norm(err, enc.g)
    num = np.multiply(slack, enc.gamma, out=slack)
    num += f
    valid = gap > 0.0
    valid &= top < 1.0
    valid = _row_all(valid.T)
    if enc.e is None:
        return valid, num, None
    den = w @ enc.e
    np.subtract(1.0, den, out=den)
    den = np.abs(den)
    den -= rho @ enc.abs_eb
    drift = err @ enc.abs_e
    drift += 1.0
    drift *= enc.gamma
    den -= drift
    return valid, num, den


# the constants of `_disc_product_inside` for one witness image (`_enclosure`)
_Enclosure = namedtuple("_Enclosure", "g gamma p q r s pr mod_p mod_q mod_r mod_s det mat_t "
                        "abs_mat_t gauges abs_affine_t abs_n_inv_t n_inv_z0 abs_z0 h kappa "
                        "e abs_e abs_eb")


def _enclosure(d, mobius, affine_inv):
    """The constants that `_disc_product_inside` reads for the witness image
    with Mobius rows `mobius` and affine part `affine_inv`, computed once per
    witness: d's body gauge exponent g and the rounding unit gamma; the rows
    p, q, r, s as (n, 1) columns, p conj(r), their moduli and |p s - q r|;
    B^T and |B|^T for B = N^-1 affine_inv, and B's column gauges;
    |affine_inv|^T, |N^-1|^T, N^-1 z0 and |z0|; the Gram term (H, kappa);
    and, over a projective chain, the denominator's e = q / q0 with |e| and
    |e^T B| (all three None over an affine chain, whose divisor 1 - e.u is
    1).  Every chain over a catalog body, affine or projective, has one;
    None over defining functions.

    Gram term: for |zeta_j| <= 1, g(B (rho zeta)) <= kappa |B (rho zeta)|_2
    <= kappa sqrt(rho^T H rho), with kappa = n^(1/p - 1/2) for p < 2, 1 for
    p >= 2, and H >= |B^H B| entrywise, B the exact product of the two float
    matrices.  The gauges, H and kappa are None over a polydisc body, whose
    test is exact.

    Rounding, in gamma (8 (3n + 8) ulps over an affine chain, 8 (4n + 10)
    over a projective one, `_disc_product_bounds`): H = |fl(M^H M)| + gamma
    E^T E, M = fl(N^-1 affine_inv), E = |N^-1| |affine_inv|.  M lies within
    n steps of at most 8 ulps of E of B, and fl(M^H M) within n steps of
    |M|^T |M| of M^H M, so B^H B - fl(M^H M) takes 3n steps of E^T E; the 8
    steps left cover its second-order terms and the rounding of E^T E and
    of the sum.  kappa is widened by 1 + gamma, which covers pow and the
    n + 3 rounded steps of kappa sqrt(rho^T H rho).
    """
    if d._body.kind not in CATALOG_KINDS:
        return None
    g, n = d._body._p, d.n
    gamma = 8 * (4 * n + 10 if d._projective else 3 * n + 8) * math.ulp(1.0)
    if d.kind in IMAGE_KINDS:
        n_inv, z0 = d._n_inv, d._z0
    else:
        n_inv, z0 = np.eye(n), np.zeros(n)
    mat = n_inv @ affine_inv
    gauges = h = kappa = e = abs_e = abs_eb = None
    if g != math.inf:
        size = np.abs(n_inv) @ np.abs(affine_inv)
        gauges = np.linalg.norm(mat, ord=g, axis=0)
        h = np.abs(mat.conj().T @ mat) + gamma * (size.T @ size)
        kappa = n ** max(1.0 / g - 0.5, 0.0) * (1.0 + gamma)
    if d._projective:
        e = d._e
        abs_e, abs_eb = np.abs(e), np.abs(e @ mat)
    p, q, r, s = mobius[:, :, None]
    return _Enclosure(g, gamma, p, q, r, s, p * r.conj(), np.abs(p), np.abs(q), np.abs(r),
                      np.abs(s), np.abs(p * s - q * r), mat.T, np.abs(mat).T, gauges,
                      np.abs(affine_inv).T, np.abs(n_inv).T, n_inv @ z0, np.abs(z0), h, kappa,
                      e, abs_e, abs_eb)


def _inner_radius(enclosure):
    """The inner radius T of the witness image of `_mobius_path_exits` on
    the marks of the march, which are all the grid scan resolves: the last
    mark below 1 up to which every mark's closed polydisc passes
    `_disc_product_inside` under `enclosure`, the witness's `_enclosure`; 0
    if none does, or with no enclosure (defining functions).  Projective
    chains have one as affine chains do: projective_image(ball(2), I, 0,
    (2, 0.5, 0)) gets T = 0.471 against a measured s_hat of 0.554.  Over l1
    and ball bodies under a near-unitary affine part the Gram term puts T
    near the image's inscribed polydisc radius."""
    if enclosure is None:
        return 0.0
    marks = _marks(1.0)[:-1]
    n = enclosure.p.shape[0]
    ok = _disc_product_inside(enclosure, np.zeros((n, marks.size)), np.tile(marks, (n, 1)))
    k = np.logical_and.accumulate(ok).sum()
    return marks[k - 1] if k else 0.0


def _path_exits(d, u, alpha, cap, bound=np.inf, start=0.0):
    """Exit brackets (lower, upper) of the rational paths U(t) / alpha(t) of
    degree k >= 2 in the domain's coordinates, each taken to leave at its
    `cap` at the latest; None for a kind with none.

    u (k+1, m, n) and alpha (k+1, m) hold the coefficients of t^0..t^k on a
    leading degree axis; `_pull_back` takes the paths to the innermost body.
    Each path is bracketed by `_grid_brackets` between two marks of the
    march: ball and polydisc bases on |U(t)|^2 - |alpha(t)|^2, summed over
    coordinates or per coordinate (real polynomials of degree 2k, negative at
    an interior start and >= 0 on a projective horizon), l1 and lp bases by
    `_gauge_brackets`.  Over ball and polydisc bases `_refine_least_roots`
    then refines only the rows that can hold the least exit of the batch and
    lie below `bound` (the least upper end of earlier batches); the others
    keep valid brackets, which `_first_exits` gives up in its least mode and
    bisects for any other caller.  The grid scan begins at the mark `start`
    (`_grid_brackets`).  Rays, the degree-1 paths, take `_exact_exits`.
    """
    terms, m, n = u.shape
    d, u, alpha = _pull_back(d, u.reshape(-1, n), alpha.reshape(-1))
    u, alpha = u.reshape(terms, m, n), alpha.reshape(terms, m)
    if d.kind in ("ball", "polydisc"):
        # for real t, |x(t)|^2 has the coefficients of conj(x) * x
        coords = np.moveaxis(_polymul(u.conj(), u).real, -1, 0)
        c = np.stack([sum(coords)] if d.kind == "ball" else coords, axis=1)
        c = c - _polymul(alpha.conj(), alpha).real[:, None]
        bracket = _grid_brackets(c, cap, lambda vals: (vals > 0.0).any(axis=1), start)
        return _refine_least_roots(c, *bracket, cap, bound)
    if d.kind in ("l1ball", "lp_ball"):
        return _gauge_brackets(u, alpha, cap, d._p, start)
    return None


def _grid_brackets(c, cap, outside, start=0.0):
    """Brackets (lower, upper) of the first exits of paths between two
    consecutive marks of the march of `_first_exits`: the last mark inside
    and the first outside, 0 before the first mark.  The scan begins at the
    last mark at or below `start`, which the caller knows to be inside on
    every path together with each mark before it, so the brackets are the
    ones a scan from the first mark finds.

    c (k+1, channels, m) holds real polynomial channels of the paths, with
    the coefficients of t^0..t^k on its leading axis; `outside` maps their
    values at marks, (marks, channels, m), to the marks outside, (marks, m).
    A mark is also outside once t >= cap.  The values come from real
    Vandermonde products, in blocks of _SCAN_MARKS marks and of rows that
    keep a block within _SCAN_FLOATS values (it stays in cache); each row is
    scanned until its first outside mark.
    """
    terms, k, m = c.shape
    grid = _marks(cap.max())
    # every mark before the last one at or below `start` is inside
    j0 = max(0, int(np.searchsorted(grid, start, side="right")) - 1)
    powers = grid[:, None] ** np.arange(terms)
    first = np.empty(m, dtype=int)
    step = max(1, _SCAN_FLOATS // (k * _SCAN_MARKS))
    for r0 in range(0, m, step):
        rows = np.arange(r0, min(m, r0 + step))
        coef = np.ascontiguousarray(c[..., r0:r0 + step])
        for j in range(j0, grid.size, _SCAN_MARKS):
            t = grid[j:j + _SCAN_MARKS]
            vals = (powers[j:j + _SCAN_MARKS] @ coef.reshape(terms, -1)).reshape(
                t.size, k, rows.size)
            out = outside(vals) | (t[:, None] >= cap[rows])
            hit = out.any(axis=0)
            if hit.any():
                first[rows[hit]] = j + out[:, hit].argmax(axis=0)
                rows, coef = rows[~hit], coef[..., ~hit]
                if not rows.size:
                    break
    return np.where(first > 0, grid[first - 1], 0.0), grid[first]


def _marks(top):
    """The marks of the march, accumulated as it does, up to the first at or
    past `top`."""
    grid = [_MARCH_START]
    while grid[-1] < top:
        grid.append(grid[-1] * _MARCH_GROWTH)
    return np.array(grid)


def _gauge_brackets(u, alpha, cap, p, start=0.0):
    """`_grid_brackets` of the paths U(t)/alpha(t) from an lp base (p = 1 for
    l1), on channels holding the real and imaginary parts of U_1..U_n and
    alpha.  A mark is outside where sum_j |U_j(t)|^p >= |alpha(t)|^p, the
    homogeneous gauge residual, which is >= 0 on a projective horizon, so
    nothing divides by alpha."""
    terms, m, n = u.shape
    c = np.empty((terms, 2, n + 1, m))
    c[:, 0, :n], c[:, 1, :n] = u.real.transpose(0, 2, 1), u.imag.transpose(0, 2, 1)
    c[:, 0, n], c[:, 1, n] = alpha.real, alpha.imag

    def outside(vals):
        parts = vals.reshape(vals.shape[0], 2, n + 1, vals.shape[-1])
        sq = parts[:, 0] * parts[:, 0] + parts[:, 1] * parts[:, 1]
        mod = sq ** (0.5 * p)
        return mod[:, :n].sum(axis=1) >= mod[:, n]

    return _grid_brackets(c.reshape(terms, 2 * (n + 1), m), cap, outside, start)


def _first_root(a, b, c):
    """First positive root of a t^2 + 2 b t + c with c < 0, cancellation-free;
    +inf where the quadratic stays negative for t > 0."""
    disc = np.sqrt(np.maximum(b * b - a * c, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(b > 0.0, -c / (b + disc), np.where(a > 0.0, (disc - b) / a, np.inf))


def _polymul(a, b):
    """Product of polynomials with coefficients on the leading axis.  The loop
    runs over the shorter factor: against a 2-term factor each coefficient is
    a sum of two products either way, so the order keeps every bit."""
    if a.shape[0] > b.shape[0]:
        a, b = b, a
    out = np.zeros((a.shape[0] + b.shape[0] - 1,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]),
                   dtype=complex)
    for i, ai in enumerate(a):
        out[i:i + b.shape[0]] += ai * b
    return out


def _horner(c, t):
    """Values and t-derivatives of the polynomials sum_s c[s] t^s, with
    coefficients c (deg+1, ..., m), at t (m,)."""
    p = c[-1]
    dp = np.zeros(t.shape)
    for cs in c[-2::-1]:
        dp = dp * t + p
        p = p * t + cs
    return p, dp


def _refine_least_roots(c, lower, upper, cap, bound=np.inf):
    """The scan brackets (lower, upper) of polynomial channels c (k+1,
    channels, m), set in place to exits t -+ 0.4*_EXIT_TOL on the rows that
    can hold the least exit: those whose lower end lies below the least
    upper end and below `bound`, a least upper end known from other rows.

    A row's exit is the least root, by `_bracketed_root` in [lower, x], of
    its channels positive at x = min(upper, cap), or x where none is.  A
    channel still negative at cap - 0.4*_EXIT_TOL crosses inside the exit
    bracket of cap, where it is rounding noise and Newton would stall, so it
    takes cap.
    """
    rows = np.flatnonzero(lower < min(bound, upper.min()))
    x = np.minimum(upper[rows], cap[rows])
    ch, at = np.nonzero(_horner(c[..., rows], x)[0] > 0.0)
    coef, hi = c[:, ch, rows[at]], x[at]
    stall = (hi == cap[rows[at]]) & (_horner(coef, hi - 0.4 * _EXIT_TOL)[0] < 0.0)
    roots = np.full((c.shape[1], rows.size), np.inf)
    roots[ch[stall], at[stall]] = hi[stall]
    newton = ~stall
    roots[ch[newton], at[newton]] = _bracketed_root(coef[:, newton], lower[rows[at[newton]]],
                                                    hi[newton])
    t = roots.min(axis=0)
    t = np.minimum(np.where(t < np.inf, t, x), cap[rows])
    lower[rows], upper[rows] = t - 0.4 * _EXIT_TOL, t + 0.4 * _EXIT_TOL
    return lower, upper


def _bracketed_root(c, lo, hi):
    """A root of each polynomial column of c in [lo, hi], where it is
    negative at lo and positive at hi: safeguarded Newton from the midpoint.
    A row stops once its step or its bracket falls under 1e-2 _EXIT_TOL
    (relative past 1); rounding noise in the polynomial can keep steps from
    shrinking further."""
    x = 0.5 * (lo + hi)
    rows = np.arange(x.size)
    for _ in range(_NEWTON_ROUNDS):
        if not rows.size:
            break
        xr = x[rows]
        p, dp = _horner(c[:, rows], xr)
        neg = p < 0.0
        lo[rows[neg]] = xr[neg]
        hi[rows[~neg]] = xr[~neg]
        with np.errstate(divide="ignore", invalid="ignore"):
            new = xr - p / dp
        tol = 1e-2 * _EXIT_TOL * np.maximum(1.0, xr)
        settled = np.abs(new - xr) <= tol
        inner = (new > lo[rows]) & (new < hi[rows])
        x[rows] = np.where(settled | inner, new, 0.5 * (lo[rows] + hi[rows]))
        rows = rows[~(settled | (hi[rows] - lo[rows] <= tol))]
    return x


def _norm_exits(w0, w1, p):
    """First t > 0 with g(w0 + t w1) = 1, g the lp norm (p >= 1), g(w0) < 1.

    g is convex along the line and crosses 1 once.  Newton from the upper
    bracket (1 + g(w0)) / g(w1) descends monotonically onto the root with any
    subgradient; each row stops when its own iterate stops decreasing.
    """
    def gauge(mod):
        return mod.sum(axis=-1) if p == 1.0 else (mod ** p).sum(axis=-1) ** (1.0 / p)

    t = (1.0 + gauge(np.abs(w0))) / gauge(np.abs(w1))
    rows = np.arange(t.size)
    for _ in range(_NEWTON_ROUNDS):
        if not rows.size:
            break
        w = w0[rows] + t[rows, None] * w1[rows]
        mod = np.abs(w)
        g = gauge(mod)
        # d|w_j|/dt = Re(conj(w_j) w1_j) / |w_j|; 0 is a subgradient where w_j = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = np.where(mod > 0.0, (w.conj() * w1[rows]).real * mod ** (p - 2.0), 0.0)
            step = (g - 1.0) / (rate.sum(axis=-1) * g ** (1.0 - p))
        new = t[rows] - step
        moved = (new < t[rows]) & (new > 0.0)
        t[rows[moved]] = new[moved]
        rows = rows[moved]
    return t


# -- coordinate projections --------------------------------------------------

def _projection_disc(d, functional):
    """(centre, radius) of the projection of d under z -> functional . z when
    that set is a disc in closed form, else None.

    The functional and the chain's composite map `_hom` give one homogeneous
    map zeta = (p0 + p.w) / (q0 + q.w) over the innermost catalog body B, and
    zeta lies in the projection exactly when |p0 - zeta q0| < h_B(p - zeta q),
    h_B the support function of B, which is its dual norm (ball l2, polydisc
    l1, l1 ball l-inf, lp ball lq).  With q = 0 (affine chains) that is the
    disc about p0/q0 of radius h_B(p)/|q0|, for any base.  Over a ball base it
    reads A|zeta|^2 - 2 Re(zeta B) + C < 0, a disc when A > 0.  Other bases
    under projective maps, and defining functions, give None.
    """
    hom, d = d._hom, d._body
    if d.kind not in CATALOG_KINDS:
        return None
    q0, q = hom[0, 0], hom[0, 1:]
    num = functional @ hom[1:]
    p0, p = num[0], num[1:]
    if not q.any():
        return complex(p0 / q0), float(_dual_norm(d, p) / abs(q0))
    if d.kind != "ball":
        return None
    a = abs(q0) ** 2 - np.vdot(q, q).real
    if a <= 0.0:
        return None
    b = q0 * np.conj(p0) - np.vdot(p, q)
    c = abs(p0) ** 2 - np.vdot(p, p).real
    return complex(np.conj(b) / a), float(math.sqrt(abs(b) ** 2 - a * c) / a)


def _dual_norm(d, a):
    """sup |a . w| over the open unit body of the catalog kind d: the norm of
    a dual to the body's lp norm, taken of a / max|a_k| so that no power of
    a modulus overflows or vanishes."""
    p = d._p
    q = 1.0 if p == math.inf else math.inf if p == 1.0 else p / (p - 1.0)
    top = np.abs(a).max()
    return top * np.linalg.norm(a / top, ord=q)


# -- boundary sampling -------------------------------------------------------

_PHASES = np.array([1.0, -1.0, 1j, -1j])


def boundary_samples(d: DomainSpec, count, rng) -> np.ndarray:
    """Boundary points of a ball, polydisc or l1 ball (an lp ball at p = 1),
    or of an image of one.

    The axis points and the corner n^(-1/p) (1, ..., 1) under the four
    quarter phases lead the block, followed by `count` random boundary points
    (a positive integer); image kinds map their base's samples forward.
    """
    _check_counts(count=count)
    if d.kind in IMAGE_KINDS:
        return forward_map(d, boundary_samples(d.base, count, rng))
    n = d.n
    if d.kind == "ball":
        rand = _sphere_draw(rng, count, n)
    elif d.kind == "polydisc":
        rand = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(count, n)))
    elif d._p == 1.0:
        mod = rng.dirichlet(np.ones(n), size=count)
        rand = mod * np.exp(1j * rng.uniform(-np.pi, np.pi, size=(count, n)))
    else:
        raise ArgumentError(f"no boundary sampler for {d.kind}")
    corner = np.ones(n, dtype=complex) / n ** (1.0 / d._p)
    return np.concatenate([_axis_points(n), np.outer(_PHASES, corner), rand])


def _sphere_draw(rng, m, n):
    """m uniform points of the unit sphere in C^n."""
    g = rng.normal(size=(m, 2 * n)).view(complex)
    return g / _row_norm(g, 2.0)[:, None]


def _axis_points(n):
    """The 4n points phase * e_k, phase-major over the four quarter phases."""
    eye = np.eye(n, dtype=complex)
    return np.concatenate([ph * eye for ph in _PHASES])


# -- interior sampling -------------------------------------------------------

def interior_samples(d: DomainSpec, count, rng) -> np.ndarray:
    """Draw `count` interior points: uniform for the catalog kinds, pushed
    forward from the base for image kinds, by rejection from a ball for
    defining functions."""
    _check_counts(count=count)
    kind = d.kind
    n = d.n
    if kind == "ball":
        g = _sphere_draw(rng, count, n)
        r = rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / (2 * n))
        return g * r
    if kind == "polydisc":
        mod = np.sqrt(rng.uniform(0.0, 1.0, size=(count, n)))
        arg = rng.uniform(-np.pi, np.pi, size=(count, n))
        return mod * np.exp(1j * arg)
    if kind in ("l1ball", "lp_ball"):
        # exact law: moduli**p ~ Dirichlet(2/p, .., 2/p) is the cone measure
        # of the unit sphere, scaled by the radial law u**(1/2n)
        p = d._p
        g = rng.gamma(2.0 / p, size=(count, n))
        mod = (g / g.sum(axis=1, keepdims=True)) ** (1.0 / p)
        mod *= rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / (2 * n))
        arg = rng.uniform(-np.pi, np.pi, size=(count, n))
        return mod * np.exp(1j * arg)
    if kind in IMAGE_KINDS:
        return forward_map(d, interior_samples(d.base, count, rng))
    return _rejection_samples(d, count, rng)


def _rejection_samples(d, count, rng):
    # probe a sampling radius along the coordinate axes from the origin
    radius = 2.0 * ray_exit_batch(d, np.zeros(d.n, dtype=complex), _axis_points(d.n)).max()
    radius = min(radius, d.bounding_radius)
    out = []
    have = 0
    for _ in range(_REJECTION_ROUNDS):
        cand = radius * interior_samples(ball(d.n), max(count, 4 * (count - have)), rng)
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
    complex_avoiding it satisfies <z, c> != <a, c>.  The functional itself is
    not validated: `frame.build_normalizer` samples every contact's invariant
    on one interior draw.
    """

    point: np.ndarray
    coefficients: np.ndarray
    flavor: str
    value: complex

    def __post_init__(self):
        _freeze(self, "point", "coefficients")


def tangent_functional(d: DomainSpec, a, flavor) -> TangentFunctional:
    """Supporting (real flavor) or avoiding (complex flavor) functional at a.

    Raises NonsmoothBoundaryError at corner points of the catalog bodies and
    where a defining gradient degenerates.
    """
    if flavor not in ("real_supporting", "complex_avoiding"):
        raise ArgumentError(f"unknown flavor {flavor!r}")
    a = np.asarray(a, dtype=complex)
    if a.shape != (d.n,):
        raise ArgumentError(f"boundary point must have shape ({d.n},)")
    if abs(boundary_residual(d, a)) > 1e-6:
        raise ArgumentError("point is not on the boundary within tolerance")
    lam = _functional_coefficients(d, a)
    return TangentFunctional(point=a, coefficients=lam, flavor=flavor,
                             value=complex(np.vdot(lam, a)))


def _functional_coefficients(d, a):
    kind = d.kind
    if kind == "ball":
        return a.copy()
    if kind == "polydisc":
        mods = np.abs(a)
        # against the largest modulus, not 1: a contact is an exit's lower
        # end, whose modulus falls short of 1 by 0.4*_EXIT_TOL over its radius
        on_face = mods >= (1.0 - _SMOOTH_TOL) * mods.max()
        if on_face.sum() != 1:
            raise NonsmoothBoundaryError(
                f"polydisc point touches {int(on_face.sum())} faces; tangent undefined")
        lam = np.zeros(d.n, dtype=complex)
        k = int(np.flatnonzero(on_face)[0])
        lam[k] = a[k]
        return lam
    if kind in ("l1ball", "lp_ball"):
        p, mods = d._p, np.abs(a)
        if p == 1.0:
            if np.any(mods < _SMOOTH_TOL):
                raise NonsmoothBoundaryError("l1 boundary point has a vanishing coordinate")
            return a / mods
        lam = np.zeros(d.n, dtype=complex)
        nz = mods > 0
        lam[nz] = p * mods[nz] ** (p - 2.0) * a[nz]
        return lam
    if kind in IMAGE_KINDS:
        w, ok = _preimage(d, a)
        if ok is not None and not ok:
            raise ArgumentError("no preimage at the requested point")
        lam_base = _functional_coefficients(d._body, w)
        # hyperplane coefficients transform by the conjugate transpose of the
        # inverse derivative (C - a q^T) / (q0 + q.w) of the composite map
        jac = (d._hom[1:, 1:] - a[:, None] * d._hom[0, 1:]) / (d._hom[0, 0] + w @ d._hom[0, 1:])
        return np.conj(np.linalg.inv(jac)).T @ lam_base
    lam = np.array([fn(*list(a) + list(np.conj(a))) for fn in d._grad_fns], dtype=complex)
    if np.linalg.norm(lam) < _SMOOTH_TOL:
        raise NonsmoothBoundaryError("defining gradient degenerates at the point")
    return lam


# -- declared class spot checks ---------------------------------------------

def convexity_spot_check(d: DomainSpec, trials=200, seed=0) -> int:
    """Sampled necessary-condition check of the declared convexity class.

    convex: midpoints of interior pairs stay interior.  cconvex: the real
    segment between the two first exits of a random real line through an
    interior point is gridded at 101 parameters and must stay one run of
    inside points.  Its endpoints are inside by construction, so a trial is
    flagged only when the exit march stepped over two slivers; kinds with a
    closed-form exit take exact first crossings, so for them this branch
    cannot flag anything (ROADMAP item 9).  Complex-line slices are not
    tested.  Returns the violation count (0 is consistent).
    """
    _check_counts(trials=trials, seed=seed)
    rng = np.random.default_rng(seed)
    if d.convexity_class == "convex":
        z = interior_samples(d, 2 * trials, rng)
        mid = 0.5 * (z[:trials] + z[trials:])
        return int(np.count_nonzero(~contains(d, mid)))
    pts = interior_samples(d, trials, rng)
    dirs = _sphere_draw(rng, trials, d.n)
    span = ray_exit_batch(d, np.concatenate([pts, pts]), np.concatenate([dirs, -dirs]))
    ts = np.linspace(-span[trials:], span[:trials], 101, axis=-1)
    mask = contains(d, pts[:, None, :] + ts[:, :, None] * dirs[:, None, :])
    runs = np.count_nonzero(np.diff(mask.astype(int), axis=1) == 1, axis=1)
    return int(np.count_nonzero(runs > 1))


# -- JSON schema -------------------------------------------------------------

def _pair2c(pair) -> complex:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise DomainFormatError(f"complex values are [re, im] pairs, got {pair!r}")
    try:
        return complex(float(pair[0]), float(pair[1]))
    except (TypeError, ValueError) as exc:
        raise DomainFormatError(f"complex values are pairs of reals, got {pair!r}") from exc


def domain_to_json(d: DomainSpec) -> dict:
    out = {"n": d.n, "kind": d.kind, "class": d.convexity_class,
           "bounding_radius": d.bounding_radius}
    if d.p is not None:
        out["p"] = d.p
    if d.base is not None:
        out["base"] = domain_to_json(d.base)
    if d.matrix is not None:
        m = {"matrix": _pairs(d.matrix), "offset": _pairs(d.offset)}
        if d.denominator is not None:
            m["denominator"] = _pairs(d.denominator)
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
        try:
            matrix = [[_pair2c(v) for v in row] for row in m["matrix"]]
            offset = [_pair2c(v) for v in m["offset"]]
            if "denominator" in m:
                denominator = [_pair2c(v) for v in m["denominator"]]
        except (KeyError, TypeError) as exc:
            raise DomainFormatError(f"malformed map: {exc!r}") from exc
    return DomainSpec(
        n=n, kind=kind, convexity_class=data.get("class"),
        bounding_radius=data.get("bounding_radius", DEFAULT_BOUNDING_RADIUS),
        p=data.get("p"), base=base, matrix=matrix, offset=offset,
        denominator=denominator, rho=data.get("rho"))
