"""Bounded domain descriptions: membership, ray exits, tangent functionals.

A DomainSpec is a closed description of a bounded domain in C^n containing the
origin-to-be-certified, either as a catalog body (ball, polydisc, l1 ball,
lp ball), as an affine or projective image of another spec, or as a sublevel
set of a user-supplied real-analytic defining expression.  It is the only
body type: the sampled containment checks take catalog specs and their
affine images.

One batched residual kernel per kind carries membership and the boundary
equation: gauge - 1 for the ball, polydisc and l1 ball, sum |z_k|^p - 1 for
lp balls (the gauge's p-th power, not the gauge), the body residual at the
preimage for image kinds (one closed-form preimage of the composite map its
chain builds at construction, +inf on its horizon), the defining values
otherwise; `contains` is residual < 0.  Every first exit along rays comes
from one engine, `_first_exits`: ray_exit_batch (and through it the frame
search, the C-convex spot check and the sampling radius of rejection
sampling) and the inscribed radius of `bounds`.  Both seed it with the exit
brackets of `_path_exits`, which pulls a rational path back through that map:
ray_exit_batch a ray, `bounds` a witness-image ray pulled back through Mobius
coordinate maps by `_mobius_path_exits`.  Ball and polydisc bases, and l1 and
lp bases under affine maps, give closed-form exits, bracketed within
_EXIT_TOL; every other path over an l1 or lp base gives two consecutive marks
of the march from one grid scan.  A bracket is kept once the membership
oracle holds at its lower end and fails at its upper end, then bisected; rays
over defining functions, and rays whose bracket fails, take a geometric march
and bisection.  `bounds` asks for the least exit alone, so the engine gives
up each ray whose bracket lies above another ray's.
`boundary_samples` draws boundary points of the ball, polydisc and l1 ball and
their images.  `_projection_disc` gives the projection of a domain under a
linear functional in closed form, through the support function of its
innermost catalog body: a disc over ball bodies and affine chains.

Membership, residuals, ray exits, and sampling all accept batched inputs with
shape (..., n); everything downstream leans on that.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    DomainFormatError,
    NonsmoothBoundaryError,
    RayCapError,
    ValidationFailureError,
)
from .numerics import _check_counts, _freeze, _pairs

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
# the lp exponent of each catalog body's gauge; an lp ball reads its own p
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
# the grid scan of `_grid_brackets` evaluates blocks of this many marks, over
# as many rows as keep a block within this many values
_SCAN_MARKS = 8
_SCAN_FLOATS = 1 << 16
# rounds of rejection proposals before interior sampling gives up
_REJECTION_ROUNDS = 400
# moduli below this vanish; a polydisc coordinate this close to 1 touches its face
_SMOOTH_TOL = 1e-9


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
                isinstance(self.bounding_radius, (int, float))
                and 0 < self.bounding_radius < math.inf):
            raise DomainFormatError("bounding_radius must be a positive finite real")
        self._store(bounding_radius=float(self.bounding_radius))
        if self.p is not None:
            if isinstance(self.p, bool) or not (
                    isinstance(self.p, (int, float)) and 1.0 <= self.p < math.inf):
                raise DomainFormatError(f"lp_ball requires finite real p >= 1, got {self.p!r}")
            self._store(p=float(self.p))
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
        and e = q/q0.  `_projective`: some layer is projective.

        Affine maps keep `denominator` None and map with den = (1, 0, ..., 0).
        det of the composite is q0 det N, so a singular N is a degenerate map.
        Over a catalog body the composite denominator must stay off the closed
        body, |q0| > h_B(q), or the image is unbounded.
        """
        n = self.n
        try:
            mat = np.asarray(self.matrix, dtype=complex)
            off = np.asarray(self.offset, dtype=complex)
            den = (np.eye(1, n + 1, dtype=complex)[0] if self.denominator is None
                   else np.asarray(self.denominator, dtype=complex))
        except (TypeError, ValueError) as exc:
            raise DomainFormatError(f"map data must be numeric arrays: {exc}") from exc
        for name, arr, shape in (("matrix", mat, (n, n)), ("offset", off, (n,)),
                                 ("denominator", den, (n + 1,))):
            if arr.shape != shape:
                raise DomainFormatError(f"map {name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise DomainFormatError("map data must be finite")
            arr.setflags(write=False)
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
    """Residuals at points z of shape (m, n): gauge - 1 for the ball,
    polydisc and l1 ball, sum |z_k|^p - 1 for lp balls, the innermost body's
    residual at the preimage for image kinds, the defining values."""
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
    den = d.denominator[0] + w @ d.denominator[1:]
    if np.any(np.abs(den) < 1e-13):
        raise DomainFormatError("projective denominator vanishes on the base set")
    return z / den[..., None]


# -- ray exits ---------------------------------------------------------------

def ray_exit(d: DomainSpec, base, direction) -> float:
    """First t > 0 with base + t*direction outside the open domain.

    Kinds whose innermost base is a ball or polydisc, and l1 and lp balls
    under affine maps, take the closed-form exit of `_exact_exits`, verified
    by one membership test at each end of a bracket of width under _EXIT_TOL
    around it; these exits are exact first crossings.  Rays through
    projective images of l1 and lp balls take the bracket of one grid scan
    of their gauge residual on the marks of the march below, verified the
    same way.  Rays over defining functions, and rays whose bracket fails,
    are bracketed by a geometric march (resolution factor ~1.12, so a sliver
    the ray leaves and re-enters between consecutive marks can be skipped).
    Brackets are bisected to tolerance _EXIT_TOL in t, taken for a direction
    whose largest modulus lies in [2^-5, 2) (others are scaled into it by a
    power of two, so the tolerance scales with them); a grid bracket is
    bisected exactly as the march's, so those exits are the marched ones.
    `ray_exit_batch` and the inscribed radius of `bounds`, whose
    witness-image rays have brackets of their own over every catalog base,
    share the loop; the inscribed radius runs a ray only while it can still
    hold the least exit.  Raises RayCapError if the ray never leaves below
    the bounding radius.
    """
    t = ray_exit_batch(d, base, np.asarray(direction, dtype=complex)[None, :])
    return float(t[0])


def ray_exit_batch(d: DomainSpec, base, directions) -> np.ndarray:
    """First exits of rays base + t*directions[i]; `base` is one point (n,)
    shared by every ray or one point per ray (m, n), all inside the domain."""
    base = np.asarray(base, dtype=complex)
    directions = np.asarray(directions, dtype=complex)
    if directions.ndim != 2 or directions.shape[1] != d.n:
        raise ArgumentError(f"directions must have shape (m, {d.n})")
    if base.shape not in ((d.n,), directions.shape):
        raise ArgumentError(f"base must have shape ({d.n},) or {directions.shape}")
    # moduli first: the complex norm would take inf * 0 on an infinite entry
    mod = np.abs(directions)
    top = mod.max(axis=1)
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
    cap = d.bounding_radius / np.linalg.norm(mod, axis=1).min() * 2.0
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
    consecutive marks of the march below.  The other rays march: a geometric
    march brackets each crossing.  Bisection then narrows every bracket to
    _EXIT_TOL, or to one ulp where that is wider; RayCapError when a ray is
    still inside past `cap`.  Each returned t is the lower end of its
    bracket, a point tested inside.  The bases ride on the first membership
    call (the lower bracket ends, or the first march step); ArgumentError
    when one is outside.

    With `least`, only the least of those exits is returned, bit for bit.  A
    ray whose lower end reaches the least upper end over all rays exits
    strictly above the least exit, so it is given up: the march stops at the
    first mark that reaches that bound, and bisection splits only brackets
    below it.  RayCapError then means that no ray leaves below `cap`.
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
    active = np.arange(m)
    if bracket is not None:
        lower, upper = bracket
        # nan and +inf ends fail these comparisons
        idx = np.flatnonzero((lower >= 0.0) & (upper <= cap))
        if idx.size:
            held = first_inside(points(idx, lower[idx, None])) & ~inside(points(idx, upper[idx, None]))
            lo[idx[held]] = lower[idx[held]]
            hi[idx[held]] = upper[idx[held]]
            active = np.flatnonzero(np.isnan(hi))

    def open_rays(idx):
        # a lower end at the least upper end cannot hold the least exit; an
        # unbracketed ray's upper end is nan, which the bound skips
        return idx[lo[idx] < np.fmin.reduce(hi, initial=np.inf)] if least else idx

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
    """Exit brackets of the rays bases + t*directions: `_path_exits` of the
    degree-1 path (bases + t directions) / 1."""
    u = np.stack([np.broadcast_to(bases, directions.shape), directions])
    alpha = np.zeros(u.shape[:2], dtype=complex)
    alpha[0] = 1.0
    return _path_exits(d, u, alpha, cap)


def _mobius_path_exits(d, mobius, affine_inv, directions):
    """Exit brackets (lower, upper) of the rays t*v from 0 whose preimages
    affine_inv psi(t v) reach d, psi_j(y) = (p_j y + q_j) / (r_j y + s_j) for
    mobius = (p, q, r, s) (arrays over coordinates); each ray leaves the unit
    polydisc at its clip 1/max|v_j|, the cap of its path.  None unless d's
    innermost base is a catalog body, before any path is built.

    Coordinate j of a ray pulls back to (q_j + p_j v_j t) / (s_j + r_j v_j t);
    over the common denominator alpha(t) = prod_j (s_j + r_j v_j t) the
    preimage is a rational path of degree n.
    """
    if d._body.kind not in CATALOG_KINDS:
        return None
    p, q, r, s = mobius
    out = np.empty((2, directions.shape[0]))
    n = directions.shape[1]
    chunk = max(1, _PATH_COEFFS // (n * (n + 1)))
    for start in range(0, directions.shape[0], chunk):
        v = directions[start:start + chunk]
        num = np.stack([np.broadcast_to(q, v.shape), p * v])
        den = np.stack([np.broadcast_to(s, v.shape), r * v])
        alpha = den[:, :, 0]
        x = num[:, :, :1]
        for j in range(1, n):
            x = np.concatenate([_polymul(x, den[:, :, j:j + 1]),
                                _polymul(alpha, num[:, :, j])[..., None]], axis=-1)
            alpha = _polymul(alpha, den[:, :, j])
        clip = 1.0 / np.abs(v).max(axis=1)
        out[:, start:start + chunk] = _path_exits(d, x @ affine_inv.T, alpha, clip)
    return out[0], out[1]


def _path_exits(d, u, alpha, cap):
    """Exit brackets (lower, upper) of the rational paths U(t) / alpha(t) in
    the domain's coordinates, each taken to leave at its `cap` at the latest;
    nan where no bracket applies, None for a kind with none at all.

    u (k+1, m, n) and alpha (k+1, m) hold the coefficients of t^0..t^k on a
    leading degree axis.  The path is pulled back to the innermost body in one
    step: the composite map's preimage w = u / (1 - e.u), u = q0 N^-1 (z - z0),
    maps a rational path of degree k to another.  Ball and polydisc bases are
    left where |U(t)|^2 = |alpha(t)|^2, summed over coordinates or per
    coordinate: a real polynomial of degree 2k whose constant term is negative
    at an interior start, and which is >= 0 on a projective horizon.  Degree 1
    solves the quadratic in closed form; higher degrees take the first root
    below the `cap` that `_polynomial_exits` finds on the march grid.  l1 and
    lp bases are solved along degree-1 paths with constant alpha (every ray of
    an affine chain), where the gauge is a norm.  These closed-form exits t
    come as t -+ 0.4*_EXIT_TOL.  Every other l1 or lp path (projective chains,
    the witness's paths) is bracketed by `_grid_brackets` between two marks of
    the march.  Products are per-row einsums, so a batch rounds as its rows one
    at a time.
    """
    terms, m, n = u.shape
    if d.kind in IMAGE_KINDS:
        u = np.einsum("ij,kj->ik", (u - alpha[..., None] * d._z0).reshape(-1, n),
                      d._n_inv).reshape(terms, m, n)
        if d._projective:
            alpha = alpha - np.einsum("ij,j->i", u.reshape(-1, n), d._e).reshape(terms, m)
        d = d._body
    scan = None
    if d.kind in ("ball", "polydisc"):
        if terms > 2:
            t = _polynomial_exits(d.kind, u, alpha, cap)
        else:
            (u0, u1), (a0, a1) = u, alpha
            quad = [(u1.conj() * u1).real, (u0.conj() * u1).real, (u0.conj() * u0).real]
            if d.kind == "ball":
                quad = [c.sum(axis=-1) for c in quad]
            else:
                a0, a1 = a0[:, None], a1[:, None]
            t = _first_root(quad[0] - (a1.conj() * a1).real,
                            quad[1] - (a0.conj() * a1).real,
                            quad[2] - (a0.conj() * a0).real)
            if d.kind == "polydisc":
                t = t.min(axis=-1)
    elif d.kind in ("l1ball", "lp_ball"):
        p = _EXPONENTS.get(d.kind, d.p)
        if terms > 2:
            return _grid_brackets(u, alpha, cap, p)
        flat = np.flatnonzero(alpha[1] == 0.0)
        t = np.full(m, np.nan)
        scale = alpha[0, flat, None]
        # a start on a projective horizon has scale 0: its exit is nan and marches
        with np.errstate(divide="ignore", invalid="ignore"):
            t[flat] = _norm_exits(u[0, flat] / scale, u[1, flat] / scale, p)
        if flat.size < m:
            scan = np.flatnonzero(alpha[1] != 0.0)
    else:
        return None
    t = np.minimum(t, cap)
    lower, upper = t - 0.4 * _EXIT_TOL, t + 0.4 * _EXIT_TOL
    if scan is not None:
        cap = np.broadcast_to(cap, (m,))[scan]
        lower[scan], upper[scan] = _grid_brackets(u[:, scan], alpha[:, scan], cap, p)
    return lower, upper


def _march_grid(top):
    """The marks of the march of `_first_exits` below `top` (always the first
    one): _MARCH_START times _MARCH_GROWTH, accumulated as the march does."""
    grid = [_MARCH_START]
    while grid[-1] * _MARCH_GROWTH < top:
        grid.append(grid[-1] * _MARCH_GROWTH)
    return np.array(grid)


def _grid_brackets(u, alpha, cap, p):
    """Brackets (lower, upper) of the first exits of the paths U(t)/alpha(t)
    from an lp base (p = 1 for l1) between two consecutive marks of the march
    of `_first_exits`: the last mark inside and the first outside, 0 before
    the first mark.

    A mark t is outside when sum_j |U_j(t)|^p >= |alpha(t)|^p, the homogeneous
    gauge residual, which is >= 0 on a projective horizon, so nothing divides
    by alpha; and once t >= cap.  The values come from real Vandermonde
    products, in blocks of _SCAN_MARKS marks and of rows that keep a block
    within _SCAN_FLOATS values (it stays in cache); each row is scanned until
    its first outside mark.
    """
    terms, m, n = u.shape
    # the marks below the largest cap, and the next one, at or past every cap
    grid = _march_grid(cap.max())
    grid = np.append(grid, grid[-1] * _MARCH_GROWTH)
    powers = grid[:, None] ** np.arange(terms)
    first = np.empty(m, dtype=int)
    step = max(1, _SCAN_FLOATS // (2 * (n + 1) * _SCAN_MARKS))
    for r0 in range(0, m, step):
        rows = np.arange(r0, min(m, r0 + step))
        block = slice(r0, r0 + step)
        # real and imaginary parts of U_1..U_n and alpha, rows last
        coef = np.empty((terms, 2, n + 1, rows.size))
        coef[:, 0, :n] = u[:, block].real.transpose(0, 2, 1)
        coef[:, 1, :n] = u[:, block].imag.transpose(0, 2, 1)
        coef[:, 0, n] = alpha[:, block].real
        coef[:, 1, n] = alpha[:, block].imag
        for k in range(0, grid.size, _SCAN_MARKS):
            t = grid[k:k + _SCAN_MARKS]
            vals = (powers[k:k + _SCAN_MARKS] @ coef.reshape(terms, -1)).reshape(
                t.size, 2, n + 1, rows.size)
            sq = vals[:, 0] * vals[:, 0] + vals[:, 1] * vals[:, 1]
            mod = np.sqrt(sq) if p == 1.0 else sq ** (0.5 * p)
            out = (mod[:, :n].sum(axis=1) >= mod[:, n]) | (t[:, None] >= cap[rows])
            hit = out.any(axis=0)
            if hit.any():
                first[rows[hit]] = k + out[:, hit].argmax(axis=0)
                rows, coef = rows[~hit], coef[..., ~hit]
                if not rows.size:
                    break
    return np.where(first > 0, grid[first - 1], 0.0), grid[first]


def _first_root(a, b, c):
    """First positive root of a t^2 + 2 b t + c with c < 0, cancellation-free;
    +inf where the quadratic stays negative for t > 0."""
    disc = np.sqrt(np.maximum(b * b - a * c, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(b > 0.0, -c / (b + disc), np.where(a > 0.0, (disc - b) / a, np.inf))


def _polymul(a, b):
    """Product of polynomials with coefficients on the leading axis."""
    out = np.zeros((a.shape[0] + b.shape[0] - 1,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]),
                   dtype=complex)
    for i, ai in enumerate(a):
        out[i:i + b.shape[0]] += ai * b
    return out


def _polynomial_exits(kind, u, alpha, cap):
    """First exits below `cap` of degree-k paths from a ball or polydisc base,
    the least over coordinates for the polydisc; +inf where none.  For real t
    |x(t)|^2 has the coefficients of conj(x) * x."""
    den = _polymul(alpha.conj(), alpha).real
    coords = (_polymul(u[..., j].conj(), u[..., j]).real for j in range(u.shape[-1]))
    if kind == "ball":
        return _first_polynomial_root(sum(coords) - den, cap)
    return np.min([_first_polynomial_root(c - den, cap) for c in coords], axis=0)


def _horner(c, t):
    """Values and t-derivatives of the polynomials sum_s c[s] t^s, with
    coefficients c (deg+1, m), at t (m,)."""
    p = c[-1]
    dp = np.zeros(t.shape)
    for cs in c[-2::-1]:
        dp = dp * t + p
        p = p * t + cs
    return p, dp


def _first_polynomial_root(c, cap):
    """First root in (0, cap] of each real polynomial column of c (negative
    at 0), +inf where it stays <= 0 up to cap.

    The first sign change is found on the march grid of `_first_exits`
    (_MARCH_START, times _MARCH_GROWTH, below cap) with cap as its last mark,
    so no sliver is caught less finely than by the membership march; Newton
    steps then converge inside that bracket, bisecting whenever a step leaves
    it.  A row still negative at cap - 0.4*_EXIT_TOL crosses inside the exit
    bracket of cap itself, so it is given cap: there the polynomial is
    rounding noise, and Newton would stall on it.
    """
    grid = _march_grid(cap.max())
    below = grid < cap[:, None]
    outside = (c.T @ grid ** np.arange(c.shape[0])[:, None] > 0.0) & below
    # a row's first outside mark; its count of marks below cap stands for cap
    count = below.sum(axis=1)
    first = np.where(outside.any(axis=1), outside.argmax(axis=1), count)
    on_grid = first < count
    t = np.full(cap.shape, np.inf)
    near = ~on_grid & (_horner(c, cap)[0] > 0.0)
    idx = np.flatnonzero(near)
    at_cap = idx[_horner(c[:, idx], cap[idx] - 0.4 * _EXIT_TOL)[0] < 0.0]
    t[at_cap] = cap[at_cap]
    near[at_cap] = False
    rows = np.flatnonzero(on_grid | near)
    first = first[rows]
    hi = np.where(on_grid[rows], grid[np.minimum(first, grid.size - 1)], cap[rows])
    lo = np.where(first > 0, grid[first - 1], 0.0)
    t[rows] = _bracketed_root(c[:, rows], lo, hi)
    return t


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
    p = _EXPONENTS.get(d.kind, d.p)
    q = 1.0 if p == math.inf else math.inf if p == 1.0 else p / (p - 1.0)
    top = np.abs(a).max()
    return top * np.linalg.norm(a / top, ord=q)


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
        rand = _sphere_draw(rng, count, n)
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


def _sphere_draw(rng, m, n):
    """m uniform points of the unit sphere in C^n."""
    g = rng.normal(size=(m, 2 * n)).view(complex)
    return g / np.linalg.norm(g, axis=1, keepdims=True)


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
        g = _sphere_draw(rng, count, n)
        r = rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / (2 * n))
        return g * r
    if kind == "polydisc":
        mod = np.sqrt(rng.uniform(0.0, 1.0, size=(count, n)))
        arg = rng.uniform(-np.pi, np.pi, size=(count, n))
        return mod * np.exp(1j * arg)
    if kind in ("l1ball", "lp_ball"):
        # exact law, p = 1 for l1: moduli**p ~ Dirichlet(2/p, .., 2/p) is the
        # cone measure of the unit sphere, scaled by the radial law u**(1/2n)
        p = _EXPONENTS.get(kind, d.p)
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
        m = max(count, 4 * (count - have))
        g = _sphere_draw(rng, m, d.n)
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
        on_face = mods >= 1.0 - _SMOOTH_TOL
        if on_face.sum() != 1:
            raise NonsmoothBoundaryError(
                f"polydisc point touches {int(on_face.sum())} faces; tangent undefined")
        lam = np.zeros(d.n, dtype=complex)
        k = int(np.flatnonzero(on_face)[0])
        lam[k] = a[k]
        return lam
    if kind == "l1ball":
        mods = np.abs(a)
        if np.any(mods < _SMOOTH_TOL):
            raise NonsmoothBoundaryError("l1 boundary point has a vanishing coordinate")
        return a / mods
    if kind == "lp_ball":
        mods = np.abs(a)
        if d.p == 1.0 and np.any(mods < _SMOOTH_TOL):
            raise NonsmoothBoundaryError("l1 boundary point has a vanishing coordinate")
        lam = np.zeros(d.n, dtype=complex)
        nz = mods > 0
        lam[nz] = d.p * mods[nz] ** (d.p - 2.0) * a[nz]
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
    cannot flag anything (ROADMAP item 5).  Complex-line slices are not
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
