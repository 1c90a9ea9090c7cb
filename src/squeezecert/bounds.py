"""Certified universal bounds and the empirical witness embeddings.

certify() runs the whole pipeline for one domain: contact frame, normalizer,
universal constants for the declared convexity class, then sampled re-checks
of every containment the certificate rests on.  The model bodies of those
containments (the l1 simplex, the small polydisc and the small ball) are
catalog DomainSpecs, scaled through affine_image; their boundaries are drawn
by domains.boundary_samples and measured against the outer body's batched
boundary residual.  On top of the certificate it builds the witness embedding
into the unit polydisc (half-plane maps after the normalizer for convex
domains; catalog Riemann maps of the coordinate projections for C-convex
ones) and measures the inscribed radii of its image by batched ray exits; the
ball-target witness is the same map scaled by 1/sqrt(n).  The coordinate maps'
inverses are Mobius maps, so a witness-image ray pulls back to a rational path
whose first exit has a closed form over ball and polydisc bases; it is kept
once the image's membership oracle, which pulls back through the same Mobius
coefficients, brackets it, and every other ray marches.
The certified numbers come from the closed forms; each witness number is the
least exit its rays measured, so [certified, witness] brackets the inscribed
radius of the embedding's image, up to the exit tolerance.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, replace

import numpy as np

from .domains import (
    DomainSpec,
    _first_exits,
    _mobius_path_exits,
    affine_image,
    ball,
    boundary_residual,
    boundary_samples,
    contains,
    convexity_spot_check,
    interior_samples,
    l1ball,
    polydisc,
)
from .errors import (
    ArgumentError,
    ClassMismatchError,
    MapDomainError,
    PipelineInconsistencyError,
    ValidationFailureError,
)
from .frame import Normalizer, build_frame, build_normalizer, normalizer_to_json
from .numerics import _freeze, _pairs, c_const, inverse_coefficients, universal_bounds
from .planar import PlanarShape, disc_shape, half_plane, riemann_catalog

# inner boundaries are shrunk by this factor so closed-set tangencies sample clean
BOUNDARY_SHRINK = 1.0 - 1e-9

# projection clouds are decimated to this many points for serialization
CLOUD_JSON_CAP = 2000

# disc matching: angle bins, and the rms fit gate relative to the radius
FIT_BINS = 100
FIT_TOL = 1e-3

# least value of the integer run arguments that may be 0 (no spot check,
# canonical frame starts only); every other count must be positive
_LEAST = {"seed": 0, "spot_trials": 0, "n_starts": 0}


def _check_counts(**values):
    """Raise ArgumentError unless each named run argument is an integer at or
    above its least value; n_starts may also be None, the frame's default."""
    for name, value in values.items():
        if value is None and name == "n_starts":
            continue
        least = _LEAST.get(name, 1)
        if not isinstance(value, numbers.Integral) or value < least:
            kind = "non-negative" if least == 0 else "positive"
            raise ArgumentError(f"{name} must be a {kind} integer, got {value!r}")


# -- generic containment check ------------------------------------------------

@dataclass(frozen=True)
class MarginReport:
    """Sampled slack of one containment; violations are data, not errors."""

    check: str
    samples: int
    violations: int
    min_slack: float

    def as_dict(self) -> dict:
        return asdict(self)


def containment_check(inner: DomainSpec, mapping, outer: DomainSpec, samples=2000,
                      seed=0, shrink=BOUNDARY_SHRINK, name=None) -> MarginReport:
    """Sample the inner boundary, apply the map, measure the outer slack.

    `inner` is a body `boundary_samples` covers; `mapping` is None (identity)
    or a square matrix.  The slack is the negated boundary residual of
    `outer`: sign-faithful, but not a distance for image and defining-function
    kinds.
    """
    rng = np.random.default_rng(seed)
    pts = shrink * boundary_samples(inner, samples, rng)
    imgs = pts if mapping is None else pts @ np.asarray(mapping, dtype=complex).T
    slack = -boundary_residual(outer, imgs)
    return MarginReport(check=name or f"{inner.kind} in {outer.kind}",
                        samples=int(pts.shape[0]),
                        violations=int(np.count_nonzero(slack < 0)),
                        min_slack=float(slack.min()))


# -- witness maps -------------------------------------------------------------

@dataclass(frozen=True)
class WitnessMap:
    """Injective holomorphic embedding into the unit polydisc.

    Normalizing affine part first, then one catalog Riemann map per
    coordinate, each with a Mobius inverse.  The map fixes 0 and its image
    lies in the open polydisc whenever the pipeline invariants hold; scaled
    by 1/sqrt(n) it is the ball-target witness.
    """

    domain: DomainSpec
    affine: np.ndarray
    coordinate_maps: tuple

    def __post_init__(self):
        _freeze(self, "affine")
        if any(mp.inverse_mobius is None for mp in self.coordinate_maps):
            raise ArgumentError("witness coordinate maps need Mobius inverses")
        # rows p, q, r, s over coordinates: w_j -> (p_j w_j + q_j) / (r_j w_j + s_j)
        object.__setattr__(self, "_mobius",
                           np.array([mp.inverse_mobius for mp in self.coordinate_maps]).T)

    @property
    def n(self) -> int:
        return self.affine.shape[0]


def witness_eval(w: WitnessMap, z) -> np.ndarray:
    """Evaluate the witness at points of shape (..., n).

    A coordinate falling outside its planar map's domain means some upstream
    invariant was violated, so it surfaces as PipelineInconsistencyError.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 1
    pts = z.reshape(-1, w.n)
    y = pts @ w.affine.T
    out = np.empty_like(y)
    for j, mp in enumerate(w.coordinate_maps):
        try:
            out[:, j] = mp.forward(y[:, j])
        except MapDomainError as exc:
            raise PipelineInconsistencyError(
                f"coordinate {j} left its planar map's domain: {exc}") from exc
    return out[0] if scalar else out.reshape(z.shape)


def _witness_image_oracle(w: WitnessMap, affine_inv):
    """Membership oracle of the witness image, batched and exception-free:
    points of the unit polydisc pull back through the coordinate Mobius
    inverses and `affine_inv` into the domain."""
    p, q, r, s = w._mobius

    def oracle(y):
        y = np.asarray(y, dtype=complex)
        inside = np.all(np.abs(y) < 1.0, axis=-1)
        if not np.any(inside):
            return inside
        back = np.empty_like(y[inside])
        for j in range(w.n):
            yj = y[inside, j]
            back[:, j] = (p[j] * yj + q[j]) / (r[j] * yj + s[j])
        inside[inside.copy()] = contains(w.domain, back @ affine_inv.T)
        return inside

    return oracle


def _witness_exits(w: WitnessMap, affine_inv):
    """Closed-form first exits of witness-image rays t*v from 0, as a callable
    of the directions (`domains._mobius_path_exits`: None unless the
    domain's innermost base is a ball or polydisc)."""
    return lambda dirs: _mobius_path_exits(w.domain, w._mobius, affine_inv, dirs)


# -- inscribed radius by batched ray exits -----------------------------------

def inscribed_radius_estimate(oracle, n, shape="ball", rays=12000, seed=0, guess=None):
    """Empirical inscribed radius of an open image containing 0.

    Sends `rays` directions on the unit boundary of the model shape out of the
    origin and locates each first exit with the `domains` exit engine
    (parameter cap 1e8, tolerance 1e-12; RayCapError when a ray never
    leaves).  `guess`, when given, maps the drawn directions to closed-form
    exits (nan where none, None for none at all), such as the witness
    image's from `_witness_exits`; each is kept only when the oracle
    brackets it within the tolerance, and every other ray marches and
    bisects.
    Returns the least first exit over the rays: a true upper bound for the
    inscribed radius up to the exit tolerance, and no certification claim.
    """
    if shape not in ("ball", "polydisc"):
        raise ArgumentError(f"inscribed shape must be ball or polydisc, got {shape!r}")
    _check_counts(rays=rays)
    if not oracle(np.zeros((1, n), dtype=complex))[0]:
        raise ArgumentError("inscribed radius needs 0 inside the image")
    body = ball(n) if shape == "ball" else polydisc(n)
    dirs = boundary_samples(body, rays, np.random.default_rng(seed))
    exits = None if guess is None else guess(dirs)
    return float(_first_exits(oracle, np.zeros(n, dtype=complex), dirs, cap=1e8, guess=exits).min())


# -- coordinate projections and disc matching --------------------------------

@dataclass(frozen=True)
class PlanarProjection:
    """One coordinate projection of the normalized domain image."""

    index: int
    cloud: np.ndarray
    matched: PlanarShape | None
    one_on_boundary: bool
    zero_interior: bool

    def __post_init__(self):
        _freeze(self, "cloud")


def match_projection(cloud):
    """Fit a disc to a projection cloud; None when the fit misses.

    The boundary is estimated by per-angle-bin radial maxima with the uniform
    density endpoint correction, then a least squares circle is fitted.  The
    match gate is the rms deviation of the boundary estimate from the circle,
    relative to its radius.  Clouds whose boundary sampling density is far
    from uniform can fail to match; the caller then falls back to the
    universal bound, which is the intended behavior.  A matched disc is
    dilated slightly so the whole open projection stays inside it.
    """
    cloud = np.asarray(cloud, dtype=complex).ravel()
    if cloud.size < 50 * FIT_BINS:
        return None
    center0 = cloud.mean()
    rel = cloud - center0
    which = np.clip(((np.angle(rel) + np.pi) / (2 * np.pi) * FIT_BINS).astype(int),
                    0, FIT_BINS - 1)
    radii = np.abs(rel)
    edge = np.full(FIT_BINS, np.nan, dtype=complex)
    for b in range(FIT_BINS):
        mask = which == b
        count = int(np.count_nonzero(mask))
        if count < 40:
            return None
        sub = radii[mask]
        k = int(np.argmax(sub))
        # endpoint correction: E[max of m] = R * 2m/(2m+1) for uniform density
        edge[b] = center0 + rel[mask][k] * (2 * count + 1) / (2 * count)
    x, y = edge.real, edge.imag
    lhs = np.column_stack([2 * x, 2 * y, np.ones(FIT_BINS)])
    sol, *_ = np.linalg.lstsq(lhs, x**2 + y**2, rcond=None)
    center = complex(sol[0], sol[1])
    rad_sq = sol[2] + sol[0] ** 2 + sol[1] ** 2
    if rad_sq <= 0:
        return None
    radius = float(np.sqrt(rad_sq))
    resid = np.abs(edge - center) - radius
    if float(np.sqrt(np.mean(resid**2))) > FIT_TOL * radius:
        return None
    if np.any(np.abs(cloud - center) > radius * (1.0 + 10 * FIT_TOL)):
        return None
    if abs(center) >= radius:
        return None
    return disc_shape(center, radius * (1.0 + 3 * FIT_TOL))


def _build_projections(d, affine, cloud_samples, seed):
    rng = np.random.default_rng(seed)
    clouds = interior_samples(d, cloud_samples, rng) @ affine.T
    projections = []
    for j in range(d.n):
        cloud = clouds[:, j]
        matched = match_projection(cloud)
        if matched is not None:
            # the fitted radius carries the dilation; undo it for the flag
            fitted_r = matched.radius / (1.0 + 3 * FIT_TOL)
            on_boundary = abs(abs(1.0 - matched.center) - fitted_r) <= 5e-3
        else:
            on_boundary = bool(np.min(np.abs(cloud - 1.0)) <= 2e-2)
        angles = np.angle(cloud)
        coarse = np.clip(((angles + np.pi) / (2 * np.pi) * 36).astype(int), 0, 35)
        zero_in = bool(np.all(np.bincount(coarse, minlength=36) > 0))
        projections.append(PlanarProjection(
            index=j, cloud=cloud, matched=matched,
            one_on_boundary=on_boundary, zero_interior=zero_in))
    return projections


# -- the certificate ----------------------------------------------------------

def _model_bodies(n):
    """The model bodies of the certificate: the l1 simplex, the polydisc of
    radius 1/(2^n - 1) and the ball of radius 1/c_n."""
    return (l1ball(n),
            affine_image(polydisc(n), 1.0 / (2.0**n - 1.0) * np.eye(n)),
            affine_image(ball(n), 1.0 / c_const(n) * np.eye(n)))


def _class_bounds(n, convexity_class):
    """The (ball, polydisc) universal lower bounds of a convexity class."""
    consts = universal_bounds(n)
    if convexity_class == "convex":
        return consts.convex_ball, consts.convex_polydisc
    return consts.cconvex_ball, consts.cconvex_polydisc


@dataclass(frozen=True)
class BoundReport:
    """Certified universal bounds plus empirical witness data for one domain."""

    n: int
    convexity_class: str
    certified_s: float
    certified_s_hat: float
    witness_s: float | None
    witness_s_hat: float | None
    margins: dict
    diagnostics: dict
    projections: tuple
    normalizer: Normalizer
    witness: WitnessMap | None
    seed: int


def certify(d: DomainSpec, convexity_class=None, samples=2000, seed=0,
            cloud_samples=100_000, rays=12000, spot_trials=200,
            n_starts=None) -> BoundReport:
    """Run the full pipeline and assemble the report.

    The certified values are the closed-form universal constants of the
    requested class; they are reported as certified conditional on the sampled
    invariant re-checks, all of which land in `margins`.  Witness radii (the
    measured inscribed radii of the witness image) are attached when the
    witness embedding exists: always for the convex class, and for the
    C-convex class exactly when every coordinate projection matches a catalog
    disc.
    """
    convexity_class = convexity_class or d.convexity_class
    if convexity_class not in ("convex", "cconvex"):
        raise ArgumentError(f"unknown convexity class {convexity_class!r}")
    _check_counts(seed=seed, samples=samples, rays=rays, cloud_samples=cloud_samples,
                  spot_trials=spot_trials, n_starts=n_starts)
    if convexity_class != d.convexity_class:
        d = replace(d, convexity_class=convexity_class)
    if spot_trials:
        bad = convexity_spot_check(d, trials=spot_trials,
                                   seed=np.random.SeedSequence(entropy=(seed, 5)))
        if bad:
            raise ClassMismatchError(
                f"{bad}/{spot_trials} spot checks contradict the {convexity_class} declaration")

    frame = build_frame(d, seed=seed, n_starts=n_starts)
    try:
        norm = build_normalizer(d, frame, samples=samples, seed=seed)
    except ValidationFailureError as exc:
        if convexity_class == "convex":
            raise ClassMismatchError(
                f"supporting-hyperplane validation failed under the convex "
                f"declaration: {exc}") from exc
        raise
    n = d.n
    certified_s, certified_s_hat = _class_bounds(n, convexity_class)

    a_inv = inverse_coefficients(norm.a_matrix).entries
    composite = norm.composite
    composite_inv = norm.t_inverse.entries @ a_inv

    simplex, small_pd, small_ball = _model_bodies(n)
    margins = {}
    margins["simplex_in_domain_image"] = containment_check(
        simplex, norm.t_inverse.entries, d, samples=samples,
        seed=np.random.SeedSequence(entropy=(seed, 11)),
        name="simplex inside normalized domain")
    margins["pd_in_sheared_simplex"] = containment_check(
        small_pd, a_inv, simplex,
        samples=samples, seed=np.random.SeedSequence(entropy=(seed, 12)),
        name="small polydisc through A inverse")
    margins["ball_in_sheared_simplex"] = containment_check(
        small_ball, a_inv, simplex,
        samples=samples, seed=np.random.SeedSequence(entropy=(seed, 13)),
        name="small ball through A inverse")
    # the closed ball must stay strictly inside: its boundary meeting the
    # simplex boundary would need a fully saturated normalizer row
    margins["closed_ball_strictness"] = containment_check(
        small_ball, a_inv, simplex,
        samples=samples, seed=np.random.SeedSequence(entropy=(seed, 14)),
        shrink=1.0, name="closed ball through A inverse")

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 21)))
    interior = interior_samples(d, samples, rng)
    imgs = interior @ composite.T
    if convexity_class == "convex":
        clear = 1.0 - imgs.real
        margins["hyperplane_clearance"] = MarginReport(
            check="normalized images stay left of Re w = 1",
            samples=int(imgs.size), violations=int(np.count_nonzero(clear <= 0)),
            min_slack=float(clear.min()))
    else:
        clear = np.abs(imgs - 1.0)
        margins["hyperplane_clearance"] = MarginReport(
            check="normalized images avoid w = 1",
            samples=int(imgs.size),
            violations=int(np.count_nonzero(clear <= 1e-12)),
            min_slack=float(clear.min()))

    witness = None
    projections = ()
    if convexity_class == "convex":
        coord_maps = tuple(riemann_catalog(half_plane()) for _ in range(n))
    else:
        projections = tuple(_build_projections(
            d, composite, cloud_samples,
            np.random.SeedSequence(entropy=(seed, 31))))
        coord_maps = None
        if all(p.matched is not None for p in projections):
            coord_maps = tuple(riemann_catalog(p.matched) for p in projections)

    witness_s = witness_s_hat = None
    if coord_maps is not None:
        witness = WitnessMap(domain=d, affine=composite, coordinate_maps=coord_maps)
        oracle = _witness_image_oracle(witness, composite_inv)
        guess = _witness_exits(witness, composite_inv)
        witness_s_hat = inscribed_radius_estimate(
            oracle, n, shape="polydisc", rays=rays, seed=seed + 1, guess=guess)
        # the ball witness is the polydisc witness scaled by 1/sqrt(n)
        witness_s = inscribed_radius_estimate(
            oracle, n, shape="ball", rays=rays, seed=seed + 2, guess=guess) / math.sqrt(n)

    diagnostics = {
        "radii": [float(r) for r in frame.radii],
        "alpha_max": norm.margins["alpha_max"],
        "triangularity_residual": norm.margins["triangularity_residual"],
        "search_flags": list(frame.search_flags),
        "matched_projections": [
            None if p.matched is None else p.matched.kind for p in projections],
        "rays": rays,
        "samples": samples,
    }
    return BoundReport(
        n=n, convexity_class=convexity_class,
        certified_s=certified_s, certified_s_hat=certified_s_hat,
        witness_s=witness_s, witness_s_hat=witness_s_hat,
        margins=margins, diagnostics=diagnostics, projections=projections,
        normalizer=norm, witness=witness, seed=seed)


# -- serialization -----------------------------------------------------------

def _cloud_json(cloud):
    step = max(1, cloud.size // CLOUD_JSON_CAP)
    return _pairs(cloud[::step][:CLOUD_JSON_CAP])


def _shape_json(shape):
    if shape is None:
        return None
    return {"kind": shape.kind, "center": _pairs(shape.center), "radius": shape.radius}


def report_to_json(report: BoundReport) -> dict:
    """JSON form of a BoundReport; projection clouds are decimated."""
    return {
        "schema": "squeeze-cert/1",
        "n": report.n,
        "class": report.convexity_class,
        "certified": {"s": report.certified_s, "s_hat": report.certified_s_hat},
        "witness": {
            "present": report.witness is not None,
            "s": report.witness_s,
            "s_hat": report.witness_s_hat,
        },
        "margins": {k: v.as_dict() for k, v in report.margins.items()},
        "diagnostics": report.diagnostics,
        "projections": [
            {
                "index": p.index,
                "matched": _shape_json(p.matched),
                "one_on_boundary": p.one_on_boundary,
                "zero_interior": p.zero_interior,
                "cloud": _cloud_json(p.cloud),
            }
            for p in report.projections
        ],
        "normalizer": normalizer_to_json(report.normalizer),
        "seed": report.seed,
    }
