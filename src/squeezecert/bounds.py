"""Certified universal bounds and the empirical witness embeddings.

certify() runs the whole pipeline for one domain: contact frame, normalizer,
universal constants for the declared convexity class, then re-checks of
every containment the certificate rests on: the shear lemma's (the small
polydisc and ball through A inverse inside the l1 simplex) in closed form,
rounded outward (`numerics._shear_slacks`), and the simplex inside the
domain sampled, by domains.boundary_samples and the domain's batched
boundary residual.  On top of the certificate it builds the witness embedding
into the unit polydisc (half-plane maps after the normalizer for convex
domains; for C-convex ones the disc maps of the coordinate projections, each
a closed-form disc over ball bases and affine chains, none for polydisc, l1
and lp bases under projective maps or for defining functions, in which case
no witness is built) and measures the inscribed radii of its image by
batched ray exits; the ball-target witness is the same map scaled by
1/sqrt(n).  Sampled projections only cross-check the exact discs.  One
WitnessMap holds the map and its inverse chain and answers for its image:
evaluation (calling it), membership (`contains`), exit brackets (`exits`)
and both radii (`radii`).  The coordinate maps' inverses are Mobius maps,
so a witness-image ray pulls back to a rational path: over ball and
polydisc bases its first exit has a closed form, over l1 and lp bases a
grid scan of the march brackets it.  A bracket is kept once the image's
membership oracle, which pulls back through the same Mobius coefficients,
holds at its lower end and fails at its upper end; only rays over defining
functions, and rays whose bracket fails, march.  A Mobius map takes a disc
onto a disc, so over affine and projective chains a closed-form enclosure
starts every scan at an inner radius and gives each ray that cannot hold
the least exit a certified lower end and no path: a search bound, neither
reported nor claimed as a certified radius.
The certified numbers come from the closed forms; each witness number is the
least exit its rays measured, so [certified, witness] brackets the inscribed
radius of the embedding's image, up to the exit tolerance.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .domains import (
    DomainSpec,
    _enclosure,
    _first_exits,
    _inner_radius,
    _mobius_path_exits,
    _projection_disc,
    _row_all,
    ball,
    boundary_residual,
    boundary_samples,
    contains,
    convexity_spot_check,
    interior_samples,
    l1ball,
    polydisc,
)
from .errors import ArgumentError, ClassMismatchError, ValidationFailureError
from .frame import Normalizer, build_frame, build_normalizer, normalizer_to_json
from .numerics import (
    _check_counts,
    _freeze,
    _pairs,
    _shear_slacks,
    _stream,
    inverse_coefficients,
    universal_bounds,
)
from .planar import disc_shape, half_plane, riemann_catalog

# inner boundaries are shrunk by this factor so closed-set tangencies sample clean
BOUNDARY_SHRINK = 1.0 - 1e-9

# exact projection discs are dilated by 8 ulps of their radius, covering the
# rounding of the closed form
DISC_ROUNDING = 1.0 + 8 * np.finfo(float).eps


# -- generic containment check ------------------------------------------------

@dataclass(frozen=True)
class MarginReport:
    """Slack of one containment; violations are data, not errors.  `samples`
    counts the points it was measured on, 0 for a closed form."""

    check: str
    samples: int
    violations: int
    min_slack: float

    def as_dict(self) -> dict:
        return asdict(self)


def containment_check(inner: DomainSpec, mapping, outer: DomainSpec, samples=2000,
                      seed=0, name=None) -> MarginReport:
    """Sample the inner boundary, apply the map, measure the outer slack.

    `inner` is a body `boundary_samples` covers, its samples shrunk by
    BOUNDARY_SHRINK; `mapping` is None (identity) or a square matrix.  The
    slack is the negated boundary residual of `outer`: sign-faithful, but not
    a distance for image and defining-function kinds.
    """
    _check_counts(samples=samples, seed=seed)
    rng = np.random.default_rng(seed)
    pts = BOUNDARY_SHRINK * boundary_samples(inner, samples, rng)
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
    by 1/sqrt(n) it is the ball-target witness.  `inverse`, the affine
    part's inverse, is a field and not derived: certify passes t_inverse A^-1
    (exact contacts as columns, then the forward recursion), which
    np.linalg.inv(affine) does not reproduce bit for bit.  Construction
    derives, once, what every call of `exits` reads: the Mobius rows, the
    constants of the closed-form disc enclosure (`domains._enclosure`, over
    affine and projective chains alike; None for defining functions) and
    the image's inner radius.
    """

    domain: DomainSpec
    affine: np.ndarray
    inverse: np.ndarray
    coordinate_maps: tuple

    def __post_init__(self):
        _freeze(self, "affine", "inverse")
        if any(mp.inverse_mobius is None for mp in self.coordinate_maps):
            raise ArgumentError("witness coordinate maps need Mobius inverses")
        # rows p, q, r, s over coordinates: w_j -> (p_j w_j + q_j) / (r_j w_j + s_j)
        object.__setattr__(self, "_mobius",
                           np.array([mp.inverse_mobius for mp in self.coordinate_maps]).T)
        # the disc enclosure's constants and the image's inner radius, which
        # every call of `exits` reads
        object.__setattr__(self, "_enclosure", _enclosure(self.domain, self._mobius, self.inverse))
        object.__setattr__(self, "_inner", _inner_radius(self._enclosure))

    @property
    def n(self) -> int:
        return self.affine.shape[0]

    def __call__(self, z) -> np.ndarray:
        """The map at points of shape (..., n).  A coordinate outside its
        planar map's domain raises that map's MapDomainError."""
        z = np.asarray(z, dtype=complex)
        y = z.reshape(-1, self.n) @ self.affine.T
        return np.stack([mp.forward(y[:, j]) for j, mp in enumerate(self.coordinate_maps)],
                        axis=-1).reshape(z.shape)

    def contains(self, y) -> np.ndarray:
        """Membership of points y (..., n) in the image, batched and
        exception-free: points of the unit polydisc pull back through the
        coordinate Mobius inverses and `inverse` into the domain.  The unit
        polydisc test reduces column by column (`domains._row_all`), as the
        domain's residual does."""
        p, q, r, s = self._mobius
        y = np.asarray(y, dtype=complex)
        inside = _row_all(np.abs(y) < 1.0)
        if not np.any(inside):
            return inside
        y = y[inside]
        inside[inside.copy()] = contains(self.domain, ((p * y + q) / (r * y + s)) @ self.inverse.T)
        return inside

    def exits(self, dirs):
        """Exit brackets of image rays t*v from 0 (`domains._mobius_path_exits`:
        None unless the domain's innermost base is a catalog body).  With an
        inner radius a ray that cannot hold the least exit of the paths
        built before its block is screened gets (lower, +inf), a certified
        lower end: its segment up to lower lies in the image by the
        closed-form disc enclosure."""
        return _mobius_path_exits(self.domain, self._mobius, self.inverse, self._enclosure,
                                  self._inner, dirs)

    def radii(self, rays, seed):
        """(s, s_hat): the measured inscribed ball and polydisc radii of the
        image, the polydisc's rays drawn from stream (seed, 51, 0) and the
        ball's from (seed, 51, 1), a first key that no other draw of the
        package uses; the ball witness is this map scaled by 1/sqrt(n)."""
        s_hat, s = (inscribed_radius_estimate(self.contains, self.n, shape=shape, rays=rays,
                                              seed=_stream(seed, 51, k), guess=self.exits)
                    for k, shape in enumerate(("polydisc", "ball")))
        return s / math.sqrt(self.n), s_hat


# -- inscribed radius by batched ray exits -----------------------------------

def inscribed_radius_estimate(oracle, n, shape="ball", rays=12000, seed=0, guess=None):
    """Empirical inscribed radius of an open image containing 0.

    Sends `rays` directions on the unit boundary of the model shape out of the
    origin and locates their least first exit with the `domains` exit engine
    (parameter cap 1e8, tolerance 1e-12; RayCapError only when no ray leaves
    below the cap).  `guess`, when given, maps the drawn directions to exit
    brackets (lower, upper) (nan where none, None for none at all), such as
    the witness image's from `WitnessMap.exits`: two marks of the march from
    one grid scan, which over ball and polydisc bases Newton refines to a
    closed-form exit on the rays that can hold the least exit of their
    batch.  Each is kept only when the oracle holds at its lower end and
    fails at its upper end.  A guess may also return certified lower ends
    (lower, +inf), rays it proved inside up to lower: such a ray costs no
    oracle call once a held upper end lies at or below lower.  Every other
    ray marches; only the brackets below the least upper end are bisected,
    until each lies above another ray's, where it cannot hold the least
    exit; the result is the one of running every ray to its exit.
    Returns the least first exit over the rays: a true upper bound for the
    inscribed radius up to the exit tolerance, and no certification claim.
    """
    if shape not in ("ball", "polydisc"):
        raise ArgumentError(f"inscribed shape must be ball or polydisc, got {shape!r}")
    _check_counts(rays=rays, seed=seed)
    if not oracle(np.zeros((1, n), dtype=complex))[0]:
        raise ArgumentError("inscribed radius needs 0 inside the image")
    body = ball(n) if shape == "ball" else polydisc(n)
    dirs = boundary_samples(body, rays, np.random.default_rng(seed))
    bracket = None if guess is None else guess(dirs)
    return float(_first_exits(oracle, np.zeros(n, dtype=complex), dirs, cap=1e8, bracket=bracket,
                              least=True))


# -- coordinate projections --------------------------------------------------

def _projection_check(d, composite, discs, samples, seed):
    """Sampled cross-check of the exact discs: the projections of `samples`
    interior points lie inside each disc, slack radius - |zeta - centre|."""
    imgs = interior_samples(d, samples, np.random.default_rng(seed)) @ composite.T
    slack = np.concatenate([disc.radius - np.abs(imgs[:, j] - disc.center)
                            for j, disc in enumerate(discs) if disc is not None])
    return MarginReport(check="projected interior points inside the exact discs",
                        samples=int(slack.size), violations=int(np.count_nonzero(slack <= 0)),
                        min_slack=float(slack.min()))


# -- the certificate ----------------------------------------------------------

def _class_bounds(n, convexity_class):
    """The (ball, polydisc) universal lower bounds of a convexity class."""
    consts = universal_bounds(n)
    if convexity_class == "convex":
        return consts.convex_ball, consts.convex_polydisc
    return consts.cconvex_ball, consts.cconvex_polydisc


@dataclass(frozen=True)
class BoundReport:
    """Certified universal bounds plus empirical witness data for one domain.

    `projections` holds, for the C-convex class, one exact disc PlanarShape or
    None per coordinate of the normalized domain; it is empty for the convex
    class.
    """

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
    requested class; they are reported as certified conditional on the
    invariant re-checks, closed-form or sampled, all of which land in
    `margins`.  The seed must be an integer, as the report carries it; the
    witness rays draw from its streams (seed, 51, k).  Witness radii (the
    measured inscribed radii of the witness image) are attached when the
    witness embedding exists: always for the convex class, and for the
    C-convex class exactly when every coordinate projection of the normalized
    domain is a disc in closed form (`domains._projection_disc`).
    `cloud_samples` interior points cross-check those discs in the
    `projection_discs` margin, drawn only when some coordinate has one.
    """
    convexity_class = convexity_class or d.convexity_class
    if convexity_class not in ("convex", "cconvex"):
        raise ArgumentError(f"unknown convexity class {convexity_class!r}")
    _check_counts(streams=False, seed=seed, samples=samples, rays=rays,
                  cloud_samples=cloud_samples, spot_trials=spot_trials, n_starts=n_starts)
    if convexity_class != d.convexity_class:
        d = replace(d, convexity_class=convexity_class)
    if spot_trials:
        bad = convexity_spot_check(d, trials=spot_trials, seed=_stream(seed, 5))
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

    margins = {}
    margins["simplex_in_domain_image"] = containment_check(
        l1ball(n), norm.t_inverse.entries, d, samples=samples, seed=_stream(seed, 11),
        name="simplex inside normalized domain")
    # closed forms over the closed bodies: the ball's slack stays positive
    # unless a normalizer row is fully saturated
    for key, check, slack in zip(
            ("pd_in_sheared_simplex", "ball_in_sheared_simplex"),
            ("small polydisc through A inverse", "small ball through A inverse"),
            _shear_slacks(a_inv).tolist()):
        margins[key] = MarginReport(check=check, samples=0, violations=int(slack < 0),
                                    min_slack=slack)

    # build_normalizer measured this on its interior draw and refuses any
    # violation, so none is left to count
    margins["hyperplane_clearance"] = MarginReport(
        check=("normalized images stay left of Re w = 1" if convexity_class == "convex"
               else "normalized images avoid w = 1"),
        samples=samples * n, violations=0,
        min_slack=norm.margins["hyperplane_clearance"])

    witness = None
    projections = ()
    if convexity_class == "convex":
        coord_maps = tuple(riemann_catalog(half_plane()) for _ in range(n))
    else:
        discs = [_projection_disc(d, row) for row in composite]
        projections = tuple(None if disc is None else disc_shape(disc[0], disc[1] * DISC_ROUNDING)
                            for disc in discs)
        coord_maps = None
        if all(p is not None for p in projections):
            coord_maps = tuple(riemann_catalog(p) for p in projections)
        if any(p is not None for p in projections):
            margins["projection_discs"] = _projection_check(
                d, composite, projections, cloud_samples, _stream(seed, 31))

    witness_s = witness_s_hat = None
    if coord_maps is not None:
        witness = WitnessMap(domain=d, affine=composite, inverse=norm.t_inverse.entries @ a_inv,
                             coordinate_maps=coord_maps)
        witness_s, witness_s_hat = witness.radii(rays, seed)

    diagnostics = {
        "radii": [float(r) for r in frame.radii],
        "alpha_max": norm.margins["alpha_max"],
        "triangularity_residual": norm.margins["triangularity_residual"],
        "search_flags": list(frame.search_flags),
        "frame_stages": [dict(c) for c in frame.stages],
        "matched_projections": [None if p is None else p.kind for p in projections],
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

def _shape_json(shape):
    if shape is None:
        return None
    return {"kind": shape.kind, "center": _pairs(shape.center), "radius": shape.radius}


def report_to_json(report: BoundReport) -> dict:
    """JSON form of a BoundReport."""
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
        "projections": [_shape_json(p) for p in report.projections],
        "normalizer": normalizer_to_json(report.normalizer),
        "seed": report.seed,
    }
