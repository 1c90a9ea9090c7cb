"""Standalone property suites and the empirical infimum probe.

Each suite replays one layer of the certificate against independent random
instances: the triangular coefficient bounds and their symbolic expansion,
the containment lemmas, and the strictness of the witness bounds over the
catalog fixtures.  kappa_probe sweeps a parameterized family of domains and
records the smallest observed bounds; it never claims the infimum.

The coefficient and lemma suites run each dimension's random trials as one
stack: one trial-major draw from a shear stream and one from a sample
stream per dimension, then one stacked inverse and one batch of margins.
Suites fail on margins below -1e-10 (the tight closed-form margins read
zero, rounded outward to about 1e-14 below it) and on any non-finite margin,
which is reported as the worst case.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import _class_bounds, certify
from .domains import (
    affine_image,
    ball,
    domain_to_json,
    interior_samples,
    l1ball,
    polydisc,
    projective_image,
    translate,
)
from .errors import ArgumentError
from .numerics import (SYMBOLIC_CAP, _check_counts, _inverse_stack, _pairs, _shear_slacks,
                       _stream, count_inverse_monomials)
from .planar import (
    half_plane,
    rho_radius_check,
    riemann_catalog,
    slit_plane,
    tau_radius_check,
    unit_disc,
)

VIOLATION_TOL = -1e-10

NUMERIC_LIMIT = 16

# parameters the lemma radius checks are exercised at; the closed endpoint is
# the boundary case of the half-plane containment
RADIUS_PARAMETERS = (1.0 / 3.0, 1.0 / math.sqrt(5.0), 1.0)


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one property suite over random instances."""

    suite: str
    dims: tuple
    trials: int
    seed: int
    violations: int
    worst_margin: float
    worst_case: dict

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class KappaProbeReport:
    """Smallest bounds observed over a family sweep; an upper estimate only."""

    family: str
    n: int
    convexity_class: str
    budget: int
    seed: int
    universal_s: float
    universal_s_hat: float
    min_witness_s: float | None
    min_witness_s_hat: float | None
    witness_runs: int
    argmin: dict

    def as_dict(self) -> dict:
        out = asdict(self)
        out["class"] = out.pop("convexity_class")
        return out


class _Tracker:
    """Accumulates margins, counting violations and keeping the worst case.

    The worst case is the first least margin in add order.  A non-finite
    margin is a fault: it counts as a violation and ranks below every finite
    one, so the first fault stays the worst case.
    """

    def __init__(self):
        self.violations = 0
        self.worst = math.inf
        self.case = {}
        self._rank = math.inf

    def add(self, margin, case):
        self.extend([margin], lambda _: case)

    def extend(self, margins, case_at):
        """Add a batch of margins in order; `case_at(i)` builds the case of
        the i-th, called only for a new worst case."""
        margins = np.asarray(margins, dtype=float)
        rank = np.where(np.isfinite(margins), margins, -np.inf)
        self.violations += int(np.count_nonzero(rank < VIOLATION_TOL))
        i = int(np.argmin(rank))
        if rank[i] < self._rank:
            self._rank, self.worst, self.case = rank[i], float(margins[i]), case_at(i)


def _check_dims(dims, limit, label):
    dims = tuple(dims)
    if not dims:
        raise ArgumentError("empty dimension list")
    for n in dims:
        if not isinstance(n, numbers.Integral):
            raise ArgumentError(f"{label} dimensions must be integers, got {n!r}")
        if n < 2 or n > limit:
            raise ArgumentError(f"{label} runs for 2 <= n <= {limit}, got {n}")
    return tuple(map(int, dims))


def _shear_stack(seed, keys, n, trials, rows=0):
    """Unit lower triangular shears for trials 0..trials-1, stacked (T, n, n),
    and `rows` complex normal sample rows per trial, stacked (T, rows, n).

    Trial 0's shear is the all-(-1) one; trial i takes slice i of two
    trial-major draws, so its figures depend on (seed, keys, i) alone: its
    subdiagonal uniform on the square [-1, 1]^2 from stream
    `_stream(seed, *keys)`, pulled radially into the closed unit disc, and its
    sample rows from stream `_stream(seed, *keys, 1)`.
    """
    shear = np.random.default_rng(_stream(seed, *keys)).uniform(-1, 1, (trials, 2, n, n))
    raw = shear[:, 0] + 1j * shear[:, 1]
    mods = np.abs(raw)
    raw[mods > 1.0] /= mods[mods > 1.0]
    raw[0] = -1.0
    alpha = np.tril(raw, -1)
    alpha += np.eye(n)
    z = np.random.default_rng(_stream(seed, *keys, 1)).normal(size=(trials, rows, 2 * n))
    return alpha, z.view(complex)


# -- triangular coefficient suite ---------------------------------------------

def suite_star(dims=(2, 3, 4, 5), trials=100, seed=0) -> SuiteReport:
    """Coefficient bounds of inverted unit triangular shears.

    For random matrices with subdiagonal moduli at most one: every inverse
    coefficient satisfies |c_{j,k}| <= 2**(j-k-1), the symbolic expansion has
    exactly that many monomials (dimensions up to 8), and the l1 norm of an
    inverted sample is bounded by sum_j 2**(n-j) |Z_j|.  The all-(-1) matrix
    with an all-ones sample runs first and attains equality.  The trials of
    a dimension run as one stack; trial i takes slice i of one shear draw
    and one draw of 8 samples per trial, so its figures do not depend on the
    trial count.  Dimension n draws from streams (seed, 1, n) and (seed, 1,
    n, 1): 1 is a first key that no other purpose uses.
    """
    dims = _check_dims(dims, NUMERIC_LIMIT, "suite_star")
    _check_counts(streams=False, seed=seed, trials=trials)
    track = _Tracker()
    for n in dims:
        if n <= SYMBOLIC_CAP:
            counts = count_inverse_monomials(n)
            js, ks = np.tril_indices(n, -1)
            track.extend(np.where(counts[js, ks] == 2 ** (js - ks - 1), 0.0, -1.0),
                         lambda i: {"check": "symbolic_count", "n": n, "j": int(js[i]),
                                    "k": int(ks[i]), "count": int(counts[js[i], ks[i]])})
        bound = np.tril(2.0 ** (np.subtract.outer(np.arange(n), np.arange(n)) - 1.0), -1)
        weights = 2.0 ** (n - 1 - np.arange(n))
        alpha, z = _shear_stack(seed, (1, n), n, trials, rows=8)
        inv = _inverse_stack(alpha)
        z[0, 0] = 1.0
        margins = np.empty((trials, 2))
        margins[:, 0] = np.min((bound - np.abs(np.tril(inv, -1))) / np.maximum(1.0, bound),
                               axis=(1, 2))
        rhs = np.abs(z) @ weights
        z = z @ inv.transpose(0, 2, 1)  # the images; rebinding frees the draws
        margins[:, 1] = np.min((rhs - np.abs(z).sum(axis=2)) / (1.0 + rhs), axis=1)
        track.extend(margins.ravel(),
                     lambda i: {"check": ("coefficient_bound", "weighted_bound")[i % 2],
                                "n": n, "trial": i // 2, "alpha": _pairs(alpha[i // 2])})
    return SuiteReport(suite="star", dims=dims, trials=trials, seed=seed,
                       violations=track.violations, worst_margin=track.worst,
                       worst_case=track.case)


# -- containment lemma suite --------------------------------------------------

def suite_lemmas(dims=(2, 3, 4, 5), trials=100, samples=200, seed=0) -> SuiteReport:
    """The containment lemmas behind the certificates.

    Random triangular shears must keep the small polydisc and the small ball
    inside the sheared simplex (closed forms, `numerics._shear_slacks`); the
    tau radius must survive the half-plane product and the rho radius the
    catalog map products, each sampled at `samples` * 10 points.  The
    all-(-1) shear runs first in every dimension and is tight.  The shears
    of a dimension run as one stack, one trial-major draw, slacked in one call.
    """
    dims = _check_dims(dims, NUMERIC_LIMIT, "suite_lemmas")
    _check_counts(streams=False, seed=seed, trials=trials, samples=samples)
    track = _Tracker()
    for n in dims:
        alpha, _ = _shear_stack(seed, (3, n), n, trials)
        track.extend(_shear_slacks(_inverse_stack(alpha)).ravel(),
                     lambda i: {"check": ("polydisc_in_shear", "ball_in_shear")[i % 2],
                                "n": n, "trial": i // 2, "alpha": _pairs(alpha[i // 2])})
        slit_maps = [riemann_catalog(slit_plane()) for _ in range(n)]
        mixed = [riemann_catalog(k()) for k in (slit_plane, half_plane, unit_disc)]
        for ci, c in enumerate(RADIUS_PARAMETERS):
            rep = tau_radius_check(n, c, samples=samples * 10, seed=_stream(seed, 5, n, ci))
            track.add(rep.min_slack, {"check": "tau_radius", "n": n, "c": c})
            rep = rho_radius_check(slit_maps, c, samples=samples * 10,
                                   seed=_stream(seed, 6, n, ci))
            track.add(rep.min_slack, {"check": "rho_radius_slit", "n": n, "c": c})
        rep = rho_radius_check(mixed, 1.0, samples=samples * 10, seed=_stream(seed, 7, n))
        track.add(rep.min_slack, {"check": "rho_radius_mixed", "n": n})
    return SuiteReport(suite="lemmas", dims=dims, trials=trials, seed=seed,
                       violations=track.violations, worst_margin=track.worst,
                       worst_case=track.case)


# -- strictness suite ---------------------------------------------------------

def default_strictness_fixtures():
    """Catalog fixtures with a witness: name, domain, class to certify."""
    shear = np.array([[1.0, 0.0], [0.5, 1.0]])
    return (
        ("polydisc2", polydisc(2), "convex"),
        ("l1ball2", l1ball(2), "convex"),
        ("ball2", ball(2), "convex"),
        ("sheared_polydisc", affine_image(polydisc(2), shear), "convex"),
        ("polydisc2_cconvex", polydisc(2), "cconvex"),
    )


def suite_strictness(fixtures=None, seed=0, samples=1000, rays=4000) -> SuiteReport:
    """Strict inequality of the witness bounds over the catalog fixtures.

    For every fixture the normalizer must avoid a fully saturated row, i.e.
    min over rows j >= 2 of max_k (1 - |alpha_{j,k}|) stays positive, and the
    witness bounds must land strictly above the certified universal values.
    """
    fixtures = default_strictness_fixtures() if fixtures is None else tuple(fixtures)
    if not fixtures:
        raise ArgumentError("strictness suite needs at least one fixture")
    track = _Tracker()
    for name, domain, cls in fixtures:
        rep = certify(domain, convexity_class=cls, samples=samples, seed=seed,
                      rays=rays, spot_trials=0)
        alpha = np.abs(rep.normalizer.a_matrix.entries)
        gap = min(max(1.0 - alpha[j, k] for k in range(j)) for j in range(1, rep.n))
        track.add(gap, {"check": "row_saturation_gap", "fixture": name})
        if rep.witness is None:
            track.add(-1.0, {"check": "witness_missing", "fixture": name})
            continue
        track.add(rep.witness_s - rep.certified_s,
                  {"check": "ball_gap", "fixture": name})
        track.add(rep.witness_s_hat - rep.certified_s_hat,
                  {"check": "polydisc_gap", "fixture": name})
    return SuiteReport(suite="strictness", dims=tuple(sorted({f[1].n for f in fixtures})),
                       trials=len(fixtures), seed=seed,
                       violations=track.violations, worst_margin=track.worst,
                       worst_case=track.case)


# -- empirical infimum probe --------------------------------------------------

KAPPA_FAMILIES = ("shears", "projective", "base_points")


def _sweep_parameter(idx, grid, rng):
    """Grid point of [-0.9, 0.9] for the first `grid` indices, then a random
    complex parameter pulled into the closed 0.9 disc."""
    if idx < grid:
        return -0.9 + 1.8 * idx / max(1, grid - 1)
    raw = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
    return 0.9 * raw / max(1.0, abs(raw))


def _family_domains(family, n, budget, seed):
    """Deterministic half-grid half-random parameter sweep of one family."""
    rng = np.random.default_rng(_stream(seed, 9))
    grid = budget // 2
    for idx in range(budget):
        if family == "shears":
            s = _sweep_parameter(idx, grid, rng)
            mat = np.eye(n, dtype=complex)
            mat[1, 0] = s
            yield affine_image(polydisc(n), mat), {"shear": _pairs(s)}
        elif family == "projective":
            t = _sweep_parameter(idx, grid, rng)
            den = np.zeros(n + 1, dtype=complex)
            den[0], den[1] = 2.0, t
            yield projective_image(polydisc(n), np.eye(n), np.zeros(n), den,
                                   bounding_radius=100.0), \
                {"denominator_1": _pairs(t)}
        else:
            p = (np.zeros(n, dtype=complex) if idx == 0
                 else 0.5 * interior_samples(ball(n), 1, rng)[0])
            yield translate(ball(n), p), {"base_point": _pairs(p)}


def kappa_probe(family, n=2, budget=100, seed=0, convexity_class=None,
                samples=400, rays=800, cloud_samples=20_000,
                n_starts=24) -> KappaProbeReport:
    """Sweep one domain family and record the smallest observed bounds.

    Certification runs at the origin of each swept domain (base-point sweeps
    recenter by translation first, which is legitimate because the squeezing
    functions are invariant under biholomorphisms).  Every swept domain
    certifies the class constants `universal_s` and `universal_s_hat`, and
    the witness minima stay strictly over them.  The minima measure the
    witness construction, not the family, whose values are known: shear and
    projective members are biholomorphic to the polydisc, so s = 1/sqrt(n)
    and s_hat = 1, and base-point members are translates of the ball, so
    s = 1.  At n = 2 the shear minima sit at 1/(3 sqrt 2) and 1/3 to 3e-13,
    the cap that the half-plane witness puts on every balanced domain.  A C-convex
    witness needs every coordinate projection to be a disc in closed form: a
    closed-form disc over ball bases and affine chains, none for polydisc, l1
    and lp bases under projective maps or for defining functions.  The
    projective family maps the polydisc with denominator slope t, so only a
    member with t = 0 gets a witness and `min_witness_s` is otherwise null.
    `min_witness_s` and `min_witness_s_hat` are the exact minima; `argmin`
    names the first member whose witness s lies within a relative 1e-12 of
    the least, so a rounding-level move of a tied member leaves it in place.
    `cloud_samples` sizes only the `projection_discs` cross-check of members
    whose projections are exact discs; under the default classes only a
    projective member with slope exactly t = 0 draws it.
    """
    if family not in KAPPA_FAMILIES:
        raise ArgumentError(f"unknown family {family!r}; pick one of {KAPPA_FAMILIES}")
    _check_counts(streams=False, seed=seed, budget=budget)
    if convexity_class is None:
        convexity_class = "cconvex" if family == "projective" else "convex"
    uni_s, uni_s_hat = _class_bounds(n, convexity_class)

    witnessed = []
    for idx, (domain, params) in enumerate(_family_domains(family, n, budget, seed)):
        rep = certify(domain, convexity_class=convexity_class, samples=samples,
                      seed=seed, cloud_samples=cloud_samples, rays=rays,
                      spot_trials=0, n_starts=n_starts)
        if rep.witness_s is not None:
            witnessed.append({"index": idx, "params": params, "domain": domain_to_json(domain),
                              "witness_s": rep.witness_s, "witness_s_hat": rep.witness_s_hat})
    min_wit_s = min_wit_s_hat = None
    argmin = {}
    if witnessed:
        min_wit_s = min(w["witness_s"] for w in witnessed)
        min_wit_s_hat = min(w["witness_s_hat"] for w in witnessed)
        # members tie to rounding (the shears at the half-plane cap): the
        # last bits must not pick the member
        argmin = next(w for w in witnessed if w["witness_s"] <= min_wit_s * (1.0 + 1e-12))
    return KappaProbeReport(
        family=family, n=n, convexity_class=convexity_class, budget=budget,
        seed=seed, universal_s=uni_s, universal_s_hat=uni_s_hat,
        min_witness_s=min_wit_s, min_witness_s_hat=min_wit_s_hat,
        witness_runs=len(witnessed), argmin=argmin)
