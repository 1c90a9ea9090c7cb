"""Contact frames and the triangular normalizer of a domain around the origin.

The frame is built stage by stage: each stage minimizes the boundary exit
distance from the origin over unit directions of the current complex subspace,
records the contact point, and passes to the orthogonal complement of all
contacts so far.  The normalizer then consists of the diagonalizing map T
built from the contacts and a unit lower triangular correction A assembled
from transported tangent hyperplanes.

The direction search is a batched multi-start compass walk whose best
survivor is refined by Gauss-Newton steps to the stationarity identity of a
smooth contact.  Tied exact canonical candidates are ordered by the key
(-Re v_1, |arg v_1|, -Re v_2, ...), so the catalog bodies keep their contacts
bit for bit; otherwise the refined survivor is the contact.  The contacts of
circular domains are then phase-normalized.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import (
    CATALOG_KINDS,
    DomainSpec,
    contains,
    interior_samples,
    ray_exit_batch,
    tangent_functional,
)
from .errors import (
    AlphaBoundError,
    ArgumentError,
    FrameDegenerateError,
    NonsmoothBoundaryError,
    TriangularityError,
    ValidationFailureError,
)
from .numerics import (CMatrix, _check_counts, _freeze, _pairs, _stream, orthonormal_complement,
                       unit_lower)

DEFAULT_STARTS_PER_DIM = 64

# agreement window used to flag unreliable multi-start convergence, and the
# relative window within which exit values count as tied
AGREE_TOL = 1e-3
TIE_REL_WINDOW = 1e-9
# rounding of the canonical tie key; the stationarity refine's Gauss-Newton
# iteration cap, forward-difference step and least-squares singular value cut
_TIE_QUANTUM = 1e-9
_REFINE_ITERS = 20
_REFINE_STEP = 1e-7
_REFINE_RCOND = 1e-6
# normalizer gates, relative to the functional's norm and to |alpha| = 1; a
# frame that misses them has inexact contacts: mend the search, never widen
TRIANGULAR_TOL = 1e-8
ALPHA_TOL = 1e-9
# rounding allowance of the normalized hyperplane check at w = 1
CLEARANCE_TOL = 1e-12


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one subspace direction search."""

    direction: np.ndarray
    radius: float
    agreement: int
    flags: tuple

    def __post_init__(self):
        _freeze(self, "direction")


@dataclass(frozen=True)
class ContactFrame:
    """Orthogonal boundary contacts and their subspace inradii.

    `bases[j]` spans the complex subspace searched at stage j: the full space
    first, then the orthogonal complement of the contacts found so far.
    """

    contacts: np.ndarray     # (n, n), row j is the j-th contact point
    radii: np.ndarray        # (n,), nondecreasing
    bases: tuple             # n orthonormal row bases, shapes (n-j, n)
    search_flags: tuple

    def __post_init__(self):
        _freeze(self, "contacts", "radii", dtype=None)
        _freeze(self, "bases")

    @property
    def n(self) -> int:
        return self.contacts.shape[0]


@dataclass(frozen=True)
class Normalizer:
    """Diagonalizing map T and unit lower triangular correction A.

    T has rows conj(a_j)/r_j^2, so T a_j = e_j; its exact inverse has the
    contacts as columns.  Row j of A is the transported tangent hyperplane at
    a_j normalized to pivot 1, with entries above the diagonal identically
    zero.  `margins` records the residuals measured while assembling A and
    the least hyperplane clearance of the interior draw.
    """

    frame: ContactFrame
    t_matrix: CMatrix
    t_inverse: CMatrix
    a_matrix: CMatrix
    functionals: tuple
    margins: dict

    @property
    def n(self) -> int:
        return self.frame.n

    @property
    def composite(self) -> np.ndarray:
        """The full normalizing map A.T as a plain matrix."""
        return self.a_matrix.entries @ self.t_matrix.entries


# -- direction search --------------------------------------------------------

def _embed(basis, coeffs):
    """Map complex subspace coordinates (m,) or (k, m) to ambient vectors."""
    return coeffs @ basis


def _u_to_coeffs(u, m):
    return u[..., :m] + 1j * u[..., m:]


def _canonical_coeffs(basis):
    """Deterministic starting directions in subspace coordinates."""
    m = basis.shape[0]
    out = []
    eye = np.eye(m, dtype=complex)
    for k in range(m):
        out.append(eye[k])
        out.append(1j * eye[k])
        out.append(-eye[k])
        out.append(-1j * eye[k])
        # phase rotations making each ambient coordinate of basis row k real
        row = basis[k]
        for l in range(basis.shape[1]):
            if abs(row[l]) > 1e-9:
                out.append(eye[k] * (np.conj(row[l]) / abs(row[l])))
    for j in range(m):
        for k in range(j + 1, m):
            for ph in (1.0, -1.0, 1j, -1j):
                out.append((eye[j] + ph * eye[k]) / math.sqrt(2.0))
    out.append(np.ones(m, dtype=complex) / math.sqrt(m))
    return np.array(out)


def _tie_key(v):
    key = []
    for z in v:
        key.append(round(-z.real / _TIE_QUANTUM) * _TIE_QUANTUM)
        key.append(round((abs(np.angle(z)) if abs(z) > 1e-9 else 0.0) / _TIE_QUANTUM) * _TIE_QUANTUM)
    return tuple(key)


def min_boundary_point(d: DomainSpec, subspace_basis=None, n_starts=None,
                       seed=0) -> SearchResult:
    """Minimize the boundary exit distance from 0 over unit subspace directions.

    `subspace_basis` holds orthonormal rows spanning a complex subspace
    (default: the full space).  A multi-start batched compass walk is
    followed by the stationarity refine of its best survivor; `agreement`
    counts survivors (only the best one refined) within AGREE_TOL of the best
    value, and a lone best survivor raises the search_disagreement flag rather
    than an error.  Exact canonical candidates that tie the optimum are ranked
    by the tie key; otherwise the refined best survivor is returned.
    """
    if subspace_basis is None:
        basis = np.eye(d.n, dtype=complex)
    else:
        basis = np.asarray(subspace_basis, dtype=complex)
        if basis.ndim != 2 or basis.shape[1] != d.n:
            raise ArgumentError(f"subspace basis must have shape (m, {d.n})")
        gram = basis @ np.conj(basis.T)
        if not np.allclose(gram, np.eye(basis.shape[0]), atol=1e-9):
            raise ArgumentError("subspace basis rows must be orthonormal")
    _check_counts(n_starts=n_starts, seed=seed)
    m = basis.shape[0]
    if n_starts is None:
        n_starts = DEFAULT_STARTS_PER_DIM * m
    rng = np.random.default_rng(seed)
    origin = np.zeros(d.n, dtype=complex)

    def evaluate(coeffs):
        dirs = _embed(basis, coeffs)
        return ray_exit_batch(d, origin, dirs)

    canonical = _canonical_coeffs(basis)
    u = rng.normal(size=(n_starts, 2 * m))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    random_coeffs = _u_to_coeffs(u, m)
    coeffs = np.concatenate([canonical, random_coeffs])
    values = evaluate(coeffs)

    # refine the most promising starts with a shrinking compass pattern
    k_keep = min(12, coeffs.shape[0])
    order = np.argsort(values, kind="stable")[:k_keep]
    survivors = np.concatenate([coeffs[order].real, coeffs[order].imag], axis=1)
    surv_vals = values[order].copy()
    step = 0.25
    steps = np.concatenate([np.eye(2 * m), -np.eye(2 * m)])
    budget = 400
    while step > 1e-5 and budget > 0:
        # a level spends one round per move, plus the one that found no
        # gain and halves the step
        moves = _pattern_level(evaluate, m, survivors, surv_vals, step, steps, budget)
        if moves >= budget:
            break
        budget -= moves + 1
        step *= 0.5

    # the exit value is stationary at the minimum, so comparing values pins
    # the direction only to ~sqrt(exit tol) in angle.  At a smooth minimum the
    # supporting functional is parallel to the conjugate direction, and
    # iterating on that identity recovers the remaining digits.
    top = int(np.argmin(surv_vals))
    c_best, val_best = _stationary_refine(
        d, basis, _u_to_coeffs(survivors[top], m), surv_vals[top], evaluate)
    surv_vals[top] = val_best

    agreement = int(np.count_nonzero(surv_vals <= surv_vals.min() + AGREE_TOL))
    flags = () if agreement >= 2 else ("search_disagreement",)

    # exact canonical candidates that tie the optimum win outright, so the
    # symmetric catalog bodies reproduce their contacts to the last bit
    window = min(values.min(), surv_vals.min()) * (1.0 + TIE_REL_WINDOW) + 1e-13
    tied_canonical = np.flatnonzero(values[: len(canonical)] <= window)
    if tied_canonical.size:
        tied_dirs = _embed(basis, canonical[tied_canonical])
        pick = min(range(len(tied_canonical)), key=lambda i: _tie_key(tied_dirs[i]))
        direction, radius = tied_dirs[pick], values[tied_canonical[pick]]
    else:
        direction, radius = _embed(basis, c_best), val_best
    return SearchResult(direction=direction / np.linalg.norm(direction), radius=float(radius),
                        agreement=agreement, flags=flags)


def _pattern(points, step, steps):
    """Compass pattern around each point of shape (..., 2m), on the unit sphere."""
    cand = points[..., None, :] + step * steps
    return cand / np.linalg.norm(cand, axis=-1, keepdims=True)


def _pattern_level(evaluate, m, survivors, surv_vals, step, steps, cap):
    """Walk every survivor at one step size until its pattern shows no gain.

    Updates `survivors` and `surv_vals` in place and returns the moves made,
    at most `cap`.  Each round probes the pattern of every live survivor once
    and moves each to the best point of its pattern if that gains more than
    1e-15; a survivor that did not move is not probed again, so the live ones
    have all made the same number of moves.
    """
    moves = 0
    live = np.arange(survivors.shape[0])
    while live.size and moves < cap:
        cand = _pattern(survivors[live], step, steps)
        vals = evaluate(_u_to_coeffs(cand.reshape(-1, 2 * m), m)).reshape(live.size, -1)
        best = np.argmin(vals, axis=1)
        best_vals = vals[np.arange(live.size), best]
        gain = best_vals < surv_vals[live] - 1e-15
        survivors[live[gain]] = cand[gain, best[gain]]
        surv_vals[live[gain]] = best_vals[gain]
        live = live[gain]
        moves += bool(live.size)
    return moves


def _stationary_residual(d, basis, flavor, v, val):
    """Real coordinates of P(lam)/|P(lam)| - v, with lam the tangent functional
    at the exit point val*v and P the subspace projection, phase-aligned to v
    for the complex flavor; None at a corner or where P(lam) turns away."""
    try:
        lam = tangent_functional(d, val * _embed(basis, v), flavor).coefficients
    except (NonsmoothBoundaryError, ArgumentError):
        return None
    w = lam @ np.conj(basis.T)
    norm = np.linalg.norm(w)
    s = np.vdot(w, v)
    if norm < 1e-12 * np.linalg.norm(lam) or abs(s) < 0.5 * norm:
        return None
    r = (w / norm if flavor == "real_supporting" else w * (s / (abs(s) * norm))) - v
    return np.concatenate([r.real, r.imag])


def _stationary_refine(d, basis, coeff, value, evaluate):
    """Drive a searched direction to the stationarity identity.

    Where the inscribed sphere touches a smooth boundary piece, the tangent
    functional coefficients are a positive multiple of the contact direction
    (up to phase for the complex flavor), so the residual of
    `_stationary_residual` vanishes.  A real supporting functional has no
    phase freedom, which also pins the direction's global phase to the
    representative the normalizer needs; the exit value alone cannot see it.
    Each Gauss-Newton step takes the residual's Jacobian by forward
    differences and the least-squares step with singular values below
    _REFINE_RCOND of the largest dropped: minimizers that tie along a
    manifold make the Jacobian singular there, and the step still converges
    quadratically to one of them, which is all the normalizer needs (the
    plain iteration v <- P(lam)/|P(lam)| contracts only at the curvature gap,
    which vanishes on such manifolds).  Corner contacts and any step that
    raises the exit value end the iteration with the last iterate kept.
    """
    flavor = "real_supporting" if d.convexity_class == "convex" else "complex_avoiding"
    m = basis.shape[0]
    v, val = coeff, value
    for _ in range(_REFINE_ITERS):
        res = _stationary_residual(d, basis, flavor, v, val)
        if res is None:
            break
        x = np.concatenate([v.real, v.imag])
        probes = _u_to_coeffs(x + _REFINE_STEP * np.eye(2 * m), m)
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        cols = [_stationary_residual(d, basis, flavor, u, t)
                for u, t in zip(probes, evaluate(probes))]
        if any(c is None for c in cols):
            break
        jac = (np.array(cols).T - res[:, None]) / _REFINE_STEP
        x = x + np.linalg.lstsq(jac, -res, rcond=_REFINE_RCOND)[0]
        v_new = _u_to_coeffs(x, m) / np.linalg.norm(x)
        new_val = float(evaluate(v_new[None])[0])
        # exits without a closed form carry bisection noise up to 1e-12, so
        # the divergence gate sits well above it
        if new_val > val + 1e-9:
            break
        step = np.linalg.norm(v_new - v)
        v, val = v_new, new_val
        if step < 1e-14:
            break
    return v, val


# -- frame construction ------------------------------------------------------

def _circular(d: DomainSpec) -> bool:
    """Whether d is invariant under z -> e^{it} z: the catalog bodies and
    their images under a linear composite map (no offset, no denominator)."""
    hom = d._hom
    return d._body.kind in CATALOG_KINDS and not hom[0, 1:].any() and not hom[1:, 0].any()


def build_frame(d: DomainSpec, seed=0, n_starts=None) -> ContactFrame:
    """Stagewise minimal boundary contacts over shrinking complex subspaces.

    Contacts of circular domains are phase-normalized once all stages ran:
    each is rotated so that its first coordinate above 1e-9 of its largest is
    real positive.  Raises FrameDegenerateError if a stage radius collapses
    below 1e-9, and validates contact orthogonality, the nondecreasing radius
    ladder, and that every contact sits on the boundary bracket of its ray.
    """
    _check_counts(seed=seed, n_starts=n_starts)
    if not contains(d, np.zeros(d.n, dtype=complex)):
        raise ArgumentError("frame construction requires the origin inside the domain")
    contacts = []
    radii = []
    bases = []
    flags = []
    for stage in range(d.n):
        if stage == 0:
            basis = np.eye(d.n, dtype=complex)
        else:
            basis = orthonormal_complement(contacts, n=d.n)
        bases.append(basis)
        res = min_boundary_point(d, basis, n_starts=n_starts, seed=_stream(seed, stage))
        if res.radius < 1e-9:
            raise FrameDegenerateError(f"stage {stage} radius {res.radius:.3e} collapsed")
        contacts.append(res.radius * res.direction)
        radii.append(res.radius)
        flags.extend(f"stage{stage}:{f}" for f in res.flags)

    contacts = np.array(contacts)
    radii = np.array(radii)
    if _circular(d):
        # every phase of a contact is an equally close boundary point; rotate
        # after the stages so that the bases they searched stay as they were
        for c in contacts:
            mods = np.abs(c)
            lead = c[np.flatnonzero(mods > 1e-9 * mods.max())[0]]
            c *= np.conj(lead) / abs(lead)
    gram = contacts @ np.conj(contacts.T)
    off = gram - np.diag(np.diagonal(gram))
    if np.abs(off).max() > 1e-9 * radii.max() ** 2:
        raise FrameDegenerateError("contacts lost mutual orthogonality")
    if np.any(np.diff(radii) < -1e-9):
        raise FrameDegenerateError("stage radii decreased along the ladder")
    for j in range(d.n):
        unit = contacts[j] / radii[j]
        if not contains(d, (radii[j] - 1e-9) * unit):
            raise FrameDegenerateError(f"contact {j} is not an inner boundary bracket")
        # past the crossing a C-convex domain may re-enter, a convex one cannot
        if d.convexity_class == "convex" and contains(d, (radii[j] + 1e-9) * unit):
            raise FrameDegenerateError(f"contact {j} is not an outer boundary bracket")
    return ContactFrame(contacts=contacts, radii=radii, bases=tuple(bases),
                        search_flags=tuple(flags))


# -- normalizer --------------------------------------------------------------

def build_normalizer(d: DomainSpec, frame: ContactFrame, samples=1000, seed=0) -> Normalizer:
    """Assemble T from the contacts and A from transported tangent hyperplanes.

    The tangent flavor follows the declared class: real supporting hyperplanes
    for convex domains (pivot must come out real-positive), complex avoiding
    hyperplanes for C-convex ones.  All n functionals are checked on one draw
    of `samples` interior points (stream (seed, 21)) in the normalized form
    w_j = <z, lam_j>/value_j: a convex domain keeps Re w_j < 1, a C-convex one
    w_j != 1, up to CLEARANCE_TOL, or ValidationFailureError is raised; the
    least 1 - Re w_j or |w_j - 1| is the `hyperplane_clearance` margin.
    Transported coefficients above the pivot
    must vanish within TRIANGULAR_TOL; subdiagonal entries of A must stay
    inside the closed unit disc within ALPHA_TOL.
    """
    n = frame.n
    if n != d.n:
        raise ArgumentError("frame dimension does not match the domain")
    _check_counts(samples=samples, seed=seed)
    t_entries = np.conj(frame.contacts) / (frame.radii**2)[:, None]
    t_inv_entries = frame.contacts.T.copy()
    t_residual = float(np.abs(t_entries @ t_inv_entries - np.eye(n)).max())
    if t_residual > 1e-8:
        raise TriangularityError(f"contact matrix inverse residual {t_residual:.3e}")

    flavor = "real_supporting" if d.convexity_class == "convex" else "complex_avoiding"
    functionals = tuple(tangent_functional(d, a, flavor) for a in frame.contacts)
    hyperplanes = np.array([np.conj(tf.coefficients) / tf.value for tf in functionals])
    rng = np.random.default_rng(_stream(seed, 21))
    imgs = interior_samples(d, samples, rng) @ hyperplanes.T
    if flavor == "real_supporting":
        clear, floor = 1.0 - imgs.real, -CLEARANCE_TOL
    else:
        clear, floor = np.abs(imgs - 1.0), CLEARANCE_TOL
    violations = int(np.count_nonzero(clear <= floor))
    if violations:
        raise ValidationFailureError(
            f"{violations}/{imgs.size} normalized interior images violate the {flavor} invariant")

    pullback = np.conj(t_inv_entries).T
    rows = np.zeros((n, n), dtype=complex)
    tri_resid = 0.0
    pivot_imag = 0.0
    alpha_max = 0.0
    for j, tf in enumerate(functionals):
        mu = pullback @ tf.coefficients
        scale = np.linalg.norm(mu)
        if scale == 0.0:
            raise TriangularityError(f"transported functional {j} vanished")
        tail = np.abs(mu[j + 1:]).max() / scale if j + 1 < n else 0.0
        tri_resid = max(tri_resid, tail)
        if tail > TRIANGULAR_TOL:
            raise TriangularityError(
                f"row {j}: coefficients past the pivot reach {tail:.3e} of the norm")
        pivot = mu[j]
        if abs(pivot) <= TRIANGULAR_TOL * scale:
            raise TriangularityError(f"row {j}: pivot vanished")
        if flavor == "real_supporting":
            rel_imag = abs(pivot.imag) / abs(pivot)
            pivot_imag = max(pivot_imag, rel_imag)
            if rel_imag > TRIANGULAR_TOL or pivot.real <= 0.0:
                raise TriangularityError(
                    f"row {j}: supporting pivot {pivot:.3e} is not real-positive")
            pivot = complex(pivot.real)
        row = np.conj(mu / pivot)
        if j:
            alpha_row = float(np.abs(row[:j]).max())
            alpha_max = max(alpha_max, alpha_row)
            if alpha_row > 1.0 + ALPHA_TOL:
                raise AlphaBoundError(
                    f"row {j}: subdiagonal modulus {alpha_row:.12f} exceeds 1")
        rows[j, :j] = row[:j]
        rows[j, j] = 1.0

    margins = {
        "t_inverse_residual": t_residual,
        "triangularity_residual": tri_resid,
        "pivot_imag_residual": pivot_imag,
        "alpha_max": alpha_max,
        "hyperplane_clearance": float(clear.min()),
    }
    return Normalizer(
        frame=frame,
        t_matrix=CMatrix(t_entries),
        t_inverse=CMatrix(t_inv_entries),
        a_matrix=unit_lower(rows),
        functionals=functionals,
        margins=margins,
    )


# -- serialization -----------------------------------------------------------

def frame_to_json(frame: ContactFrame) -> dict:
    return {
        "contacts": _pairs(frame.contacts),
        "radii": [float(r) for r in frame.radii],
        "search_flags": list(frame.search_flags),
    }


def normalizer_to_json(norm: Normalizer) -> dict:
    return {
        "frame": frame_to_json(norm.frame),
        "t_matrix": _pairs(norm.t_matrix.entries),
        "t_inverse": _pairs(norm.t_inverse.entries),
        "a_matrix": _pairs(norm.a_matrix.entries),
        "functionals": [
            {
                "point": _pairs(tf.point),
                "coefficients": _pairs(tf.coefficients),
                "flavor": tf.flavor,
                "value": _pairs(tf.value),
            }
            for tf in norm.functionals
        ],
        "margins": dict(norm.margins),
    }
