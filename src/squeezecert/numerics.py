"""Scalar constants and the triangular linear algebra behind the normal forms.

Everything in this module is exact-formula territory: the universal constants
are closed forms in the dimension, and the inverse of a unit lower triangular
matrix is computed by the forward recursion rather than generic elimination so
its coefficients can be compared term by term with their combinatorial
expansion.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import asdict, astuple, dataclass, fields
from fractions import Fraction

import numpy as np

from .errors import ArgumentError, RankDeficiencyError

# Absolute tolerance for complex comparisons throughout the package.
ABS_TOL = 1e-12

# Relative singular value below which input vectors count as dependent.
_RANK_RTOL = 1e-12

# 4**n has to stay below double overflow for c_const.
DIMENSION_CAP = 512

# Largest coefficient of the symbolic expansion carries 2**(n-2) terms.
SYMBOLIC_CAP = 8

# least value of the integer run arguments that may be 0 (no spot check,
# canonical frame starts only); every other count must be positive
_LEAST = {"seed": 0, "spot_trials": 0, "n_starts": 0}


def _check_counts(*, streams=True, **values):
    """Raise ArgumentError unless each named run argument is an integer (not a
    bool) at or above its least value; n_starts may also be None, the frame's
    default, and a seed a numpy SeedSequence, a stream derived by `_stream`,
    unless `streams` is false: the entry points whose reports carry the seed
    as an integer refuse one."""
    for name, value in values.items():
        if (value is None and name == "n_starts") or (
                streams and name == "seed" and isinstance(value, np.random.SeedSequence)):
            continue
        least = _LEAST.get(name, 1)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            kind = "non-negative" if least == 0 else "positive"
            raise ArgumentError(f"{name} must be a {kind} integer, got {value!r}")


def _stream(seed, *keys) -> np.random.SeedSequence:
    """Stream `keys` of a run seed: the entropy (seed, *keys) for an integer,
    the spawn key extended by `keys` for a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + keys,
                                      pool_size=seed.pool_size)
    return np.random.SeedSequence(entropy=(seed, *keys))


def _check_dimension(n) -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ArgumentError(f"dimension must be an integer, got {n!r}")
    n = int(n)
    if n < 2:
        raise ArgumentError(f"dimension must be at least 2, got {n}")
    if n > DIMENSION_CAP:
        raise ArgumentError(f"dimension {n} exceeds the overflow cap {DIMENSION_CAP}")
    return n


def c_const(n) -> float:
    """sqrt((4**n - 1)/3): the ball-target containment constant in dimension n."""
    n = _check_dimension(n)
    # (4**n - 1)/3 is an exact integer, so the sqrt is correctly rounded.
    return math.sqrt((4**n - 1) // 3)


def tau(c) -> float:
    """c / (2 + c) for 0 < c < 1: radius retained through half-plane disc maps."""
    c = float(c)
    if not 0.0 < c < 1.0:
        raise ArgumentError(f"tau requires 0 < c < 1, got {c}")
    return c / (2.0 + c)


def rho(c) -> float:
    """c / (1 + sqrt(1 + c))**2 for 0 < c <= 1: radius retained through general disc maps."""
    c = float(c)
    if not 0.0 < c <= 1.0:
        raise ArgumentError(f"rho requires 0 < c <= 1, got {c}")
    return c / (1.0 + math.sqrt(1.0 + c)) ** 2


@dataclass(frozen=True)
class UniversalConstants:
    """Universal squeezing lower bounds in one dimension.

    `convex_*` are the bounds for convex domains, `cconvex_*` the sharper-form
    bounds for C-convex domains, and `weak_*` the simplified strictly smaller
    C-convex bounds.  `*_ball` bounds the ball-target squeezing function,
    `*_polydisc` the polydisc-target one.
    """

    n: int
    c_n: float
    convex_ball: float
    convex_polydisc: float
    cconvex_ball: float
    cconvex_polydisc: float
    weak_ball: float
    weak_polydisc: float

    def as_dict(self) -> dict:
        return asdict(self)


def universal_bounds(n) -> UniversalConstants:
    """Evaluate all six universal lower bounds in dimension n >= 2, each the
    largest double at or below its exact value (1 over a rational upper bound
    of its denominator); `c_n` is correctly rounded."""
    n = _check_dimension(n)
    k, two_n = (4**n - 1) // 3, 2**n
    c, rn = _sqrt_up(k), _sqrt_up(n)
    return UniversalConstants(
        n=n,
        c_n=c_const(n),
        convex_ball=_down(1 / (rn * (2 * c + 1))),
        convex_polydisc=_down(Fraction(1, 2 * two_n - 1)),
        # (sqrt(c) + sqrt(c + 1))^2 = 2c + 1 + 2 sqrt(c^2 + c), with c^2 = k
        cconvex_ball=_down(1 / (rn * (2 * c + 1 + 2 * _sqrt_up(k + c)))),
        cconvex_polydisc=_down(1 / (2 * two_n - 1 + 2 * _sqrt_up(two_n * (two_n - 1)))),
        weak_ball=_down(1 / (rn * (4 * c + 2))),
        weak_polydisc=_down(Fraction(1, 4 * two_n - 2)),
    )


def _sqrt_up(a) -> Fraction:
    """An upper bound of sqrt(a), for a rational a >= 0, within 2**-127."""
    a, scale = Fraction(a), 1 << 128
    return Fraction(math.isqrt(a.numerator * scale * scale // a.denominator) + 1, scale)


def _down(q) -> float:
    """The largest double <= q, for a rational q > 0."""
    x = float(q)
    return x if Fraction(x) <= q else math.nextafter(x, 0.0)


def constants_table(n_max) -> list[UniversalConstants]:
    n_max = _check_dimension(n_max)
    return [universal_bounds(n) for n in range(2, n_max + 1)]


def constants_csv(n_max) -> str:
    """CSV table of the universal constants for n in 2..n_max, one column per
    field of UniversalConstants.

    Reals carry 17 significant digits so every cell round-trips to the exact
    double.
    """
    lines = [",".join(f.name for f in fields(UniversalConstants))]
    for row in constants_table(n_max):
        lines.append(",".join(format(value, ".17g") for value in astuple(row)))
    return "\n".join(lines) + "\n"


def _frozen(value, dtype=complex) -> np.ndarray:
    """A read-only copy of `value`, so the caller's own array stays writable."""
    arr = np.array(value, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _freeze(obj, *names, dtype=complex):
    """Set each named field of a frozen dataclass to a read-only copy, or a
    tuple field to a tuple of them."""
    for name in names:
        value = getattr(obj, name)
        object.__setattr__(obj, name, tuple(_frozen(v, dtype) for v in value)
                           if isinstance(value, tuple) else _frozen(value, dtype))


def _pairs(z) -> list:
    """JSON form of complex values: each value becomes its [re, im] pair."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], -1).tolist()


def as_cvector(z, n=None) -> np.ndarray:
    """Coerce to a finite 1-d complex vector, optionally of prescribed length."""
    arr = np.asarray(z, dtype=complex)
    if arr.ndim != 1:
        raise ArgumentError(f"expected a vector, got array of shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ArgumentError(f"expected a vector of length {n}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ArgumentError("vector entries must be finite")
    return arr


@dataclass(frozen=True)
class CMatrix:
    """Square complex matrix with structural flags checked at construction.

    `lower_triangular` promises exact zeros above the diagonal and
    `unit_diagonal` exact ones on it.  The entry array is frozen so a flagged
    matrix cannot drift away from its promise.
    """

    entries: np.ndarray
    lower_triangular: bool = False
    unit_diagonal: bool = False

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ArgumentError(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ArgumentError("matrix entries must be finite")
        if self.lower_triangular and np.any(np.triu(arr, 1) != 0):
            raise ArgumentError("lower_triangular flag set but the strict upper part is nonzero")
        if self.unit_diagonal and np.any(np.diagonal(arr) != 1):
            raise ArgumentError("unit_diagonal flag set but the diagonal is not all ones")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def unit_lower(entries) -> CMatrix:
    """Build a flagged unit lower triangular CMatrix, snapping structural entries.

    Entries above the diagonal must vanish within ABS_TOL and the diagonal
    must be within ABS_TOL of one; both are then snapped exactly so the
    structural flags hold without qualification.
    """
    arr = np.array(entries, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ArgumentError(f"expected a square matrix, got shape {arr.shape}")
    n = arr.shape[0]
    upper = np.triu(arr, 1)
    if np.any(np.abs(upper) > ABS_TOL):
        raise ArgumentError("upper triangular part exceeds the snap tolerance")
    if np.any(np.abs(np.diagonal(arr) - 1.0) > ABS_TOL):
        raise ArgumentError("diagonal is not within snap tolerance of one")
    arr = np.tril(arr, -1)
    np.fill_diagonal(arr, 1.0)
    return CMatrix(arr, lower_triangular=True, unit_diagonal=True)


def inverse_coefficients(a: CMatrix) -> CMatrix:
    """Invert a unit lower triangular matrix by the forward recursion.

    inv[j, j] = 1 and inv[j, k] = -sum_{m=k}^{j-1} a[j, m] inv[m, k].  This is
    the recursion the symbolic expansion unrolls, so numeric and combinatorial
    coefficients agree entry by entry.
    """
    if not isinstance(a, CMatrix):
        raise ArgumentError("inverse_coefficients expects a CMatrix")
    if not (a.lower_triangular and a.unit_diagonal):
        raise ArgumentError("inverse_coefficients requires both structural flags set")
    return CMatrix(_inverse_stack(a.entries[None])[0], lower_triangular=True,
                   unit_diagonal=True)


def _inverse_stack(alpha) -> np.ndarray:
    """The forward recursion of `inverse_coefficients` on a stack (T, n, n) of
    unit lower triangular entry arrays, all T matrices one entry at a time.
    Each entry is one stacked `matmul` of a row slice by a column slice, which
    rounds as `np.dot` of the two slices of each matrix."""
    t, n, _ = alpha.shape
    inv = np.zeros((t, n, n), dtype=complex)
    for j in range(n):
        inv[:, j, j] = 1.0
        for k in range(j - 1, -1, -1):
            inv[:, j, k] = -(alpha[:, j, None, k:j] @ inv[:, k:j, k, None])[:, 0, 0]
    return inv


def _shear_slacks(inv) -> np.ndarray:
    """Slacks (..., 2), or (2,) for one matrix, in the l1 simplex of the polydisc
    of radius 1/(2^n - 1) and the ball of radius 1/c_n mapped by each B of a
    stack `inv` (..., n, n): 1 - sum |B_jk| / (2^n - 1) and 1 - ||column sums
    of |B|||_2 / c_n, lower bounds by the triangle inequality, exact on diagonal
    A and the all-(-1) shear.  Each matrix's sums run on its own Python floats,
    rounded outward by 8 n ulps and each slack by one more, as if it ran alone."""
    mods = np.abs(np.asarray(inv, dtype=complex))
    n, slacks = mods.shape[-1], np.empty(mods.shape[:-2] + (2,))
    divs, inflate = (2.0**n - 1.0, c_const(n)), 1.0 + 8 * n * math.ulp(1.0)
    for row, m in zip(slacks.reshape(-1, 2), mods.reshape(-1, n, n)):
        sups = (math.fsum(m.ravel().tolist()), math.hypot(*map(math.fsum, m.T.tolist())))
        row[:] = [math.nextafter(1.0 - inflate * (s / d), -math.inf) for s, d in zip(sups, divs)]
    return slacks


def solve_unit_lower(a: CMatrix, rhs) -> np.ndarray:
    """Solve a w = rhs by forward substitution; rhs may be a batch (..., n)."""
    if not (a.lower_triangular and a.unit_diagonal):
        raise ArgumentError("solve_unit_lower requires both structural flags set")
    alpha = a.entries
    n = a.n
    w = np.array(rhs, dtype=complex)
    if w.shape[-1] != n:
        raise ArgumentError(f"rhs trailing dimension {w.shape[-1]} does not match n={n}")
    for j in range(1, n):
        w[..., j] -= w[..., :j] @ alpha[j, :j]
    return w


def expand_inverse_monomials(n) -> dict:
    """Expand each inverse coefficient of a generic unit lower triangular matrix.

    Returns a dict mapping 0-based (j, k) with j >= k to a list of signed
    monomials (sign, factors), where factors is a tuple of (row, col) entry
    indices.  Distinct factor tuples stay distinct, so list lengths count
    monomials.  Capped at n <= SYMBOLIC_CAP.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ArgumentError(f"dimension must be an integer >= 2, got {n!r}")
    if n > SYMBOLIC_CAP:
        raise ArgumentError(f"symbolic expansion capped at n <= {SYMBOLIC_CAP}, got {n}")
    terms = {(k, k): [(1, ())] for k in range(n)}
    for j in range(1, n):
        for k in range(j - 1, -1, -1):
            out = []
            for m in range(k, j):
                for sign, factors in terms[(m, k)]:
                    out.append((-sign, ((j, m),) + factors))
            terms[(j, k)] = out
    return terms


def count_inverse_monomials(n) -> np.ndarray:
    """Monomial counts of the symbolic inverse, as an integer (n, n) array."""
    terms = expand_inverse_monomials(n)
    counts = np.zeros((n, n), dtype=np.int64)
    for (j, k), monomials in terms.items():
        counts[j, k] = len(monomials)
    return counts


def evaluate_monomials(terms, alpha) -> complex:
    """Evaluate a signed monomial list at a concrete matrix of entries."""
    total = 0.0 + 0.0j
    for sign, factors in terms:
        prod = complex(sign)
        for j, m in factors:
            prod *= alpha[j, m]
        total += prod
    return total


def orthonormal_complement(vectors, n=None) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the given vectors.

    Orthogonality is with respect to the standard Hermitian inner product
    sum z_k * conj(w_k).  Input vectors are rows of the returned complement's
    annihilated space; the result has shape (n - j, n) with orthonormal rows.
    Raises RankDeficiencyError if the inputs are dependent within tolerance.
    """
    vecs = [as_cvector(v, n) for v in vectors]
    if not vecs:
        if n is None:
            raise ArgumentError("empty input requires explicit n")
        return np.eye(n, dtype=complex)
    mat = np.array(vecs, dtype=complex)
    j, dim = mat.shape
    if j > dim:
        raise ArgumentError(f"more vectors ({j}) than the ambient dimension ({dim})")
    # v is orthogonal to all a_i iff conj(mat) @ v = 0.
    u, s, vh = np.linalg.svd(np.conj(mat))
    scale = s[0] if s.size else 0.0
    if scale == 0.0 or s[-1] <= _RANK_RTOL * scale:
        raise RankDeficiencyError("input vectors are dependent within tolerance")
    comp = np.conj(vh[j:])
    gram = comp @ np.conj(comp.T)
    if not np.allclose(gram, np.eye(dim - j), atol=1e-12):
        raise RankDeficiencyError("complement basis failed the orthonormality check")
    return comp
