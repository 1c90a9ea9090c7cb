"""Stacked property suites: each suite's trials run as one stack, checked
byte for byte against a trial-by-trial run of the same suites kept here as a
reference, which draws trial i's shear and sample rows from the dimension's
two streams one trial at a time and takes its shear slacks from a per-matrix
copy of the closed forms; each trial's draws do not depend on the trial count,
and a non-finite margin fails a suite."""

import json
import math

import numpy as np
import pytest

from squeezecert import verify
from squeezecert.cli import EXIT_PIPELINE, main
from squeezecert.numerics import (
    SYMBOLIC_CAP,
    _inverse_stack,
    _pairs,
    _shear_slacks,
    _stream,
    c_const,
    count_inverse_monomials,
    inverse_coefficients,
    unit_lower,
)
from squeezecert.planar import (
    half_plane,
    rho_radius_check,
    riemann_catalog,
    slit_plane,
    tau_radius_check,
    unit_disc,
)
from squeezecert.verify import RADIUS_PARAMETERS, SuiteReport, suite_lemmas, suite_star


# -- reference: one trial at a time -----------------------------------------

class _RefTracker:
    def __init__(self):
        self.violations = 0
        self.worst = math.inf
        self.case = {}

    def add(self, margin, case):
        margin = float(margin)
        if margin < verify.VIOLATION_TOL:
            self.violations += 1
        if margin < self.worst:
            self.worst = margin
            self.case = case


def _ref_alpha(n, rng):
    raw = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    mods = np.abs(raw)
    raw[mods > 1.0] /= mods[mods > 1.0]
    return np.tril(raw, -1) + np.eye(n)


def _all_minus_one(n):
    return np.tril(-np.ones((n, n)), -1) + np.eye(n)


def _ref_star(dims, trials, seed):
    track = _RefTracker()
    for n in dims:
        if n <= SYMBOLIC_CAP:
            counts = count_inverse_monomials(n)
            for j in range(n):
                for k in range(j):
                    expected = 2 ** (j - k - 1)
                    track.add(0.0 if counts[j, k] == expected else -1.0,
                              {"check": "symbolic_count", "n": n, "j": j, "k": k,
                               "count": int(counts[j, k])})
        bound = np.zeros((n, n))
        for j in range(n):
            bound[j, :j] = 2.0 ** (j - np.arange(j) - 1)
        weights = 2.0 ** (n - 1 - np.arange(n))
        shears = np.random.default_rng(_stream(seed, n))
        rows = np.random.default_rng(_stream(seed, n, 1))
        for trial in range(trials):
            # trial 0 takes its slice of the draws too, then the all-(-1) shear
            drawn = _ref_alpha(n, shears)
            alpha = _all_minus_one(n) if trial == 0 else drawn
            inv = inverse_coefficients(unit_lower(alpha)).entries
            coeff_margin = float(np.min(
                (bound - np.abs(np.tril(inv, -1))) / np.maximum(1.0, bound)))
            track.add(coeff_margin,
                      {"check": "coefficient_bound", "n": n, "trial": trial,
                       "alpha": _pairs(alpha)})
            z = rows.normal(size=(8, 2 * n)).view(complex)
            if trial == 0:
                z[0] = 1.0
            lhs = np.abs(z @ inv.T).sum(axis=1)
            rhs = np.abs(z) @ weights
            bound_margin = float(np.min((rhs - lhs) / (1.0 + rhs)))
            track.add(bound_margin,
                      {"check": "weighted_bound", "n": n, "trial": trial,
                       "alpha": _pairs(alpha)})
    return SuiteReport(suite="star", dims=tuple(dims), trials=trials, seed=seed,
                       violations=track.violations, worst_margin=track.worst,
                       worst_case=track.case)


def _ref_shear_slacks(inv):
    """The per-matrix slacks as `numerics._shear_slacks` computed them before
    it took stacks, kept here as an independent reference."""
    mods = np.abs(np.asarray(inv, dtype=complex))
    n = mods.shape[0]
    sups = (math.fsum(mods.ravel()) / (2.0**n - 1.0),
            math.hypot(*(math.fsum(col) for col in mods.T)) / c_const(n))
    inflate = 1.0 + 8 * n * np.finfo(float).eps
    return tuple(float(np.nextafter(1.0 - inflate * sup, -np.inf)) for sup in sups)


def _ref_lemmas(dims, trials, samples, seed):
    track = _RefTracker()
    for n in dims:
        shears = np.random.default_rng(_stream(seed, 3, n))
        for trial in range(trials):
            drawn = _ref_alpha(n, shears)
            alpha = _all_minus_one(n) if trial == 0 else drawn
            inv = inverse_coefficients(unit_lower(alpha)).entries
            for label, slack in zip(("polydisc_in_shear", "ball_in_shear"),
                                    _ref_shear_slacks(inv)):
                track.add(slack, {"check": label, "n": n, "trial": trial,
                                  "alpha": _pairs(alpha)})
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
    return SuiteReport(suite="lemmas", dims=tuple(dims), trials=trials, seed=seed,
                       violations=track.violations, worst_margin=track.worst,
                       worst_case=track.case)


def _dump(report):
    return json.dumps(report.as_dict())


# -- the stacked suites equal the reference ---------------------------------

# trials 1 runs the all-(-1) shear alone, trials 2 adds one random trial
RUNS = [((n,), trials) for n in (2, 3, 4, 5, 9, 16) for trials in (1, 2)] + [((2, 3, 4, 5), 40)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dims,trials", RUNS)
def test_star_equals_the_trial_by_trial_reference(dims, trials, seed):
    assert _dump(suite_star(dims=dims, trials=trials, seed=seed)) == \
        _dump(_ref_star(dims, trials, seed))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dims,trials", RUNS)
def test_lemmas_equal_the_trial_by_trial_reference(dims, trials, seed):
    assert _dump(suite_lemmas(dims=dims, trials=trials, samples=3, seed=seed)) == \
        _dump(_ref_lemmas(dims, trials, 3, seed))


# -- one shear stream and one sample stream per dimension ------------------

@pytest.mark.parametrize("n", [2, 5, 16])
def test_shear_stack_prefix_is_the_shorter_stack(n):
    alpha, z = verify._shear_stack(7, (n,), n, 2500, rows=8)
    head, head_z = verify._shear_stack(7, (n,), n, 40, rows=8)
    assert np.array_equal(head.view(np.uint64), alpha[:40].view(np.uint64))
    assert np.array_equal(head_z.view(np.uint64), z[:40].view(np.uint64))


def _drawn_streams(monkeypatch, run):
    """The streams `run` asks `verify._stream` for, as generate_state words."""
    states = []

    def stream(*args):
        seq = _stream(*args)
        states.append(tuple(seq.generate_state(4)))
        return seq
    monkeypatch.setattr(verify, "_stream", stream)
    run()
    return states


@pytest.mark.parametrize("seed", [0, 3])
def test_suite_streams_are_distinct(monkeypatch, seed):
    # the shear and sample streams of every dimension, the radius checks'
    # streams (seed, 5, n, ci), (seed, 6, n, ci) and (seed, 7, n) of the
    # lemma suite, across both suites at one seed
    dims = tuple(range(2, 17))
    shear_stacks = _drawn_streams(
        monkeypatch, lambda: [verify._shear_stack(seed, keys, n, 2, rows=1)
                              for n in dims for keys in ((n,), (3, n))])
    assert len(shear_stacks) == 4 * len(dims)
    states = _drawn_streams(monkeypatch, lambda: (
        suite_star(dims=dims, trials=2, seed=seed),
        suite_lemmas(dims=dims, trials=2, samples=1, seed=seed)))
    assert set(shear_stacks) <= set(states)
    assert len(states) == len(dims) * (2 + 2 + 3 + 3 + 1)
    assert len(set(states)) == len(states)


def _ref_inverse(alpha):
    n = alpha.shape[0]
    inv = np.zeros((n, n), dtype=complex)
    for j in range(n):
        inv[j, j] = 1.0
        for k in range(j - 1, -1, -1):
            inv[j, k] = -np.dot(alpha[j, k:j], inv[k:j, k])
    return inv


@pytest.mark.parametrize("n", range(2, 17))
def test_inverse_stack_rounds_as_the_per_matrix_recursion(n):
    rng = np.random.default_rng(n)
    raw = rng.uniform(-1, 1, (20, n, n)) + 1j * rng.uniform(-1, 1, (20, n, n))
    alpha = np.tril(raw, -1) + np.eye(n)
    alpha[0] = _all_minus_one(n)
    stacked = _inverse_stack(alpha)
    for a, inv in zip(alpha, stacked):
        ref = _ref_inverse(a)
        assert np.array_equal(inv.view(np.uint64), ref.view(np.uint64))
        assert np.array_equal(inverse_coefficients(unit_lower(a)).entries.view(np.uint64),
                              ref.view(np.uint64))


# -- the stacked shear slacks round as the per-matrix reference --------------

def _slack_stack(n):
    """200 inverses: suite-drawn shears, the identity, the all-(-1) shear and
    shears with entries past the unit disc."""
    alpha, _ = verify._shear_stack(11, (3, n), n, 200)
    alpha[1] = np.eye(n)
    alpha[2] = _all_minus_one(n)
    rng = np.random.default_rng(n)
    past = rng.uniform(1.0, 3.0, (20, n, n)) * np.exp(2j * np.pi * rng.uniform(size=(20, n, n)))
    alpha[3:23] = np.tril(past, -1) + np.eye(n)
    return _inverse_stack(alpha)


@pytest.mark.parametrize("n", range(2, 9))
def test_stacked_shear_slacks_equal_the_per_matrix_reference(n):
    inv = _slack_stack(n)
    ref = np.array([_ref_shear_slacks(m) for m in inv])
    assert np.array_equal(_shear_slacks(inv).view(np.uint64), ref.view(np.uint64))
    # the stack past the unit disc has failing slacks, the identity none
    assert (ref[3:23] < 0).any() and (ref[1] > 0).all()


@pytest.mark.parametrize("n", [2, 5])
def test_shear_slacks_shapes(n):
    inv = _slack_stack(n)
    assert _shear_slacks(inv[0]).shape == (2,)
    assert _shear_slacks(inv).shape == (200, 2)
    assert _shear_slacks(inv[:0]).shape == (0, 2)
    assert _shear_slacks(inv.reshape(4, 50, n, n)).shape == (4, 50, 2)
    assert np.array_equal(_shear_slacks(inv[7]).view(np.uint64),
                          _shear_slacks(inv)[7].view(np.uint64))


# -- a non-finite margin is a violation and the worst case -------------------

def _nan_at_trial(bad):
    """`_shear_slacks` with a NaN polydisc slack at row `bad` of the stack."""
    def slacks(inv):
        out = _shear_slacks(inv)
        out[bad, 0] = math.nan
        return out
    return slacks


def test_a_nan_margin_fails_the_lemma_suite(monkeypatch):
    monkeypatch.setattr(verify, "_shear_slacks", _nan_at_trial(1))
    rep = suite_lemmas(dims=(3,), trials=3, samples=5, seed=0)
    assert rep.violations >= 1
    assert math.isnan(rep.worst_margin)
    assert rep.worst_case["check"] == "polydisc_in_shear"
    assert rep.worst_case["trial"] == 1


@pytest.mark.parametrize("margins,worst_at", [
    ([0.5, math.nan, -0.3, math.nan], 1),
    ([0.5, -0.3, math.inf], 2),
    ([0.5, -math.inf, math.nan], 1),
    ([0.5, -0.3, -0.3], 1),
])
def test_tracker_ranks_faults_first_and_counts_them(margins, worst_at):
    track = verify._Tracker()
    track.add(-0.2, "earlier")
    track.extend(margins, lambda i: i)
    assert track.case == worst_at
    assert track.violations == 1 + sum(
        not (math.isfinite(m) and m >= verify.VIOLATION_TOL) for m in margins)
    # a fault stays the worst case; a later lower finite margin does not replace it
    track.add(-5.0, "later")
    assert track.case == (worst_at if not math.isfinite(margins[worst_at]) else "later")


def test_cli_exits_two_on_a_nan_margin(monkeypatch, capsys):
    monkeypatch.setattr(verify, "_shear_slacks", _nan_at_trial(1))
    rc = main(["verify", "--suite", "lemmas", "--n", "2", "--trials", "3",
               "--samples", "5"])
    out, err = capsys.readouterr()
    assert rc == EXIT_PIPELINE
    assert json.loads(out)["result"]["violations"] >= 1
    assert "suite lemmas reported" in err


def test_cli_names_the_suite_with_the_fault(monkeypatch, capsys):
    # the faulty suite's worst margin is NaN; the green suite must not be named
    monkeypatch.setattr(verify, "_shear_slacks", _nan_at_trial(1))
    rc = main(["verify", "--n", "2", "--trials", "3", "--samples", "5"])
    out, err = capsys.readouterr()
    assert rc == EXIT_PIPELINE
    assert "suite lemmas reported" in err
