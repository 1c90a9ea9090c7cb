"""Tests for the property suites and the empirical infimum probe."""
import dataclasses
import json

import numpy as np
import pytest

from squeezecert import verify as verify_module
from squeezecert.domains import polydisc, projective_image
from squeezecert.errors import ArgumentError
from squeezecert.numerics import universal_bounds
from squeezecert.verify import (
    KAPPA_FAMILIES,
    KappaProbeReport,
    SuiteReport,
    _shear_stack,
    default_strictness_fixtures,
    kappa_probe,
    suite_lemmas,
    suite_star,
    suite_strictness,
)


@pytest.fixture(scope="module")
def star_report():
    return suite_star(dims=(2, 3, 4, 5), trials=25, seed=0)


@pytest.fixture(scope="module")
def lemma_report():
    return suite_lemmas(dims=(2, 3), trials=10, samples=100, seed=0)


@pytest.fixture(scope="module")
def strictness_report():
    return suite_strictness(seed=0, samples=600, rays=2000)


# -- coefficient suite --------------------------------------------------------

def test_star_green(star_report):
    assert star_report.violations == 0
    assert star_report.suite == "star"
    assert star_report.dims == (2, 3, 4, 5)


def test_star_equality_attained(star_report):
    # saturating cases keep the worst margin pinned at zero without crossing
    assert abs(star_report.worst_margin) < 1e-12
    # alone, the all-(-1) shear with the all-ones sample attains equality
    solo = suite_star(dims=(9,), trials=1, seed=0)
    assert abs(solo.worst_margin) < 1e-12
    assert solo.worst_case["trial"] == 0


def test_star_symbolic_dimension_cap():
    rep = suite_star(dims=(8,), trials=1, seed=0)
    assert rep.violations == 0


def test_star_rejects_bad_dims():
    with pytest.raises(ArgumentError):
        suite_star(dims=(1, 2))
    with pytest.raises(ArgumentError):
        suite_star(dims=(17,))
    with pytest.raises(ArgumentError):
        suite_star(dims=())
    with pytest.raises(ArgumentError):
        suite_star(dims=(2,), trials=0)
    with pytest.raises(ArgumentError, match="seed"):
        suite_star(dims=(2,), trials=1, seed=-1)
    with pytest.raises(ArgumentError, match="seed"):
        suite_star(dims=(2,), trials=1, seed=0.5)


@pytest.mark.parametrize("dims", [(2.7,), ("3",), (2, 3.0)])
def test_suites_refuse_non_integer_dims(dims):
    with pytest.raises(ArgumentError, match="dimensions must be integers"):
        suite_star(dims=dims, trials=1)
    with pytest.raises(ArgumentError, match="dimensions must be integers"):
        suite_lemmas(dims=dims, trials=1, samples=10)


def test_star_deterministic(star_report):
    again = suite_star(dims=(2, 3, 4, 5), trials=25, seed=0)
    assert json.dumps(again.as_dict(), sort_keys=True) == \
        json.dumps(star_report.as_dict(), sort_keys=True)


def test_star_seed_changes_cases():
    # two seeds draw different shears in every trial but the fixed all-(-1)
    # trial 0; the worst margin cannot tell them apart, as both 5-trial runs
    # have the symbolic count at 0.0 as their worst case
    a, _ = _shear_stack(1, (3,), 3, 5, rows=8)
    b, _ = _shear_stack(2, (3,), 3, 5, rows=8)
    assert np.array_equal(a[0], b[0])
    lower = np.tril_indices(3, -1)
    for i in range(1, 5):
        assert (a[i][lower] != b[i][lower]).all()


# -- containment lemma suite --------------------------------------------------

def test_lemmas_green(lemma_report):
    assert lemma_report.violations == 0
    assert lemma_report.suite == "lemmas"


def test_lemmas_tight_somewhere(lemma_report):
    # the all-(-1) shear's closed-form margins are exactly zero, which the
    # outward rounding puts just below zero, far above the violation floor
    assert -1e-13 <= lemma_report.worst_margin <= 0.0
    assert lemma_report.worst_case["trial"] == 0


def test_lemmas_rejects_bad_args():
    with pytest.raises(ArgumentError):
        suite_lemmas(dims=(2,), trials=0)
    with pytest.raises(ArgumentError):
        suite_lemmas(dims=(2,), samples=0)
    with pytest.raises(ArgumentError, match="seed"):
        suite_lemmas(dims=(2,), trials=1, seed=-1)
    with pytest.raises(ArgumentError, match="trials"):
        suite_lemmas(dims=(2,), trials=2.5)
    with pytest.raises(ArgumentError):
        suite_lemmas(dims=(1,))


def test_lemmas_deterministic(lemma_report):
    again = suite_lemmas(dims=(2, 3), trials=10, samples=100, seed=0)
    assert json.dumps(again.as_dict(), sort_keys=True) == \
        json.dumps(lemma_report.as_dict(), sort_keys=True)


# -- strictness suite ---------------------------------------------------------

def test_strictness_green(strictness_report):
    assert strictness_report.violations == 0
    assert strictness_report.trials == len(default_strictness_fixtures())


def test_strictness_gaps_are_wide(strictness_report):
    # every fixture keeps a visible distance between witness and certificate;
    # the worst margin is a genuine gap, not a numerical whisker
    assert strictness_report.worst_margin > 0.01
    assert strictness_report.worst_case["check"] in {
        "row_saturation_gap", "ball_gap", "polydisc_gap"}


def test_strictness_reports_missing_witness():
    proj = projective_image(polydisc(2), np.eye(2), np.zeros(2),
                            [2.0, -1.0, 0.0], bounding_radius=10.0)
    rep = suite_strictness(fixtures=(("proj", proj, "cconvex"),),
                           seed=0, samples=400, rays=800)
    assert rep.violations == 1
    assert rep.worst_margin == -1.0
    assert rep.worst_case == {"check": "witness_missing", "fixture": "proj"}


def test_strictness_rejects_empty():
    with pytest.raises(ArgumentError):
        suite_strictness(fixtures=())


def test_report_shape(star_report):
    assert isinstance(star_report, SuiteReport)
    d = star_report.as_dict()
    assert set(d) == {"suite", "dims", "trials", "seed", "violations",
                      "worst_margin", "worst_case"}


# -- kappa probe --------------------------------------------------------------

def test_kappa_families_constant():
    assert KAPPA_FAMILIES == ("shears", "projective", "base_points")


def test_kappa_rejects_bad_args():
    with pytest.raises(ArgumentError):
        kappa_probe("rotations")
    with pytest.raises(ArgumentError):
        kappa_probe("shears", budget=0)
    with pytest.raises(ArgumentError, match="seed"):
        kappa_probe("shears", budget=1, seed=-1)


@pytest.mark.parametrize("run", [
    lambda seed: suite_star(dims=(2,), trials=1, seed=seed),
    lambda seed: suite_lemmas(dims=(2,), trials=1, samples=10, seed=seed),
    lambda seed: suite_strictness(seed=seed, samples=100, rays=100),
    lambda seed: kappa_probe("shears", budget=1, seed=seed),
], ids=["star", "lemmas", "strictness", "kappa"])
def test_reported_seeds_refuse_a_seed_sequence(run):
    # the reports carry the seed as an integer
    with pytest.raises(ArgumentError, match="seed must be a non-negative integer"):
        run(np.random.SeedSequence(0))


def test_kappa_base_points():
    rep = kappa_probe("base_points", n=2, budget=3, seed=0)
    consts = universal_bounds(2)
    assert isinstance(rep, KappaProbeReport)
    assert rep.convexity_class == "convex"
    assert (rep.universal_s, rep.universal_s_hat) == (consts.convex_ball, consts.convex_polydisc)
    assert rep.witness_runs == 3
    assert rep.min_witness_s > rep.universal_s
    assert rep.min_witness_s_hat > rep.universal_s_hat
    assert {"index", "params", "domain", "witness_s", "witness_s_hat"} <= set(rep.argmin)
    # the class constants appear once, as universal_s and universal_s_hat
    assert not any(key.startswith("min_certified") for key in rep.as_dict())


def test_kappa_shears_deterministic():
    rep = kappa_probe("shears", n=2, budget=2, seed=3)
    again = kappa_probe("shears", n=2, budget=2, seed=3)
    assert rep.min_witness_s > rep.universal_s
    assert json.dumps(rep.as_dict(), sort_keys=True) == \
        json.dumps(again.as_dict(), sort_keys=True)


def test_kappa_argmin_holds_when_a_tied_member_moves_by_rounding(monkeypatch):
    # the shears at n = 2 all sit at the half-plane cap to rounding; moving
    # a later tied member one ulp below the least makes it the exact minimum
    # but leaves the argmin on the first member within a relative 1e-12
    witness, nudge = [], {}
    inner = verify_module.certify

    def certify(d, **kwargs):
        out = inner(d, **kwargs)
        if len(witness) in nudge:
            out = dataclasses.replace(out, witness_s=nudge[len(witness)])
        witness.append(out.witness_s)
        return out

    monkeypatch.setattr(verify_module, "certify", certify)
    rep = kappa_probe("shears", n=2, budget=8, seed=1)
    first = rep.argmin["index"]
    tied = [i for i, s in enumerate(witness)
            if i > first and s <= rep.min_witness_s * (1.0 + 1e-12)]
    assert tied
    nudge[tied[-1]] = float(np.nextafter(rep.min_witness_s, 0.0))
    witness.clear()
    moved = kappa_probe("shears", n=2, budget=8, seed=1)
    assert moved.min_witness_s == nudge[tied[-1]] < rep.min_witness_s
    assert moved.min_witness_s_hat == rep.min_witness_s_hat
    assert moved.argmin == rep.argmin


def test_kappa_projective_defaults_to_cconvex():
    rep = kappa_probe("projective", n=2, budget=2, seed=0)
    consts = universal_bounds(2)
    assert rep.convexity_class == "cconvex"
    assert (rep.universal_s, rep.universal_s_hat) == (consts.cconvex_ball,
                                                      consts.cconvex_polydisc)
    # a polydisc base under a projective map has no closed-form projection
    # disc, so no witness is built
    assert rep.witness_runs == 0
    assert rep.min_witness_s is None
    assert rep.argmin == {}
