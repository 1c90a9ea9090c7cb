"""Replay the property suites at desk scale and probe a family infimum.

The suites re-derive each certified layer on random instances; a clean run
prints zero violations with the worst margin hugging zero, since the tight
cases are part of every suite.  The lemma suite's shear margins are closed
forms rounded outward, so its worst margin, the all-(-1) shear's, sits
within about 1e-14 below zero, far above the -1e-10 violation floor.  The probe sweeps sheared polydiscs
and reports the smallest witness it saw, which never dips under the
certified floor.  Every sheared polydisc is biholomorphic to the bidisc, so
its squeezing function is 1/sqrt(2) everywhere: the gap between the known
value and the smallest witness measures the witness construction, whose
half-plane maps cap every balanced domain at 1/(3 sqrt 2).
"""
import math

from squeezecert.verify import kappa_probe, suite_lemmas, suite_star, suite_strictness


def show(report):
    print(f"suite {report.suite}: {report.violations} violations, "
          f"worst margin {report.worst_margin:.3e}")
    print(f"   worst case {report.worst_case}")
    print()


show(suite_star(dims=(2, 3, 4), trials=60, seed=0))
show(suite_lemmas(dims=(2, 3), trials=30, samples=400, seed=0))
show(suite_strictness(seed=0, samples=600, rays=2000))

probe = kappa_probe("shears", n=2, budget=10, seed=0)
print(f"kappa probe, {probe.budget} sheared polydiscs:")
print(f"   universal floor  s = {probe.universal_s:.9f}")
print(f"   smallest witness s = {probe.min_witness_s:.9f}  "
      f"(shear {probe.argmin['params']['shear']})")
print(f"   known value      s = {1 / math.sqrt(probe.n):.9f}  (1/sqrt(n): a polydisc image)")
print(f"   the half-plane witness's cap 1/(3 sqrt(n)) = {1 / (3 * math.sqrt(probe.n)):.9f}:")
print("   the gap to the known value measures the witness construction, not the family")
