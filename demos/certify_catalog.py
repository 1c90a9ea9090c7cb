"""Certify four domains end to end.

certify wires the whole pipeline: contact frame, normalizer, containment
margins, and, when the coordinate maps exist in closed form, an injective
witness whose inscribed radii sit strictly above the certified constants.
The two projective images are C-convex but not convex.  A C-convex witness
needs every coordinate projection to be a disc in closed form: a closed-form
disc over ball bases and affine chains, none for polydisc, l1 and lp bases
under projective maps or for defining functions.  So the projective ball gets
a witness from its exact projection discs, while the projective polydisc gets
none and the report says so instead.  An lp ball with p < 2 takes its frame
contacts in closed form, so its first frame radius is Hoelder's n^(1/2 - 1/p).
The polydisc report's witness is evaluated at one interior point, and its
own membership test confirms that the value lies in its image.
"""
import numpy as np

from squeezecert.bounds import certify
from squeezecert.domains import ball, l1ball, lp_ball, polydisc, projective_image


def show(name, report):
    print(f"{name} ({report.convexity_class}):")
    print(f"   certified  s = {report.certified_s:.9f}   s_hat = {report.certified_s_hat:.9f}")
    if report.witness_s is not None:
        print(f"   witness    s = {report.witness_s:.9f}   s_hat = {report.witness_s_hat:.9f}")
        print(f"   gap        s = {report.witness_s - report.certified_s:+.9f}"
              f"   s_hat = {report.witness_s_hat - report.certified_s_hat:+.9f}")
    else:
        print("   witness    absent")
    for j, disc in enumerate(report.projections):
        exact = "no closed-form disc" if disc is None else (
            f"disc about {disc.center:.6f} of radius {disc.radius:.6f}")
        print(f"   projection {j}: {exact}")
    worst = min(report.margins.values(), key=lambda m: m.min_slack)
    print(f"   tightest margin: {worst.check} at {worst.min_slack:.3e}")
    print()


unit_polydisc = certify(polydisc(2), seed=0)
show("unit polydisc", unit_polydisc)
witness = unit_polydisc.witness
z = np.array([[0.3, 0.2j]])
image = witness(z)
print(f"unit polydisc witness at ({z[0, 0]:.1f}, {z[0, 1]:.1f}): "
      f"({image[0, 0]:.6f}, {image[0, 1]:.6f}), in its image: {witness.contains(image)[0]}")
print()
show("unit l1 ball", certify(l1ball(2), seed=0))

proj = projective_image(polydisc(2), np.eye(2), np.zeros(2),
                        [2.0, -1.0, 0.0], bounding_radius=10.0)
show("projective polydisc image", certify(proj, seed=0))

proj_ball = projective_image(ball(2), np.eye(2), np.zeros(2),
                             [2.0, 0.5, 0.0], bounding_radius=100.0)
show("projective ball image", certify(proj_ball, seed=0))

lp12 = certify(lp_ball(12, 1.5), seed=0)
print(f"lp ball (n = 12, p = 1.5): first frame radius {lp12.diagnostics['radii'][0]:.12f}"
      f"   n^(1/2 - 1/p) = {12 ** (0.5 - 1 / 1.5):.12f}")
