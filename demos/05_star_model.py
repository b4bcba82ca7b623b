"""
The star model: translation structures in a bigger space
========================================================

"""

# points of PG(r-1, p^h) expand into points and spread elements of a
# projective space over the subfield GF(p^n); elation orbits become
# affine subspaces through a distinguished spread element
from galela import (
    StarFrame,
    common_intersection_check,
    group_from_elements,
    incidence_check,
    orbit_image,
    star_point,
    subspace_intersection,
    verify_star_model,
)
from galela.bruckbose import sample_affine_points, sample_line_specs

frame = StarFrame(2, 2, 4, 2)
t = frame.tower
print("ambient dimension:", frame.vecdim, "over GF(%d)" % frame.q)
print("spread size:", len(frame.spread))

# affine points embed coordinatewise
print("(1, mu) embeds as:", star_point((1, t.mu), frame))

# a subgroup closed under the subfield gives orbit images of fixed rank
H = group_from_elements(t, t.subfield_elements(2))
closure = orbit_image((1, 0), H, frame)
print("orbit closure rank:", closure.t)

# every orbit meets the special spread element in one common section
print("common intersection:", subspace_intersection(closure, frame.zstar).basis)
# (both checks raise VerificationError with a counterexample if they fail)
common_intersection_check(H, frame, sample_affine_points(frame))

# lines of the small space map to the expected configurations
incidence_check(frame, sample_line_specs(frame))

# the full sweep bundles both checks over every admissible subgroup order
report = verify_star_model(2, 2, 4, 2)
print("orders checked:", [row["m"] for row in report["orders"]])
print("all clear:", report["ok"])
