"""Exact finite geometry over small fields.

Field towers GF(p^h) with canonical subfield embeddings, projective spaces
PG(s-1, q) with exact subspace enumeration, cyclic point-regular collineation
groups and their orbit censuses, scalar classification of elation subgroups,
and the star representation of PG(r-1, p^h) over a subfield.  Everything is
integer-exact; every closed-form count ships with a brute-force cross-check.
"""

from .bruckbose import (
    StarFrame,
    common_intersection_check,
    incidence_check,
    orbit_image,
    star_infinite,
    star_point,
    star_point_inverse,
    verify_star_model,
)
from .combinat import divisors, gaussian_binomial, moebius, prime_power, theta
from .elation import (
    ConjugacyPartition,
    ElationGroup,
    conjugacy_partition,
    conjugator,
    count_classes,
    dimension_profile,
    elation_matrix,
    enumerate_subgroups,
    equivalence_classes,
    group_from_elements,
    group_from_subspace,
    no_conjugation_witness,
    scalar_equivalent,
    subspace_of_center,
    verify_correspondence,
)
from .errors import CapExceeded, VerificationError
from .gf import FieldTower, make_field
from .pspace import (
    Subspace,
    enumerate_points,
    enumerate_subspaces,
    is_cover,
    is_spread,
    span,
    subspace_intersection,
    subspace_points,
    subspace_sum,
)
from .singer import (
    OrbitCensus,
    OrbitRecord,
    SingerGroup,
    act,
    orbit,
    orbit_census,
    predicted_free_orbit_count,
    predicted_orbit_count,
    singer_generator,
)

__version__ = "0.1.0"
