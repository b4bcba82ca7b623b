"""
Classifying elation subgroups up to conjugacy
=============================================

"""

# additive subgroups of GF(p^h) index elation subgroups with a common
# center and axis; conjugacy in the collineation group reduces to scalar
# equivalence, so classification is a finite orbit computation
from galela import (
    conjugator,
    count_classes,
    equivalence_classes,
    subspace_of_center,
    verify_correspondence,
)
from galela.oracle import scalar_equivalent

# the 35 subgroups of order 4 in GF(16) fall into three classes
classes = equivalence_classes(2, 4, 2)
for c in classes:
    print(
        f"class of size {c.size}, admissible field dimensions {c.profile.admissible}"
    )

# class counts come from a closed formula as well
print("count by formula:", count_classes(2, 4, 2, 1))
print("minimal classes:", count_classes(2, 4, 2, 1, minimal=True))

# an explicit conjugating matrix exists for every equivalent pair
rep = classes[0].representative
other = classes[0].members[1]
alpha = scalar_equivalent(rep, other)
print("scalar witness:", alpha)
print("conjugating matrix:", conjugator(rep, alpha, 3))

# each subgroup corresponds to a subspace, and scalar classes of
# subgroups correspond to orbits of subspaces; the bijection is checked
# end to end
result = verify_correspondence(2, 4, 2, 1)
print("classes:", result["classes"], "orbits:", result["orbits"])
print("bijection:", result["bijection"])

# the subspace attached to one subgroup
print("subspace of first representative:", subspace_of_center(rep, 1).basis)
