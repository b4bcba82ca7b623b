"""
Orbit census under the cyclic collineation group
================================================

"""

# a single matrix of full projective order acts on PG(s-1, q); the census
# partitions all t-subspaces into its orbits, streaming them and keeping
# only each orbit's record (its least subspace, size and u) and one index
# from a subspace's log set to its orbit
from galela import (
    SingerGroup,
    is_cover,
    log_set,
    orbit_census,
    predicted_orbit_count,
    rotate,
    theta,
)

S = SingerGroup(4, 2)
print("generator matrix:", S.generator)
print("projective order:", S.projective_order)

# the 35 lines of PG(3,2) split into three orbits
census = orbit_census(4, 2, 2)
for rec in census.orbits:
    print(f"orbit: size {rec.size}, periodicity u = {rec.u}")

# the short orbit is special: its 5 lines partition the point set;
# orbit_members rebuilds them by applying the matrix to the representative
short = min(range(len(census.orbits)), key=lambda i: census.orbits[i].size)
members = census.orbit_members(short)
print("short orbit is a spread:", is_cover(members, 1))
print(
    "spread size matches point count ratio:",
    len(members) == theta(4, 2) // theta(2, 2),
)

# the census carries a subspace as the Singer exponents of its points, and
# the generator adds one to each exponent mod theta(4, 2) = 15
logs = log_set(S, members[0])
print("first spread line as point logs:", [k for k in range(15) if logs >> k & 1])
image = rotate(logs, S.projective_order)
print("its image under the generator: ", [k for k in range(15) if image >> k & 1])

# orbit_census raises unless its counts agree with the closed form
for s, t, q in [(4, 2, 2), (6, 2, 2), (6, 3, 2), (4, 2, 3)]:
    census = orbit_census(s, t, q)
    print(f"s={s} t={t} q={q}: {len(census.orbits)} orbits, "
          f"{predicted_orbit_count(s, t, q)} predicted")
