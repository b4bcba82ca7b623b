"""
Field towers and canonical subfields
====================================

"""

# every field GF(p^h) is built once, from a fixed irreducible polynomial,
# so two runs of any computation see literally the same tables
from galela import make_field
from galela.oracle import subfield_elements

t = make_field(2, 4)
print("order:", t.order)
print("defining polynomial coefficients (constant first):", t.modulus)
print("multiplicative generator:", t.mu)

# powers of the generator sweep the nonzero elements exactly once
cycle = [t.pow(t.mu, k) for k in range(t.order - 1)]
print("generator cycle:", cycle)
assert sorted(cycle) == list(range(1, t.order))

# the subfield GF(4) sits inside GF(16) as the fixed set of x -> x^4
sub = subfield_elements(t, 2)
print("GF(4) inside GF(16):", sub)
for a in sub:
    assert t.pow(a, 4) == a

# elements of the big field are vectors over any subfield; round-tripping
# through coordinates is exact
for a in range(t.order):
    assert t.from_coords(t.coords(a, 2), 2) == a
print("coordinates of mu over GF(4):", t.coords(t.mu, 2))

# the minimal polynomial of the generator recovers the defining polynomial
print("minimal polynomial of mu over GF(2):", t.minimal_polynomial(t.mu, 1))
