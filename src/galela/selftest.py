"""Built-in verification matrix.

Each report function sweeps one family of cases, raises VerificationError
on the first failure, and returns a JSON-ready summary whose content is
fully determined by the inputs (no timestamps, no floats, no environment
dependence), so two runs must serialize identically.  The census and
classification sections only report: orbit_census and equivalence_classes
check their closed forms themselves, for every subfield degree, through
singer.rotation_orbits; the classification section checks three spot values.
"""

from __future__ import annotations

from math import gcd

from . import bruckbose, combinat, elation, linalg, singer
from .errors import CapExceeded, VerificationError
from .gf import make_field

CENSUS_CASES = (
    (2, 1, 2), (3, 1, 2), (4, 2, 2), (4, 2, 3), (6, 2, 2),
    (6, 3, 2), (4, 2, 4), (2, 1, 8), (2, 1, 9),
)

CLASSIFICATION_PRIMES = (2, 3)
CLASSIFICATION_DEGREES = (2, 3, 4, 6)
CLASSIFICATION_LIMIT = 10**5

# known class counts, cross-checked against the closed forms
CLASSIFICATION_SPOT = {
    (2, 4, 2, 1): {"classes": 3, "minimal": 2},
    (2, 4, 2, 2): {"classes": 1},
    (2, 6, 2, 1): {"classes": 11},
}

CORRESPONDENCE_CASES = (
    (2, 4, 2, 1), (2, 4, 2, 2), (2, 6, 2, 1), (2, 6, 3, 1), (3, 2, 1, 1),
)

LEMMA1_CASES = ((2, 2, 2), (3, 2, 2))  # (r, p, h)
LEMMA1_CAP = 10**6  # element-set entries listed, and the pass's steps

STAR_CASES = ((2, 2, 4, 1), (2, 2, 4, 2), (3, 2, 4, 2), (2, 3, 2, 1))  # (r, p, h, n)


def census_report() -> list:
    """Orbit censuses, summarized.

    orbit_census checks the points of every subspace inside one
    hyperplane, each orbit's stabilizer and members in the hyperplane, and
    both closed-form counts for every subfield degree, which with the walk
    imply each orbit's cover, so this only reports them.
    """
    out = []
    for s, t, q in CENSUS_CASES:
        census = singer.orbit_census(s, t, q)
        out.append({"s": s, "t": t, "q": q, "orbits": len(census.orbits),
                    "free_orbits": sum(1 for rec in census.orbits if rec.u == 1),
                    "sizes": [rec.size for rec in census.orbits],
                    "spread": s % t == 0})
    return out


def classification_report() -> list:
    """Class counts per subfield degree, reported; three spot values checked.

    equivalence_classes checks the closed-form counts for every n | gcd(m, h)
    and dimension_profile that n is admissible exactly when n | minimal_n.
    """
    out = []
    for p in CLASSIFICATION_PRIMES:
        for h in CLASSIFICATION_DEGREES:
            for m in range(1, h + 1):
                if combinat.gaussian_binomial(h, m, p) > CLASSIFICATION_LIMIT:
                    continue
                classes = elation.equivalence_classes(p, h, m)
                for n in combinat.divisors(gcd(m, h)):
                    out.append({"p": p, "h": h, "m": m, "n": n,
                                "classes": sum(1 for c in classes
                                               if c.profile.minimal_n % n == 0),
                                "minimal": sum(1 for c in classes
                                               if c.profile.minimal_n == n)})
    rows = {(row["p"], row["h"], row["m"], row["n"]): row for row in out}
    for key, want in CLASSIFICATION_SPOT.items():
        row = rows.get(key)
        if row is None or row["classes"] != want["classes"] or \
                ("minimal" in want and row["minimal"] != want["minimal"]):
            raise VerificationError("spot value mismatch",
                                    {"case": list(key), "want": want, "row": row})
    return out


def correspondence_report() -> list:
    return [elation.verify_correspondence(p, h, m, n) for p, h, m, n in CORRESPONDENCE_CASES]


def lemma1_report(cases=LEMMA1_CASES, cap=LEMMA1_CAP) -> list:
    """Both directions of the conjugacy criterion over all subgroup pairs.

    The subgroups are the members of every order's elation.equivalence_classes,
    in class order, as element sets (member_elements).  They must be distinct,
    so with the walks' own checks they are every subgroup once.  One
    conjugacy_partition pass over the q - 1 diagonals partitions them, and
    each member's label must be its representative's index, so pairs are
    counted from class sizes.  conjugator runs once, on the whole field with
    alpha = mu, which covers every member's diagonal conjugator by mu^k.  Rows
    are built only for a failure's details.  cap bounds the elements listed,
    the sum over m of [h choose m]_p p^m, each order's stream, and the
    pass's steps, read off the closed-form class counts; a missing field,
    r < 2 or a blown cap is rejected before anything is listed.
    """
    out = []
    for r, p, h in cases:
        tower, ms = make_field(p, h), range(1, h + 1)  # ValueError for h < 1
        if r < 2:
            raise ValueError(f"need r >= 2, got {r}")
        listed = sum(combinat.gaussian_binomial(h, m, p) * p**m for m in ms)
        leaders = sum(singer.predicted_orbit_count(h, m, p) * p**m for m in ms)  # class elements
        # q - 1 products per leader element and diagonals of r^2 entries; conjugator's 2 h r^3
        steps = (tower.order - 1) * (leaders + r * r) + 2 * h * r**3
        for count, what in ((listed, "subgroup elements"), (steps, "pass steps")):
            if count > cap:
                raise CapExceeded(f"{count} {what} exceed cap {cap}")
        # GF(p^h) itself, the m = h class's representative
        elation.conjugator(elation.ElationGroup(tower, linalg.identity(h)), tower.mu, r)
        classes = [c for m in ms for c in elation.equivalence_classes(p, h, m, cap)]
        sets = [elems for c in classes for elems in c.member_elements()]

        def rows(j):  # member j's RREF rows, for a failure's details
            return [list(row) for row in elation.group_from_elements(tower, sets[j]).rows]

        if len(set(sets)) != len(sets):
            raise VerificationError("scalar classes repeat a subgroup",
                                    {"case": [r, p, h], "rows": list(map(rows, range(len(sets))))})
        sweep = elation.conjugacy_partition(tower, sets, r)
        first = 0  # index of the class's representative, its member 0
        for c in classes:
            for j in range(first, first + c.size):
                label = sweep.labels[j]
                if label != sweep.labels[first]:
                    raise VerificationError(
                        "scalar-equivalent pair not conjugate in the PGL sweep",
                        {"case": [r, p, h], "alpha": tower.exp[j - first],
                         "first": rows(first), "second": rows(j)})
                if label != first:
                    witness = sweep.witnesses.get((label, j))
                    raise VerificationError(
                        "conjugation witness found for an inequivalent pair",
                        {"case": [r, p, h], "first": rows(label), "second": rows(j),
                         "witness": None if witness is None else [list(row) for row in witness]})
            first += c.size
        equivalent = sum(c.size * (c.size + 1) // 2 for c in classes)
        out.append({"r": r, "p": p, "h": h, "subgroups": len(sets),
                    "equivalent_pairs": equivalent,
                    "inequivalent_pairs": len(sets) * (len(sets) + 1) // 2 - equivalent,
                    "group_order": elation.pgl_order(r, tower.order)})
    return out


def star_report() -> list:
    return [bruckbose.verify_star_model(r, p, h, n) for r, p, h, n in STAR_CASES]


def run_selftest() -> dict:
    return {
        "census": census_report(),
        "classification": classification_report(),
        "correspondence": correspondence_report(),
        "lemma1": lemma1_report(),
        "star": star_report(),
        "ok": True,
    }
