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

from . import bruckbose, combinat, elation, singer
from .errors import VerificationError
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


def lemma1_report(cases=LEMMA1_CASES, cap=None) -> list:
    """Both directions of the conjugacy criterion over all subgroup pairs.

    The subgroups are the members of elation.equivalence_classes of every
    order, in class order, member k being mu^k times the representative.
    Their rows must be distinct, which with walk_orbits' check that the walks
    hold exactly the streamed subgroups makes them every subgroup once.  One
    pass per case over the q - 1 diagonals diag(1, ..., 1, d), to which any
    g in PGL(r, q) conjugating two of their elation groups reduces, partitions
    them by conjugacy (elation.conjugacy_partition).  Each member
    must admit the diagonal conjugator by mu^k (conjugator checks g M_lam ==
    M_(mu^k lam) g, entry by entry) and carry its representative's label,
    and, by class number, each class of the pass must lie in one scalar
    class: the partitions are equal, so pairs are counted from class sizes.
    cap bounds each order's stream and |PGL(r, q)|.  A case whose field
    does not exist (p not prime, h < 1), r < 2 or |PGL(r, q)| > cap is
    rejected before anything is listed.
    """
    out = []
    for r, p, h in cases:
        order = elation.admit_sweep(r, make_field(p, h).order, cap)  # ValueError for h < 1
        classes = [c for m in range(1, h + 1) for c in elation.equivalence_classes(p, h, m, cap)]
        subs = [H for c in classes for H in c.members]
        owner = [k for k, c in enumerate(classes) for _ in range(c.size)]  # class numbers
        if len({H.rows for H in subs}) != len(subs):
            raise VerificationError("scalar classes repeat a subgroup",
                                    {"case": [r, p, h], "rows": [H.rows for H in subs]})
        sweep = elation.conjugacy_partition(subs, r, cap=cap)
        first = 0  # index of the class's representative, its member 0
        for c in classes:
            for k, alpha in enumerate(c.witness_scalars):
                elation.conjugator(c.representative, alpha, r)
                if sweep.labels[first + k] != sweep.labels[first]:
                    raise VerificationError(
                        "scalar-equivalent pair not conjugate in the PGL sweep",
                        {"case": [r, p, h], "alpha": alpha,
                         "first": [list(row) for row in c.representative.rows],
                         "second": [list(row) for row in subs[first + k].rows]})
            first += c.size
        for j, i in enumerate(sweep.labels):
            if owner[i] != owner[j]:
                witness = sweep.witnesses.get((i, j))
                raise VerificationError(
                    "conjugation witness found for an inequivalent pair",
                    {"case": [r, p, h],
                     "first": [list(row) for row in subs[i].rows],
                     "second": [list(row) for row in subs[j].rows],
                     "witness": None if witness is None else [list(row) for row in witness]})
        equivalent = sum(c.size * (c.size + 1) // 2 for c in classes)
        out.append({"r": r, "p": p, "h": h, "subgroups": len(subs),
                    "equivalent_pairs": equivalent,
                    "inequivalent_pairs": len(subs) * (len(subs) + 1) // 2 - equivalent,
                    "group_order": order})
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
