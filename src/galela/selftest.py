"""Built-in verification matrix.

Every section runs its cases through a kernel check, which raises
VerificationError on the first failure, and returns a JSON-ready summary
fully determined by the inputs (no timestamps, no floats, no environment
dependence), so two runs must serialize identically.  The census and
classification sections report what orbit_census and equivalence_classes
check for every subfield degree, plus three spot values; the others list
elation.verify_correspondence, verify_lemma1 and bruckbose.verify_star_model.
"""

from __future__ import annotations

from math import gcd

from . import bruckbose, combinat, elation, singer
from .errors import VerificationError

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
    return [elation.verify_lemma1(r, p, h, cap) for r, p, h in cases]


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
