"""Built-in verification matrix.

Each report function sweeps one family of cross-checks, raises
VerificationError on the first failure, and returns a JSON-ready summary
whose content is fully determined by the inputs (no timestamps, no floats,
no environment dependence), so two runs must serialize identically.
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


def census_report(cases=CENSUS_CASES) -> list:
    """Orbit censuses against the closed-form counts.

    orbit_census itself checks each orbit's stabilizer and cover and the
    spread count, so only the comparison with the closed forms is left here.
    """
    out = []
    for s, t, q in cases:
        census = singer.orbit_census(s, t, q)
        observed = len(census.orbits)
        free_observed = sum(1 for rec in census.orbits if rec.u == 1)
        predicted = singer.predicted_orbit_count(s, t, q)
        predicted_free = singer.predicted_free_orbit_count(s, t, q)
        if observed != predicted or free_observed != predicted_free:
            raise VerificationError(
                "orbit count differs from the closed form",
                {"case": [s, t, q], "observed": [observed, free_observed],
                 "predicted": [predicted, predicted_free]})
        out.append({"s": s, "t": t, "q": q, "orbits": observed,
                    "free_orbits": free_observed,
                    "sizes": [rec.size for rec in census.orbits],
                    "spread": s % t == 0})
    return out


def classification_report(primes=CLASSIFICATION_PRIMES, degrees=CLASSIFICATION_DEGREES,
                          limit=CLASSIFICATION_LIMIT) -> list:
    """Observed equivalence-class counts against the closed forms."""
    out = []
    for p in primes:
        for h in degrees:
            for m in range(1, h + 1):
                total = combinat.gaussian_binomial(h, m, p)
                if total > limit:
                    continue
                classes = elation.equivalence_classes(p, h, m)
                for n in combinat.divisors(gcd(m, h)):
                    observed = sum(1 for c in classes
                                   if n in {nn for nn, _ in c.profile.admissible})
                    observed_min = sum(1 for c in classes if c.profile.minimal_n == n)
                    predicted = elation.count_classes(p, h, m, n)
                    predicted_min = elation.count_classes(p, h, m, n, minimal=True)
                    if observed != predicted or observed_min != predicted_min:
                        raise VerificationError(
                            "class count differs from the closed form",
                            {"case": [p, h, m, n],
                             "observed": [observed, observed_min],
                             "predicted": [predicted, predicted_min]})
                    out.append({"p": p, "h": h, "m": m, "n": n,
                                "classes": observed, "minimal": observed_min})
    rows = {(row["p"], row["h"], row["m"], row["n"]): row for row in out}
    for key, want in CLASSIFICATION_SPOT.items():
        row = rows.get(key)
        if row is None or row["classes"] != want["classes"] or \
                ("minimal" in want and row["minimal"] != want["minimal"]):
            raise VerificationError("spot value mismatch",
                                    {"case": list(key), "want": want, "row": row})
    return out


def correspondence_report(cases=CORRESPONDENCE_CASES) -> list:
    return [elation.verify_correspondence(p, h, m, n) for p, h, m, n in cases]


def lemma1_report(cases=LEMMA1_CASES, cap=None) -> list:
    """Both directions of the conjugacy criterion over all subgroup pairs.

    One exhaustive pass over PGL(r, q) per case partitions every subgroup by
    conjugacy (elation.conjugacy_partition), and the scalar classes come
    from elation.equivalence_classes.  Every class member must admit the
    diagonal conjugator by its witness scalar (checked by the explicit
    projective identity inside conjugator) and carry the representative's
    label in the pass; every class of the pass must lie inside one scalar
    class.  Together these make the two partitions equal, so each pair is
    counted from the class sizes instead of being tested on its own.  cap
    bounds the subgroup enumeration and |PGL(r, q)|.
    """
    out = []
    for r, p, h in cases:
        subs = [H for m in range(1, h + 1)
                for H in elation.enumerate_subgroups(p, h, m, cap=cap)]
        sweep = elation.conjugacy_partition(subs, r, cap=cap)
        label = {H.rows: i for H, i in zip(subs, sweep.labels)}
        scalar_rep = {}
        equivalent = 0
        for m in range(1, h + 1):
            for c in elation.equivalence_classes(p, h, m, cap=cap):
                rep = c.representative
                for H, alpha in zip(c.members, c.witness_scalars):
                    elation.conjugator(rep, alpha, r)
                    if label[H.rows] != label[rep.rows]:
                        raise VerificationError(
                            "scalar-equivalent pair not conjugate in the PGL sweep",
                            {"case": [r, p, h], "alpha": alpha,
                             "first": [list(row) for row in rep.rows],
                             "second": [list(row) for row in H.rows]})
                    scalar_rep[H.rows] = rep.rows
                equivalent += c.size * (c.size + 1) // 2
        for j, (H, i) in enumerate(zip(subs, sweep.labels)):
            if scalar_rep[H.rows] != scalar_rep[subs[i].rows]:
                witness = sweep.witnesses.get((i, j))
                raise VerificationError(
                    "conjugation witness found for an inequivalent pair",
                    {"case": [r, p, h],
                     "first": [list(row) for row in subs[i].rows],
                     "second": [list(row) for row in H.rows],
                     "witness": None if witness is None else [list(row) for row in witness]})
        out.append({"r": r, "p": p, "h": h, "subgroups": len(subs),
                    "equivalent_pairs": equivalent,
                    "inequivalent_pairs": len(subs) * (len(subs) + 1) // 2 - equivalent,
                    "group_order": elation.pgl_order(r, p**h)})
    return out


def star_report(cases=STAR_CASES, seed: int = 0) -> list:
    return [bruckbose.verify_star_model(r, p, h, n, seed=seed)
            for r, p, h, n in cases]


def run_selftest() -> dict:
    return {
        "census": census_report(),
        "classification": classification_report(),
        "correspondence": correspondence_report(),
        "lemma1": lemma1_report(),
        "star": star_report(),
        "ok": True,
    }
