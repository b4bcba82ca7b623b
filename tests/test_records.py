"""Tests for the six records and for what importing the command line costs.

Subspaces, Singer orbit records and the elation records are immutable
values: a field cannot be assigned, equal fields make equal records with
equal hashes, and repr prints Name(field=value, ...), the form that
VerificationError messages and the demos show.  Importing galela.cli loads
none of dataclasses and the source-reading modules it pulls in.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from galela import elation, oracle, pspace, singer
from galela.gf import make_field

SRC = Path(__file__).resolve().parents[1] / "src"


def _records():
    """(record, its field names in order, whether it hashes), one per record type."""
    X = pspace.span([(1, 0, 1), (0, 1, 1)], 2)
    H = elation.group_from_elements(make_field(2, 4), [1, 2])
    cls = elation.equivalence_classes(2, 4, 2)[0]
    subgroups = oracle.enumerate_subgroups(2, 2, 1)
    partition = elation.conjugacy_partition(subgroups[0].tower,
                                            [K.elements() for K in subgroups], 3)
    return [
        (X, ("q", "basis"), True),
        (singer.orbit_census(3, 2, 2).orbits[0], ("representative", "size", "u"), True),
        (H, ("tower", "rows"), True),
        (elation.dimension_profile(H), ("admissible", "minimal_n", "minimal_d"), True),
        (cls, ("representative", "size", "profile"), True),
        (partition, ("labels", "witnesses"), False),
    ]


RECORDS = _records()
IDS = [type(rec).__name__ for rec, _, _ in RECORDS]


@pytest.mark.parametrize("rec, fields, hashes", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(rec, fields, hashes):
    for name in fields:
        value = getattr(rec, name)
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        assert getattr(rec, name) is value


@pytest.mark.parametrize("rec, fields, hashes", RECORDS, ids=IDS)
def test_equal_fields_make_equal_records(rec, fields, hashes):
    values = [getattr(rec, name) for name in fields]
    by_position = type(rec)(*values)
    by_name = type(rec)(**dict(zip(fields, values)))
    assert by_position == rec and by_name == rec
    if hashes:
        assert hash(by_position) == hash(rec) == hash(by_name)
    else:
        with pytest.raises(TypeError):
            hash(rec)
    # a record differs once one field differs
    other = type(rec)(*values[:-1], object())
    assert other != rec


@pytest.mark.parametrize("rec, fields, hashes", RECORDS, ids=IDS)
def test_repr_names_every_field_in_order(rec, fields, hashes):
    inner = ", ".join(f"{name}={getattr(rec, name)!r}" for name in fields)
    assert repr(rec) == f"{type(rec).__name__}({inner})"


def test_subspace_repr():
    assert repr(pspace.Subspace(2, ((0, 1),))) == "Subspace(q=2, basis=((0, 1),))"


# dataclasses and what it imports to read source: none is needed by galela
HEAVY_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def _loaded_modules(flags, statement):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = f"{statement}import sys; print(*sorted(sys.modules))"
    r = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                       env=env, timeout=60)
    assert r.returncode == 0, r.stderr
    return set(r.stdout.split())


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
def test_cli_import_loads_no_heavy_module(flags):
    # compared with a bare interpreter, so modules that site loads anyway do not count
    bare = _loaded_modules(flags, "")
    after = _loaded_modules(flags, "import galela.cli; ")
    assert "galela.cli" in after
    assert (after - bare) & HEAVY_MODULES == set()
