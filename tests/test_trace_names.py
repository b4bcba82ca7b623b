"""Every name the per-layer tracer rebinds still exists in the package.

perfbench/trace_layers.py rebinds galela functions by (owner, attribute)
pairs and builds fixed-arity call counters from their parameter lists, so a
rename or a new keyword-only parameter in src/ would only show up when a
traced benchmark run fails.  The tracer's source is executed here without
installing it and without writing bytecode next to it.
"""

import inspect
from pathlib import Path

from galela import elation, gf, pspace

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "trace_layers.py"


def tracer_namespace():
    ns = {"__name__": "trace_layers"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), ns)
    return ns


NS = tracer_namespace()


def test_rebound_names_resolve():
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in NS["COUNTED"] + NS["SPANNED"]
               if not hasattr(owner, attr)]
    assert missing == []


def test_counted_functions_are_positional():
    keyword = [f"{owner.__name__}.{attr}({p.name})" for owner, attr, _ in NS["COUNTED"]
               for p in inspect.signature(getattr(owner, attr)).parameters.values()
               if p.kind not in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    assert keyword == []


def test_special_hooks_exist():
    assert callable(gf.make_field)
    assert isinstance(gf._CACHE, dict)
    assert inspect.isgeneratorfunction(elation._iterate_pgl)
    assert callable(pspace.subspace_points.cache_info)
