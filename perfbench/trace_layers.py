"""Per-layer tracing of galela, installed from outside the program.

The tracer rebinds functions of the galela modules for the life of one
worker process and leaves src/ untouched:

- phase functions get spans (name, start, end, parent), kept in memory and
  handed to the parent when the job ends;
- hot leaf functions get a call counter instead of a span, since
  FieldTower.mul alone is called tens of millions of times;
- a SIGPROF sampler attributes process CPU time to the galela module of the
  innermost galela frame on the stack, which gives each layer's self time
  without a profiler's per-call cost.  Time in the tracer's own wrappers
  goes to "trace".

A function is rebound wherever a galela module holds it, so a name imported
with "from .gf import make_field" is traced as well as gf.make_field.
"""

from __future__ import annotations

import inspect
import signal
import sys
import time

from galela import bruckbose, combinat, elation, gf, linalg, pspace, selftest, singer

LAYERS = ("gf", "combinat", "linalg", "pspace", "singer", "elation", "bruckbose",
          "selftest", "cli")
SAMPLE_INTERVAL_S = 0.001

# (owner, attribute, counter): hot leaf functions, counted per call
COUNTED = (
    (gf.FieldTower, "mul", "gf.mul.calls"),
    (gf.FieldTower, "add", "gf.addsub.calls"),
    (gf.FieldTower, "sub", "gf.addsub.calls"),
    (gf.FieldTower, "neg", "gf.addsub.calls"),
    (gf.FieldTower, "coeffs", "gf.coeffs.calls"),
    (gf.FieldTower, "coords", "gf.coords.calls"),
    (combinat, "prime_power", "combinat.prime_power.calls"),
    (linalg, "rref", "linalg.rref.calls"),
    (linalg, "matvec", "linalg.matvec.calls"),
    (linalg, "matmul", "linalg.matmul.calls"),
    (pspace, "subspace_points", "pspace.subspace_points.calls"),
    (singer, "act", "singer.act.calls"),
    (elation, "_grow_span", "elation.grow_span.calls"),
    (elation, "scalar_multiple", "elation.scalar_multiple.calls"),
    (elation, "dimension_profile", "elation.dimension_profile.calls"),
    (bruckbose, "orbit_image", "bruckbose.orbit_image.calls"),
)

# (owner, attribute, span name): phases, one span per call
SPANNED = (
    (singer, "orbit_census", "singer.orbit_census"),
    (elation, "equivalence_classes", "elation.equivalence_classes"),
    (selftest, "lemma1_report", "selftest.lemma1_report"),
    (bruckbose, "verify_star_model", "bruckbose.verify_star_model"),
    (pspace, "enumerate_subspaces", "pspace.enumerate_subspaces"),
    (pspace, "is_cover", "pspace.is_cover"),
    (singer, "_walk_orbit", "singer.walk"),
    (elation, "no_conjugation_witness", "elation.sweep"),
    (bruckbose.StarFrame, "__init__", "bruckbose.frame"),
)

# span name -> inclusive-time metric
SPAN_TIMES = {
    "gf.build": "gf.build_s",
    "pspace.enumerate_subspaces": "pspace.enumerate_subspaces_s",
    "pspace.is_cover": "pspace.is_cover_s",
    "singer.walk": "singer.walk_s",
    "elation.sweep": "elation.sweep_s",
    "bruckbose.frame": "bruckbose.frame_s",
}


def _galela_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "galela" or name.startswith("galela."))]


class Tracer:
    """Spans, counters and sampled self time for one worker process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.self_s: dict[str, float] = {}
        self._restore: list[tuple] = []
        self._last_cpu = 0.0
        self._old_handler = None

    # -- wrappers ------------------------------------------------------------

    def _cell(self, name: str) -> list[int]:
        return self.counts.setdefault(name, [0])

    def _counted(self, name, fn):
        """A call counter with fn's own parameter list.

        A fixed-arity wrapper costs about a fifth of a *args, **kwargs one,
        which matters at tens of millions of calls.
        """
        # __name__ makes the sampler charge time in the wrapper to "trace"
        env = {"__name__": __name__, "_cell": self._cell(name), "_fn": fn}
        params = inspect.signature(fn).parameters.values()
        decl = []
        for p in params:
            if p.kind not in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD):
                raise TypeError(f"cannot count {fn!r}: parameter {p.name} is {p.kind}")
            if p.default is p.empty:
                decl.append(p.name)
            else:
                env[f"_default_{p.name}"] = p.default
                decl.append(f"{p.name}=_default_{p.name}")
        args = ", ".join(p.name for p in params)
        exec(f"def counted({', '.join(decl)}):\n"
             f"    _cell[0] += 1\n"
             f"    return _fn({args})\n", env)
        return env["counted"]

    def _spanned(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def spanned(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return spanned

    def _make_field(self, fn):
        # make_field memoizes; a miss builds the field and gets a span
        built = self._spanned("gf.build", fn)
        cell = self._cell("gf.make_field.calls")
        cache = gf._CACHE

        def make_field(p, h):
            cell[0] += 1
            return fn(p, h) if (p, h) in cache else built(p, h)
        return make_field

    def _pgl_elements(self, fn):
        cell = self._cell("elation.pgl_elements")

        def iterate_pgl(*args, **kwargs):
            for g in fn(*args, **kwargs):
                cell[0] += 1
                yield g
        return iterate_pgl

    def _rebind(self, owner, attr, wrapper_for):
        orig = getattr(owner, attr)
        wrapper = wrapper_for(orig)
        if isinstance(owner, type):
            self._restore.append((owner, attr, orig))
            setattr(owner, attr, wrapper)
            return
        for module in _galela_modules():
            for name, value in list(vars(module).items()):
                if value is orig:
                    self._restore.append((module, name, orig))
                    setattr(module, name, wrapper)

    # -- sampler ---------------------------------------------------------------

    def _on_sample(self, signum, frame):
        now = time.process_time()
        elapsed, self._last_cpu = now - self._last_cpu, now
        key = "other"
        while frame is not None:
            name = frame.f_globals.get("__name__", "")
            if name.startswith("galela."):
                key = name[len("galela."):]
                break
            if name == __name__:
                key = "trace"
                break
            frame = frame.f_back
        self.self_s[key] = self.self_s.get(key, 0.0) + elapsed

    # -- lifecycle -------------------------------------------------------------

    def install(self):
        for owner, attr, name in COUNTED:
            self._rebind(owner, attr, lambda fn, name=name: self._counted(name, fn))
        for owner, attr, name in SPANNED:
            self._rebind(owner, attr, lambda fn, name=name: self._spanned(name, fn))
        self._rebind(gf, "make_field", self._make_field)
        self._rebind(elation, "_iterate_pgl", self._pgl_elements)
        self._last_cpu = time.process_time()
        self._old_handler = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old_handler)
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def report(self) -> dict:
        """Per-layer metrics of the job, plus the raw spans."""
        metrics = {name: cell[0] for name, cell in self.counts.items()}
        for metric in SPAN_TIMES.values():
            metrics[metric] = 0.0
        for name, start, end, _ in self.spans:
            if name in SPAN_TIMES:
                metrics[SPAN_TIMES[name]] += end - start
        metrics["singer.orbits"] = sum(1 for s in self.spans if s[0] == "singer.walk")
        metrics["elation.sweeps"] = sum(1 for s in self.spans if s[0] == "elation.sweep")
        info = pspace.subspace_points.cache_info()
        lookups = info.hits + info.misses
        metrics["pspace.subspace_points.hits"] = info.hits
        metrics["pspace.subspace_points.misses"] = info.misses
        metrics["pspace.subspace_points.hit_ratio"] = info.hits / lookups if lookups else 0.0
        for layer in LAYERS + ("trace",):
            metrics[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        metrics["trace.cpu_s"] = sum(self.self_s.values())
        return {"metrics": metrics,
                "spans": [{"name": n, "start": s, "end": e, "parent": p}
                          for n, s, e, p in self.spans]}
