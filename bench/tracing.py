"""Run-time span tracing of gl3hecke's public calls, for the traced pass.

Nothing under src/ knows about tracing: install() replaces public names with
wrappers at the places their callers look them up (a module attribute for a
name imported with `from x import y`, the class attribute for a method).
Spans are kept in memory as [name, start, end, parent, case] and are turned
into per-layer metrics, self time included, when the pass ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter, defaultdict

from workloads import p2_size


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.maxima = Counter()
        self.case = None

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.case])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def span(self, name, fn, after=None):
        """fn wrapped in a span; after(tracer, args, result) records counts."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self, args, out)
            return out

        return wrapped

    def counted(self, name, fn, hit=None):
        """fn wrapped in a call counter; hit(result) marks a useful call."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[name] += 1
            out = fn(*args, **kwargs)
            if hit is not None and hit(out):
                counts[name + ".hits"] += 1
            return out

        return wrapped

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, case in self.spans:
                fh.write(json.dumps([name, start, end, parent, case]) + "\n")

    def summary(self):
        """{name: (calls, total seconds, self seconds)}.  Total time counts
        only outermost spans of a name, so recursion is not counted twice."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[2] += end - start - child_time[i]
            if not self._has_ancestor(parent, name):
                row[1] += end - start
        return out

    def _has_ancestor(self, idx, name):
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def nested_count(self, name, ancestor):
        return sum(
            1 for s in self.spans if s[0] == name and self._has_ancestor(s[3], ancestor)
        )


def _wrap_attr(owners, attr, make):
    """Replace owner.attr by one wrapper on every owner that holds the same
    object, so a name imported into several modules is wrapped everywhere."""
    fn = getattr(owners[0], attr)
    wrapped = make(fn)
    for owner in owners:
        if getattr(owner, attr) is not fn:
            raise RuntimeError("%s.%s is not the shared function" % (owner.__name__, attr))
        setattr(owner, attr, wrapped)


def install(tracer):
    """Wrap the layer boundaries of gl3hecke that layer_metrics() reads."""
    from gl3hecke import characters, ffield, heckegl3, linalg, modrep, modsym2, transfer, weights

    t = tracer

    def add(name, value_of):
        return lambda tr, args, out: tr.counts.update({name: value_of(args, out)})

    def keep_max(name, value_of):
        def after(tr, args, out):
            tr.maxima[name] = max(tr.maxima[name], value_of(args, out))

        return after

    build = transfer.BoundaryDatum.__dict__["build"].__func__
    transfer.BoundaryDatum.build = classmethod(t.span("transfer.datum_build", build))
    _wrap_attr([transfer], "run_transfer_checks", lambda f: t.span("transfer.run_transfer_checks", f))
    _wrap_attr([transfer], "gl3_hecke_on_boundary", lambda f: t.span("transfer.gl3_hecke_on_boundary", f))
    _wrap_attr([transfer], "eigenvalue_of", lambda f: t.span("transfer.eigenvalue_of", f))
    _wrap_attr([transfer, modsym2], "find_eigensystems", lambda f: t.span("modsym2.find_eigensystems", f))
    _wrap_attr(
        [transfer, heckegl3],
        "hecke_orbit_action",
        lambda f: t.span("heckegl3.hecke_orbit_action", f, add("heckegl3.cosets", lambda a, out: len(out))),
    )

    S = modsym2.SymbolSpace
    S.__init__ = t.span("modsym2.space", S.__init__, add("modsym2.space.full_dim", lambda a, out: a[0].full_dim))
    S.hecke_matrix = t.span("modsym2.hecke_matrix", S.hecke_matrix)
    S.semigroup_act = t.span("modsym2.semigroup_act", S.semigroup_act)
    _wrap_attr([modsym2, modrep], "build_gl2_module", lambda f: t.span("modrep.build_gl2", f))

    P = heckegl3.ProjectiveOrbits
    P.__init__ = t.span("heckegl3.orbits", P.__init__, add("heckegl3.orbits.points", lambda a, out: p2_size(a[1])))

    _wrap_attr([linalg], "nullspace", lambda f: t.counted("linalg.nullspace", f, hit=bool))
    _wrap_attr([linalg, modrep], "np_rref", lambda f: t.span("linalg.np_rref", f))
    linalg.RowReducer.add = t.span("linalg.rowreducer.add", linalg.RowReducer.add, add("linalg.rowreducer.add.grew", lambda a, out: int(out)))
    linalg.SpinBasis.add = t.span("linalg.spin.add", linalg.SpinBasis.add, add("linalg.spin.add.grew", lambda a, out: int(out)))

    mul = t.counted("ffield.mul", ffield.Fq.__mul__)
    ffield.Fq.__mul__ = mul
    ffield.Fq.__rmul__ = mul
    ffield.FiniteField.__init__ = t.span("ffield.field_init", ffield.FiniteField.__init__)
    ffield.FiniteField.embed = t.counted("ffield.embed", ffield.FiniteField.embed)

    _wrap_attr(
        [modrep],
        "build_gl3_module",
        lambda f: t.span("modrep.build_gl3", f, keep_max("modrep.build_gl3.carrier_dim", lambda a, out: out.carrier_dim)),
    )
    _wrap_attr([modrep], "u_invariants", lambda f: t.span("modrep.u_invariants", f))
    _wrap_attr(
        [weights],
        "predict_weights",
        lambda f: t.span("weights.predict", f, add("weights.predict.weights", lambda a, out: len(out))),
    )
    characters.DirichletCharacter.__call__ = t.counted("characters.call", characters.DirichletCharacter.__call__)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    s = tracer.summary()
    c = tracer.counts

    def calls(name):
        return s[name][0] if name in s else 0

    def total(name):
        return s[name][1] if name in s else 0.0

    return {
        "modsym2.space.s": total("modsym2.space"),
        "modsym2.space.full_dim": c["modsym2.space.full_dim"],
        "modsym2.hecke_matrix.s": total("modsym2.hecke_matrix"),
        "modsym2.find_eigensystems.s": total("modsym2.find_eigensystems"),
        "modsym2.find_eigensystems.extension_rebuilds": tracer.nested_count("modsym2.space", "modsym2.find_eigensystems"),
        "modsym2.semigroup_act.calls": calls("modsym2.semigroup_act"),
        "modsym2.semigroup_act.s": total("modsym2.semigroup_act"),
        "transfer.datum_build.s": total("transfer.datum_build"),
        "transfer.gl3_hecke_on_boundary.calls": calls("transfer.gl3_hecke_on_boundary"),
        "transfer.gl3_hecke_on_boundary.s": total("transfer.gl3_hecke_on_boundary"),
        "transfer.gl3_hecke_on_boundary.self_s": s["transfer.gl3_hecke_on_boundary"][2] if calls("transfer.gl3_hecke_on_boundary") else 0.0,
        "transfer.eigenvalue_of.s": total("transfer.eigenvalue_of"),
        "heckegl3.hecke_orbit_action.s": total("heckegl3.hecke_orbit_action"),
        "heckegl3.cosets": c["heckegl3.cosets"],
        "heckegl3.orbits.s": total("heckegl3.orbits"),
        "heckegl3.orbits.points": c["heckegl3.orbits.points"],
        "linalg.nullspace.calls": c["linalg.nullspace"],
        "linalg.nullspace.hit_ratio": _ratio(c["linalg.nullspace.hits"], c["linalg.nullspace"]),
        "linalg.rowreducer.add.calls": calls("linalg.rowreducer.add"),
        "linalg.rowreducer.add.s": total("linalg.rowreducer.add"),
        "linalg.rowreducer.add.grew_ratio": _ratio(c["linalg.rowreducer.add.grew"], calls("linalg.rowreducer.add")),
        "linalg.spin.add.calls": calls("linalg.spin.add"),
        "linalg.spin.add.s": total("linalg.spin.add"),
        "linalg.spin.add.grew_ratio": _ratio(c["linalg.spin.add.grew"], calls("linalg.spin.add")),
        "linalg.np_rref.s": total("linalg.np_rref"),
        "ffield.mul.calls": c["ffield.mul"],
        "ffield.field_init.s": total("ffield.field_init"),
        "ffield.embed.calls": c["ffield.embed"],
        "modrep.build_gl3.s": total("modrep.build_gl3"),
        "modrep.build_gl3.carrier_dim": tracer.maxima["modrep.build_gl3.carrier_dim"],
        "modrep.u_invariants.s": total("modrep.u_invariants"),
        "modrep.build_gl2.s": total("modrep.build_gl2"),
        "weights.predict.s": total("weights.predict"),
        "weights.predict.weights": c["weights.predict.weights"],
        "characters.call.calls": c["characters.call"],
    }
