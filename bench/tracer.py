"""Per-layer tracing of the avgcycles package from outside it.

The tracer wraps, in a running process, the public functions of every
avgcycles module plus a few foreign calls the layers make (scipy's
``least_squares`` and ``solve_ivp``).  Each wrapped call is a frame on one
stack: its duration minus the durations of the wrapped calls it made is
added to the self time of its module.  Boundary calls are also kept as
spans (name, start, end, parent) in memory and dumped when the run ends;
hot leaf calls are only counted and their time summed, so a traced run
stays small.

A hook whose target no longer exists is skipped, so the tracer keeps
working when the package is refactored: the metric it fed then reads 0.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

MODULES = ("cli", "repro", "generators", "avgcore", "trigkernel", "polyalg",
           "rootfind", "sysspec", "flowsim")

# Aggregated, never stored as spans: they run millions of times per workload.
HOT = {
    "polyalg.Poly.__call__", "polyalg.Poly.diff", "polyalg.PolyVec.__call__",
    "polyalg.jacobian", "sysspec.CoefficientTable.eval",
    "sysspec.CoefficientTable.eval_grad", "trigkernel.HarmonicSum.definite",
    "trigkernel.trig_I", "trigkernel.trig_J", "trigkernel.trig_monomial",
    "avgcore.eval_fields", "avgcore.eval_F1", "avgcore.eval_F2", "avgcore.flow",
}

METHODS = (
    ("polyalg", "Poly", "__call__"), ("polyalg", "Poly", "diff"),
    ("polyalg", "PolyVec", "__call__"),
    ("sysspec", "CoefficientTable", "eval"), ("sysspec", "CoefficientTable", "eval_grad"),
    ("trigkernel", "HarmonicSum", "definite"),
)

FOREIGN = (("generators", "least_squares"), ("flowsim", "solve_ivp"))


class Tracer:
    """Frame stack, per-name call statistics, module self time and spans."""

    def __init__(self, package):
        self.package = package
        self.clock = time.perf_counter
        self.t0 = self.clock()
        self.stack = []            # frames: [start, child_s, span_id]
        self.stats = {}            # name -> [calls, total_s]
        self.self_s = dict.fromkeys(MODULES, 0.0)
        self.counts = {}
        self.spans = []            # (id, parent, name, start, end)
        self._next_id = 0

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn, on_return=None):
        module = name.split(".", 1)[0]
        hot = name in HOT
        stats = self.stats.setdefault(name, [0, 0.0])
        stack, clock, self_s, spans = self.stack, self.clock, self.self_s, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][2] if stack else -1
            if hot:
                span_id = parent
            else:
                span_id = self._next_id
                self._next_id += 1
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = clock()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                self_s[module] += dur - frame[1]
                stats[0] += 1
                stats[1] += dur
                if not hot:
                    spans.append((span_id, parent, name, frame[0] - self.t0, end - self.t0))
            if on_return is not None:
                on_return(out)
            return out

        return traced

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def install(self):
        """Replace every reference to a hooked callable inside the package."""
        mods = {name: sys.modules.get(f"{self.package}.{name}") for name in MODULES}
        replace = {}   # id(original) -> wrapper
        for short, mod in mods.items():
            if mod is None:
                continue
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if attr.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                replace[id(fn)] = self.wrap(f"{short}.{attr}", fn, self._hook(short, attr))
        for short, cls_name, meth in METHODS:
            cls = getattr(mods.get(short), cls_name, None)
            fn = cls.__dict__.get(meth) if cls is not None else None
            if callable(fn):
                setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", fn))
        for short, attr in FOREIGN:
            fn = getattr(mods.get(short), attr, None)
            if callable(fn):
                wrapper = self.wrap(f"{short}.{attr}", fn, self._hook(short, attr))
                setattr(mods[short], attr, wrapper)
        top = sys.modules.get(self.package)
        for mod in [top, *mods.values()]:
            if mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in replace:
                    setattr(mod, attr, replace[id(val)])
        self._install_rootfind(mods.get("rootfind"))

    def _hook(self, module, attr):
        """Result hooks that turn return values into work counts."""
        if (module, attr) == ("generators", "least_squares"):
            def on_ls(sol):
                self.count("generators.least_squares.nfev", int(getattr(sol, "nfev", 0)))
                # status 0: "the maximum number of function evaluations is exceeded"
                self.count("generators.least_squares.max_nfev_hits", int(getattr(sol, "status", 1) == 0))
            return on_ls
        if (module, attr) == ("flowsim", "solve_ivp"):
            return lambda sol: self.count("flowsim.solve_ivp.nfev", int(getattr(sol, "nfev", 0)))
        if (module, attr) == ("rootfind", "find_simple_zeros"):
            return lambda recs: self.count(
                "rootfind.simple_zeros", sum(1 for r in recs if getattr(r, "simple", False)))
        return None

    def _install_rootfind(self, rootfind):
        """Newton steps, and the search diagnostics that find_simple_zeros discards."""
        if rootfind is None:
            return
        jac = getattr(rootfind, "jacobian", None)
        if callable(jac):
            def counted_jacobian(*args, **kwargs):
                self.count("rootfind.newton_steps")
                return jac(*args, **kwargs)
            rootfind.jacobian = counted_jacobian
        fsz = getattr(rootfind, "find_simple_zeros", None)
        diag_cls = getattr(rootfind, "SearchDiagnostics", None)
        if not callable(fsz) or diag_cls is None or \
                "diagnostics" not in inspect.signature(fsz).parameters:
            return
        fields = ("seeds", "converged", "diverged", "r_min_hits")

        @functools.wraps(fsz)
        def with_diagnostics(*args, **kwargs):
            if len(args) > 2:
                args = list(args)
                diag = args[2] = args[2] if args[2] is not None else diag_cls()
            else:
                diag = kwargs.get("diagnostics")
                if diag is None:
                    diag = kwargs["diagnostics"] = diag_cls()
            before = {f: getattr(diag, f, 0) for f in fields}
            try:
                return fsz(*args, **kwargs)
            finally:
                for f in fields:
                    self.count(f"rootfind.{f}", getattr(diag, f, 0) - before[f])

        for mod in [sys.modules.get(self.package)] + [
                sys.modules.get(f"{self.package}.{m}") for m in MODULES]:
            if mod is not None and getattr(mod, "find_simple_zeros", None) is fsz:
                mod.find_simple_zeros = with_diagnostics

    # -- results ------------------------------------------------------------

    def calls(self, *names):
        return sum(self.stats.get(n, [0, 0.0])[0] for n in names)

    def seconds(self, *names):
        return sum(self.stats.get(n, [0, 0.0])[1] for n in names)

    def dump_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": round(start, 9), "end": round(end, 9)}) + "\n")


GENERATORS = ("gen_prop10", "gen_prop12", "gen_cor13", "gen_prop16", "gen_prop18",
              "gen_prop20", "gen_prop21")


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metric name -> (value, unit), from one traced workload."""
    c, s, n = tr.calls, tr.seconds, tr.counts.get
    trigkernel = sys.modules.get(f"{tr.package}.trigkernel")
    seeds = n("rootfind.seeds", 0)
    out = {
        "generators.least_squares.calls": (c("generators.least_squares"), "count"),
        "generators.least_squares.s": (s("generators.least_squares"), "s"),
        "generators.least_squares.nfev": (n("generators.least_squares.nfev", 0), "count"),
        "generators.least_squares.max_nfev_hits":
            (n("generators.least_squares.max_nfev_hits", 0), "count"),
    }
    for gen in GENERATORS:
        out[f"generators.{gen}.s"] = (s(f"generators.{gen}"), "s")
    for fn in ("build_f2", "build_f1", "f1_kernel_constraints"):
        out[f"avgcore.{fn}.calls"] = (c(f"avgcore.{fn}"), "count")
        out[f"avgcore.{fn}.s"] = (s(f"avgcore.{fn}"), "s")
    out.update({
        "trigkernel.definite.calls": (c("trigkernel.HarmonicSum.definite"), "count"),
        "trigkernel.definite.s": (s("trigkernel.HarmonicSum.definite"), "s"),
        "trigkernel.trig_I.calls": (c("trigkernel.trig_I"), "count"),
        "trigkernel.memo_entries": (len(getattr(trigkernel, "_I_CACHE", ())), "count"),
        "rootfind.find_simple_zeros.calls": (c("rootfind.find_simple_zeros"), "count"),
        "rootfind.find_simple_zeros.s": (s("rootfind.find_simple_zeros"), "s"),
        "rootfind.seeds": (seeds, "count"),
        "rootfind.converged": (n("rootfind.converged", 0), "count"),
        "rootfind.diverged": (n("rootfind.diverged", 0), "count"),
        "rootfind.r_min_hits": (n("rootfind.r_min_hits", 0), "count"),
        "rootfind.simple_zeros": (n("rootfind.simple_zeros", 0), "count"),
        "rootfind.useful_ratio":
            (n("rootfind.simple_zeros", 0) / seeds if seeds else 0.0, "ratio"),
        "rootfind.newton_steps": (n("rootfind.newton_steps", 0), "count"),
        "polyalg.poly_eval.calls": (c("polyalg.Poly.__call__"), "count"),
        "polyalg.poly_eval.s": (s("polyalg.Poly.__call__"), "s"),
        "polyalg.diff.calls": (c("polyalg.Poly.diff"), "count"),
        "polyalg.jacobian.calls": (c("polyalg.jacobian"), "count"),
        "polyalg.jacobian.s": (s("polyalg.jacobian"), "s"),
        "flowsim.refine_cycle.calls": (c("flowsim.refine_cycle"), "count"),
        "flowsim.refine_cycle.s": (s("flowsim.refine_cycle"), "s"),
        "flowsim.return_map.calls": (c("flowsim.return_map"), "count"),
        "flowsim.solve_ivp.calls": (c("flowsim.solve_ivp"), "count"),
        "flowsim.solve_ivp.nfev": (n("flowsim.solve_ivp.nfev", 0), "count"),
        "avgcore.oracle.calls": (c("avgcore.oracle_f1", "avgcore.oracle_f2"), "count"),
        "avgcore.oracle.s": (s("avgcore.oracle_f1", "avgcore.oracle_f2"), "s"),
        "avgcore.quad_vec.calls": (c("avgcore.quad_vec"), "count"),
        "sysspec.table_eval.calls":
            (c("sysspec.CoefficientTable.eval", "sysspec.CoefficientTable.eval_grad"), "count"),
        "sysspec.table_eval.s":
            (s("sysspec.CoefficientTable.eval", "sysspec.CoefficientTable.eval_grad"), "s"),
        "cli.main.s": (s("cli.main"), "s"),
        "repro.build_report.s": (s("repro.build_report"), "s"),
    })
    for module in MODULES:
        out[f"{module}.self_s"] = (tr.self_s[module], "s")
    return out
