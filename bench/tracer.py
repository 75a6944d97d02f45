"""Span tracing of the ellsurf layers, from outside the program.

``Tracer.install`` wraps every public module-level function of the layer
modules in a span and rebinds every name that refers to the original, in
every loaded ``ellsurf`` module, so that calls through ``from .x import y``
bindings (``verify.surface_counts``, ``cli.compute_l``, ...) are seen too.
Generator functions are left alone: their call returns before any work.

A span is ``[name id, start ns, end ns, parent span, surface id, note]``.
Spans are kept in memory and written out by ``Tracer.dump``; ``layer_metrics``
turns them into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "verify", "tatefiber", "ffield", "zeta", "exactalg", "lattice")

NAME, START, END, PARENT, SURFACE, NOTE = range(6)


def _result_len(args, kwargs, result, error):
    return None if result is None else len(result)


def _surface_counts_note(args, kwargs, result, error):
    # (q, n_max): enough to rebuild the levels counted and sum q^(2n)
    model = args[0]
    n_max = args[2] if len(args) > 2 else kwargs["n_max"]
    return [model.field.q, n_max]


def _place_key(args, kwargs, result, error):
    place = args[2] if len(args) > 2 else kwargs["place"]
    return repr(place.sort_key())


def _error_name(args, kwargs, result, error):
    return error


# per-span notes: a small value taken from the call, kept with the span
NOTES = {
    "tatefiber.bad_fibers": _result_len,
    "ffield.places_enumerate": _result_len,
    "zeta.surface_counts": _surface_counts_note,
    "zeta.local_factor": _place_key,
    "exactalg.functional_equation_complete": _error_name,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.surface = -1

    def _wrap(self, qualname: str, fn, note=None, pre=None):
        name_id = len(self.names)
        self.names.append(qualname)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name_id, 0, 0, stack[-1] if stack else -1, self.surface, None]
            spans.append(span)
            stack.append(idx)
            if pre is not None:
                span[NOTE] = pre(args, kwargs)
            result = error = None
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
                if note is not None:
                    span[NOTE] = note(args, kwargs, result, error)

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer module in spans."""
        import ellsurf.cli  # noqa: F401  (loads every layer module)

        zeta = sys.modules["ellsurf.zeta"]

        def coded_field_pre(args, kwargs):
            # a build is the first call per (p, n) in the process
            p, n = args[:2]
            return ["hit" if (p, n) in zeta._CODED_CACHE else "build", p**n]

        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"ellsurf.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                qualname = f"{layer}.{attr}"
                pre = coded_field_pre if qualname == "zeta.coded_field" else None
                originals[id(obj)] = self._wrap(qualname, obj, NOTES.get(qualname), pre)
        for name, mod in list(sys.modules.items()):
            if name != "ellsurf" and not name.startswith("ellsurf."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and getattr(wrapper, "__wrapped__", None) is obj:
                    setattr(mod, attr, wrapper)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "surface", "note"],
                 "names": self.names, "spans": self.spans},
                fh,
                separators=(",", ":"),
            )


def span_table(names: list[str], spans: list[list]) -> dict:
    """Per function: calls, inclusive seconds (outermost spans of that name
    only, so recursion is not counted twice) and self seconds (duration
    minus the time covered by direct child spans)."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, s in enumerate(spans):
        row = table[names[s[NAME]]]
        dur = s[END] - s[START]
        row["calls"] += 1
        row["self_s"] += (dur - child_ns[i]) / 1e9
        if names[s[NAME]] not in _ancestor_names(names, spans, i):
            row["s"] += dur / 1e9
    return dict(table)


def _ancestor_names(names, spans, i):
    p = spans[i][PARENT]
    while p >= 0:
        yield names[spans[p][NAME]]
        p = spans[p][PARENT]


def layer_metrics(names: list[str], spans: list[list]) -> dict:
    """The per-layer metrics, as plain numbers keyed by metric name."""
    table = span_table(names, spans)

    def row(name):
        return table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    def of(name):
        return [(i, s) for i, s in enumerate(spans) if names[s[NAME]] == name]

    def dur(s):
        return (s[END] - s[START]) / 1e9

    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(names[s[NAME]])

    m = {}
    for name in ("cli.parse_config", "cli.build_model", "cli.report_json"):
        m[f"{name}.s"] = row(name)["s"]

    # verify
    m["verify.compute_l.s"] = row("verify.compute_l")["s"]
    m["verify.compute_l.calls"] = row("verify.compute_l")["calls"]
    m["verify.compute_l.rerun_s"] = sum(
        dur(s)
        for i, s in of("verify.compute_l")
        if "verify.run_verification" not in _ancestor_names(names, spans, i)
    )
    m["verify.check_good_place_sanity.s"] = row("verify.check_good_place_sanity")["s"]
    check_names = {
        n for n in table
        if n.startswith("verify.check_") or n in ("verify.build_ns", "verify.predict_orders")
    }
    m["verify.checks.s"] = sum(
        dur(s)
        for i, s in enumerate(spans)
        if names[s[NAME]] in check_names
        and not check_names.intersection(_ancestor_names(names, spans, i))
    )
    m["verify.run_verification.self_s"] = row("verify.run_verification")["self_s"]

    # tatefiber
    m["tatefiber.bad_fibers.s"] = row("tatefiber.bad_fibers")["s"]
    m["tatefiber.bad_fibers.places"] = sum(s[NOTE] or 0 for _, s in of("tatefiber.bad_fibers"))
    m["tatefiber.tate_local.s"] = row("tatefiber.tate_local")["s"]
    m["tatefiber.tate_local.calls"] = row("tatefiber.tate_local")["calls"]
    by_parent = {"bad_fibers": "tatefiber.bad_fibers", "local_factor": "zeta.local_factor",
                 "good_place_sanity": "verify.check_good_place_sanity"}
    split = {k: [0.0, 0] for k in (*by_parent, "other")}
    for _, s in of("tatefiber.tate_local"):
        parent = names[spans[s[PARENT]][NAME]] if s[PARENT] >= 0 else ""
        key = next((k for k, v in by_parent.items() if v == parent), "other")
        split[key][0] += dur(s)
        split[key][1] += 1
    for key, (secs, calls) in split.items():
        m[f"tatefiber.tate_local.in_{key}.s"] = secs
        m[f"tatefiber.tate_local.in_{key}.calls"] = calls
    m["tatefiber.curve_point_count.s"] = row("tatefiber.curve_point_count")["s"]
    m["tatefiber.curve_point_count.calls"] = row("tatefiber.curve_point_count")["calls"]

    # ffield
    m["ffield.places_enumerate.s"] = row("ffield.places_enumerate")["s"]
    m["ffield.places_enumerate.calls"] = row("ffield.places_enumerate")["calls"]
    m["ffield.places_enumerate.places"] = sum(s[NOTE] or 0 for _, s in of("ffield.places_enumerate"))
    m["ffield.find_irreducible.s"] = row("ffield.find_irreducible")["s"]
    m["ffield.find_irreducible.calls"] = row("ffield.find_irreducible")["calls"]

    # zeta: counting kernel
    counts = of("zeta.surface_counts")
    m["zeta.surface_counts.s"] = row("zeta.surface_counts")["s"]
    m["zeta.surface_counts.calls"] = len(counts)
    counted, distinct, char_evals = 0, {}, 0
    for _, s in counts:
        q, n_max = s[NOTE]
        counted += n_max
        distinct[s[SURFACE]] = max(distinct.get(s[SURFACE], 0), n_max)
        char_evals += sum(q ** (2 * n) for n in range(1, n_max + 1))
    m["zeta.surface_counts.levels_useful_ratio"] = (
        sum(distinct.values()) / counted if counted else 1.0
    )
    m["zeta.surface_counts.ns_per_char_eval"] = (
        m["zeta.surface_counts.s"] * 1e9 / char_evals if char_evals else 0.0
    )
    builds = [s for _, s in of("zeta.coded_field") if s[NOTE][0] == "build"]
    calls = len(of("zeta.coded_field"))
    m["zeta.coded_field.build_s"] = sum(dur(s) for s in builds)
    m["zeta.coded_field.builds"] = len(builds)
    m["zeta.coded_field.hit_ratio"] = (calls - len(builds)) / calls if calls else 0.0
    m["zeta.coded_field.max_N"] = max((s[NOTE][1] for s in builds), default=0)

    # zeta: good local factors and the Euler product
    coded = pure = 0.0
    keys = set()
    lf = of("zeta.local_factor")
    for i, s in lf:
        kids = children.get(i, ())
        if "zeta.good_trace_coded" in kids:
            coded += dur(s)
        elif "tatefiber.tate_local" in kids:
            pure += dur(s)
        keys.add((s[SURFACE], s[NOTE]))
    m["zeta.local_factor.coded_s"] = coded
    m["zeta.local_factor.pure_s"] = pure
    m["zeta.local_factor.distinct_ratio"] = len(keys) / len(lf) if lf else 1.0
    m["zeta.good_trace_coded.s"] = row("zeta.good_trace_coded")["s"]
    m["zeta.good_trace_coded.calls"] = row("zeta.good_trace_coded")["calls"]
    m["zeta.l_function.self_s"] = row("zeta.l_function")["self_s"]
    for name in ("zeta.p2_from_counts", "zeta.p2_from_product", "zeta.bad_correction"):
        m[f"{name}.s"] = row(name)["s"]

    # exactalg
    m["exactalg.newton_from_power_sums.s"] = row("exactalg.newton_from_power_sums")["s"]
    fe = of("exactalg.functional_equation_complete")
    m["exactalg.functional_equation_complete.s"] = row("exactalg.functional_equation_complete")["s"]
    m["exactalg.functional_equation_complete.calls"] = len(fe)
    m["exactalg.functional_equation_complete.failed"] = sum(
        1 for _, s in fe if s[NOTE] == "NoConsistentSign"
    )
    m["exactalg.leading_term.s"] = row("exactalg.leading_term")["s"]

    # lattice
    for name in ("lattice.ns_lattice_build", "lattice.discriminant", "lattice.snf"):
        m[f"{name}.s"] = row(name)["s"]
    m["lattice.snf.calls"] = row("lattice.snf")["calls"]

    # self time of each layer: where the traced run's time went
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            r["self_s"] for n, r in table.items() if n.split(".", 1)[0] == layer
        )
    return m

