"""The per-process caches keyed by field value (the oracle's place models
and point-counter tables, the kernel's place keys and Frobenius orbits) and
by fiber type (component Grams and discriminants) change no report:
reports made in one process that interleaves base fields, an extension
base field and the catalog are byte-identical to the same reports made
with every one of those caches emptied first."""

import contextlib
import io

from ellsurf import oracle, tatefiber, zeta
from ellsurf.cli import main

GF25 = "[field]\np = 5\nmodulus = 2, 0, 1\n[model]\na4 = 0, 1\na6 = 0, 1\n"
# III at infinity, at t + 4 and at the degree-2 place t^2 + 3t + 4
III_TWICE = "[field]\np = 5\n[model]\na4 = 3, 3, 1, 3\na6 = 0\n"
SWEEP_F7 = (
    "[field]\np = 7\n[model]\na4 = 0, 0, 4\na6 = 0, 0, 0, 4\n"
    "[metadata]\nmw_rank = 0\nmw_torsion_order = 1\n[limits]\nn_max = 2\n"
)
SWEEP_F11 = (
    "[field]\np = 11\n[model]\na4 = 0, 0, 0, 0, 5\na6 = 0, 0, 0, 0, 0, 6\n"
    "[metadata]\nmw_rank = 0\nmw_torsion_order = 1\n[limits]\nn_max = 2\n"
)
CACHES = (
    oracle._PLACE_MODELS,
    oracle._COUNTER_TABLES,
    tatefiber._COMPONENT_LATTICES,
    zeta._PLACE_KEYS,
    zeta._ORBITS,
)


def _report(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["report", *argv])
    return rc, out.getvalue(), err.getvalue()


def test_reports_do_not_depend_on_the_field_caches(tmp_path):
    configs = {}
    for name, text in (("f25", GF25), ("iii", III_TWICE), ("f7", SWEEP_F7), ("f11", SWEEP_F11)):
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        configs[name] = ["--config", str(path)]
    catalog = {name: ["--catalog", name] for name in
               ("x3_plus_t_f5", "x3_plus_t_f7", "legendre_f5", "generic_i1_f5")}
    order = ["x3_plus_t_f5", "f25", "f7", "iii", "x3_plus_t_f7", "f11", "legendre_f5",
             "f25", "generic_i1_f5", "iii", "f7", "f11"]
    argvs = {**configs, **catalog}
    interleaved = [_report(argvs[name]) for name in order]
    assert all(cache for cache in CACHES)
    for name, got in zip(order, interleaved):
        for cache in CACHES:
            cache.clear()
        assert _report(argvs[name]) == got, name
    assert [rc for rc, _, _ in interleaved] == [0] * len(order)
