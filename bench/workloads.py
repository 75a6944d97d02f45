"""The three workloads, their seeded draws, and the correctness reference.

``pool.json`` (written once by ``freeze.py``, at d228720) holds the
candidate surfaces of ``lfun_deep`` and ``sweep_small``, each with the
(p, e, deg_l, L depth) bin it was drawn into, and the reference report
fields of every candidate and of the four catalog surfaces.  A run draws a
seeded, stratified sample from the pool, so every draw has a frozen
reference whatever the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

BENCH = Path(__file__).resolve().parent
POOL = BENCH / "pool.json"

CATALOG = ("generic_i1_f5", "legendre_f5", "x3_plus_t_f5", "x3_plus_t_f7")
# sweep_small draws 16 surfaces per prime.  Per-surface time grows with p,
# so sorted times fall into three blocks of 16: p50 (rank 24.5 of 48) sits
# in the middle of the GF(7) block and p75 (rank 36.75) inside the GF(11)
# block, away from the block edges where a quantile would jump.
SWEEP_QUOTA = {5: 16, 7: 16, 11: 16}
# lfun_deep: L depth 5 over GF(5); "fe" is the half-expansion path of
# l_function (completed by the functional equation), "full" the full one
DEEP_QUOTA = {"fe": 2, "full": 3}

# report fields compared against the reference; the flags echo is left out
REF_FIELDS = ("fibers", "p2_product", "l_poly", "p2_star", "l_star", "q2_star",
              "predicted_br", "predicted_sha")


def config_text(p: int, a4: list, a6: list, torsion: int | None = None) -> str:
    lines = ["[field]", f"p = {p}", "[model]",
             "a4 = " + ", ".join(map(str, a4)), "a6 = " + ", ".join(map(str, a6))]
    if torsion is not None:
        lines += ["[metadata]", "mw_rank = 0", f"mw_torsion_order = {torsion}"]
    lines += ["[limits]", "n_max = 2"]
    return "\n".join(lines) + "\n"


def load_pool() -> dict:
    return json.loads(POOL.read_text(encoding="utf-8"))


def draw(workload: str, seed: int, pool: dict) -> list[dict]:
    """The surfaces of one run, in the order they are run.  Each is
    ``{"id", "config", "argv", "bin", "ref"}``; ``argv`` has a ``{config}``
    placeholder for the config file path, except for catalog surfaces."""
    from ellsurf.catalog import CATALOG as ENTRIES

    if workload == "catalog":
        return [{"id": name, "config": ENTRIES[name].config_text,
                 "argv": ["report", "--catalog", name], "bin": None,
                 "ref": pool["catalog"][name]} for name in CATALOG]
    rng = random.Random(f"{workload}:{seed}")
    cands = pool[workload]
    if workload == "lfun_deep":
        strata = [([c for c in cands if c["bin"]["path"] == k], n) for k, n in DEEP_QUOTA.items()]
    elif workload == "sweep_small":
        strata = [([c for c in cands if c["bin"]["p"] == p], n) for p, n in SWEEP_QUOTA.items()]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    picked = [c for group, n in strata for c in rng.sample(group, n)]
    rng.shuffle(picked)
    return [{"id": c["id"], "config": c["config"], "argv": ["report", "--config", "{config}"],
             "bin": c["bin"], "ref": c["ref"]} for c in picked]


def observe_bin(config: str) -> dict:
    """(p, e, deg_l, L depth, expansion path) of a config, from the program."""
    from ellsurf.cli import build_model, parse_config
    from ellsurf.tatefiber import global_invariants
    from ellsurf.verify import l_places_depth

    model, _, limits = build_model(parse_config(config))
    inv, _ = global_invariants(model)
    fe = inv.deg_l + limits.surplus_margin > limits.place_degree_cap
    return {"p": model.field.p, "e": inv.e, "deg_l": inv.deg_l,
            "depth": l_places_depth(inv, limits), "path": "fe" if fe else "full"}


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def reference(report: dict) -> dict:
    """The frozen form of a report: its counts, the checks that PASSed and
    a digest of every field in REF_FIELDS."""
    return {
        "counts": report["counts"],
        "passed": [c["name"] for c in report["checks"] if c["status"] == "PASS"],
        "digests": {k: _digest(report[k]) for k in REF_FIELDS},
    }


def failures(result: dict, ref: dict) -> list[str]:
    """Why one surface's run failed against its reference; empty if it did not."""
    if result["error"]:
        return [f"raised {result['error']}"]
    out = []
    if result["rc"] != 0:
        out.append(f"exit status {result['rc']}")
    try:
        report = json.loads(result["stdout"])
    except ValueError:
        return out + ["no JSON report"]
    # .get: a field missing from the report is a difference, not a crash
    status = {c.get("name"): c.get("status") for c in report.get("checks", [])}
    out += [f"check {n} FAIL" for n, s in status.items() if s == "FAIL"]
    out += [f"check {n} {status.get(n, 'missing')}, was PASS"
            for n in ref["passed"] if status.get(n) not in ("PASS", "FAIL")]
    if report.get("counts", [])[: len(ref["counts"])] != ref["counts"]:
        out.append("counts prefix differs")
    out += [f"{k} differs" for k in REF_FIELDS if _digest(report.get(k)) != ref["digests"][k]]
    return out
