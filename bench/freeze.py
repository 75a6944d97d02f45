#!/usr/bin/env python3
"""Build ``bench/pool.json``: the candidate surfaces and their reference.

    python3 bench/freeze.py

Run once, at the commit whose reports are the reference; a later commit is
checked against what this wrote.  Candidates are sparse random short
Weierstrass models y^2 = x^3 + a4(t) x + a6(t), drawn with a fixed seed and
kept when ``global_invariants`` and ``l_places_depth`` put them in a
workload's bin.  A kept candidate is then run through ``ellsurf report``
and enters the pool only if it exits 0 with no FAIL check; the rejects are
counted in the pool's ``freeze`` notes.

sweep_small candidates declare ``mw_rank = 0`` (deg L = 0 forces rank 0)
and the smallest ``mw_torsion_order`` in TORSION_TRIALS whose report has no
FAIL, so the Neron-Severi and predicted-order checks run on them.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from ellsurf import cli  # noqa: E402
from ellsurf.errors import EllsurfError  # noqa: E402

import workloads  # noqa: E402

SWEEP_PER_PRIME = 36
DEEP_PER_PATH = {"fe": 8, "full": 12}
MAX_DRAWS = 6000
TORSION_TRIALS = (1, 2, 3, 4, 5, 6, 8, 9)
# (deg a4, deg a6) bounds: e = 12 (rational) and e = 24 (K3) shapes
SHAPES = {12: (4, 6), 24: (8, 12)}


def sparse_poly(rng, p: int, degree: int) -> list[int]:
    coeffs = [0] * (degree + 1)
    for i in rng.sample(range(degree + 1), rng.choice((1, 2, 3))):
        coeffs[i] = rng.randrange(1, p)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def run_report(config: str) -> tuple[int, dict | None]:
    path = BENCH.parent / ".bench_out" / "freeze.cfg"
    path.parent.mkdir(exist_ok=True)
    path.write_text(config, encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(["report", "--config", str(path)])
    return rc, json.loads(out.getvalue()) if out.getvalue() else None


def clean(rc, report) -> bool:
    return rc == 0 and not any(c["status"] == "FAIL" for c in report["checks"])


def binned(rng, p, shape, want, notes):
    """Distinct draws over GF(p) whose bin satisfies ``want``."""
    seen = set()
    for _ in range(MAX_DRAWS):
        deg4, deg6 = SHAPES[shape()]
        a4, a6 = sparse_poly(rng, p, deg4), sparse_poly(rng, p, deg6)
        if (tuple(a4), tuple(a6)) in seen:
            continue
        seen.add((tuple(a4), tuple(a6)))
        notes["draws"] += 1
        try:
            b = workloads.observe_bin(workloads.config_text(p, a4, a6))
        except EllsurfError:
            continue
        if want(b):
            yield a4, a6, b


def freeze_sweep(notes) -> list[dict]:
    pool = []
    for p in workloads.SWEEP_QUOTA:
        rng = random.Random(f"freeze:sweep_small:{p}")
        kept = 0
        for a4, a6, b in binned(rng, p, lambda: 12, lambda b: b["e"] == 12 and b["depth"] <= 2, notes):
            for t in TORSION_TRIALS:
                config = workloads.config_text(p, a4, a6, torsion=t)
                rc, report = run_report(config)
                if clean(rc, report):
                    break
            else:
                notes["rejected"] += 1
                continue
            pool.append({"id": f"s{p}-{kept:02d}", "config": config, "bin": b,
                         "ref": workloads.reference(report)})
            kept += 1
            if kept == SWEEP_PER_PRIME:
                break
    return pool


def freeze_deep(notes) -> list[dict]:
    rng = random.Random("freeze:lfun_deep")
    pool, kept = [], {k: 0 for k in DEEP_PER_PATH}
    shape = lambda: rng.choice((12, 24))  # noqa: E731
    for a4, a6, b in binned(rng, 5, shape, lambda b: b["depth"] == 5, notes):
        path = b["path"]
        if kept[path] == DEEP_PER_PATH[path]:
            continue
        config = workloads.config_text(5, a4, a6)
        rc, report = run_report(config)
        if not clean(rc, report):
            notes["rejected"] += 1
            continue
        pool.append({"id": f"d-{path}-{kept[path]:02d}", "config": config, "bin": b,
                     "ref": workloads.reference(report)})
        kept[path] += 1
        if kept == DEEP_PER_PATH:
            break
    return pool


def main() -> int:
    catalog = {}
    for name in workloads.CATALOG:
        out = io.StringIO()
        with redirect_stdout(out):
            rc = cli.main(["report", "--catalog", name])
        report = json.loads(out.getvalue())
        if not clean(rc, report):
            raise SystemExit(f"catalog surface {name} does not verify")
        catalog[name] = workloads.reference(report)
    notes = {"sweep_small": {"draws": 0, "rejected": 0}, "lfun_deep": {"draws": 0, "rejected": 0}}
    pool = {
        "freeze": notes,
        "catalog": catalog,
        "sweep_small": freeze_sweep(notes["sweep_small"]),
        "lfun_deep": freeze_deep(notes["lfun_deep"]),
    }
    workloads.POOL.write_text(json.dumps(pool, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(notes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
