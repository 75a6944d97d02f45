#!/usr/bin/env python3
"""The ellsurf benchmark.

    python3 bench/run.py --workload {catalog,lfun_deep,sweep_small}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; it imports ``ellsurf`` from
``src/``.  Set-up draws the workload's surfaces from the seed, writes their
configs under ``.bench_out/`` and times ``SETUP_REPEATS`` fresh interpreters
that import ``ellsurf.cli`` and parse and build every config.  With
``--trace 0`` it then runs workload passes, each in a fresh process, while
another pass still fits in S seconds (at least one), and reports the median
of the end-to-end metrics over the passes.  With ``--trace 1`` it runs one
untraced pass and one traced pass, checks that every report of the traced
pass is byte-identical to the untraced one, and reports the per-layer
metrics.  Every report is checked against the frozen reference in
``pool.json``.  A run record with the machine notes, the drawn configs and
every sample goes to ``.bench_out/<workload>-seed<N>-trace<T>/record.json``;
the last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 7
PASS_TIMEOUT_S = 170
# numpy and its BLAS stay on one thread: the workloads are single-threaded
WORKER_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")


def machine_notes() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or platform.machine(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ellsurf").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def worker(args: list[str]) -> float:
    """Run bench/worker.py in a fresh process; its wall time in seconds.

    The wait blocks on the child instead of polling, as ``wait(timeout)``
    does in 50 ms steps that would show up in the set-up time; a timer
    kills a child that runs past PASS_TIMEOUT_S."""
    t = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            env=WORKER_ENV, cwd=ROOT)
    timer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        rc = proc.wait()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - t
    if rc != 0:
        raise subprocess.CalledProcessError(rc, proc.args)
    return elapsed


def run_pass(manifest: Path, out: Path, n: int, spans: Path | None = None) -> dict:
    result = out / f"pass{n}.json"
    worker([str(manifest), str(result)] + (["--trace", str(spans)] if spans else []))
    return json.loads(result.read_text(encoding="utf-8"))


def pass_summary(p: dict) -> dict:
    _, p50, p75 = statistics.quantiles([s["seconds"] for s in p["surfaces"]], n=4)
    return {"wall_s": p["wall_s"], "surface_s.p50": p50, "surface_s.p75": p75,
            "peak_rss_mb": p["peak_rss_mb"]}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(summaries: list[dict], setup: list[float]) -> dict:
    """Medians over the passes (and over the set-up probes)."""
    out = {k: metric(statistics.median(s[k] for s in summaries), "s")
           for k in ("wall_s", "surface_s.p50", "surface_s.p75")}
    out["setup_s"] = metric(statistics.median(setup), "s")
    out["peak_rss_mb"] = metric(statistics.median(s["peak_rss_mb"] for s in summaries), "MB")
    return out


def per_layer_metrics(untraced: dict, traced: dict, failed_frac: float) -> dict:
    values = dict(traced["layer_metrics"])
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.untraced_wall_s"] = untraced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    values["trace.spans"] = traced["spans"]
    values["failed_frac"] = failed_frac
    return {k: metric(v, layer_unit(k)) for k, v in values.items()}


def layer_unit(name: str) -> str:
    if name.endswith(("_ratio", "failed_frac")):
        return "ratio"
    if name.endswith("ns_per_char_eval"):
        return "ns"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("catalog", "lfun_deep", "sweep_small"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ellsurf" / "cli.py").is_file():
        print(f"bench: no ellsurf source at {ROOT / 'src' / 'ellsurf'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from ellsurf.catalog import DIGESTS
    from ellsurf.cli import report_digest
    from ellsurf.errors import EllsurfError

    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)

    # set-up: seeded draw, bins observed by the program, config files
    draws = workloads.draw(args.workload, args.seed, workloads.load_pool())
    failed_draws = []
    manifest = []
    for i, d in enumerate(draws):
        try:
            d["observed_bin"] = workloads.observe_bin(d["config"])
        except EllsurfError as exc:
            d["observed_bin"] = {"error": f"{type(exc).__name__}: {exc}"}
        if d["bin"] is not None and d["observed_bin"] != d["bin"]:
            failed_draws.append(d["id"])
        path = out / f"{i:02d}.cfg"
        path.write_text(d["config"], encoding="utf-8")
        manifest.append({"argv": [a.replace("{config}", str(path)) for a in d["argv"]],
                         "config": d["config"]})
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    setup = [worker([str(manifest_path), "--setup-only"])
             for _ in range(SETUP_REPEATS)]

    # measurement
    passes = []
    if args.trace:
        passes.append(run_pass(manifest_path, out, 0))
        passes.append(run_pass(manifest_path, out, 1, spans=out / "spans.json"))
    else:
        start = time.perf_counter()
        while True:
            passes.append(run_pass(manifest_path, out, len(passes)))
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break

    # correctness
    failures, digest_mismatches = [], []
    attempted = 0
    for n, p in enumerate(passes):
        for d, s in zip(draws, p["surfaces"]):
            attempted += 1
            why = workloads.failures(s, d["ref"])
            if d["id"] in failed_draws:
                why.append("drawn bin differs from the frozen bin")
            if why:
                failures.append({"pass": n, "surface": d["id"], "why": why})
            if args.workload == "catalog":
                if report_digest(s["stdout"].strip()) != DIGESTS.get(d["id"]):
                    digest_mismatches.append({"pass": n, "surface": d["id"]})
    identical = True
    if args.trace:
        identical = all(a["stdout"] == b["stdout"]
                        for a, b in zip(passes[0]["surfaces"], passes[1]["surfaces"]))
    correct = not failures and not digest_mismatches and identical

    summaries = [pass_summary(p) for p in passes]
    failed_frac = len(failures) / attempted
    if args.trace:
        metrics = per_layer_metrics(passes[0], passes[1], failed_frac)
    else:
        metrics = end_to_end_metrics(summaries, setup)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_notes(),
        "draws": [{k: d.get(k) for k in ("id", "config", "bin", "observed_bin")} for d in draws],
        "setup_s": setup,
        "passes": [dict(summary, traced=bool(args.trace and n == 1),
                        surface_s=[s["seconds"] for s in p["surfaces"]],
                        report_sha256=[hashlib.sha256(s["stdout"].encode()).hexdigest()
                                       for s in p["surfaces"]])
                   for n, (summary, p) in enumerate(zip(summaries, passes))],
        "failures": failures, "digest_mismatches": digest_mismatches,
        "traced_reports_identical": identical if args.trace else None,
        "failed_frac": failed_frac,
        "metrics": metrics,
    }
    if args.trace:
        record["span_table"] = passes[1]["span_table"]
        record["spans_file"] = str((out / "spans.json").relative_to(ROOT))
    (out / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for f in failures:
        print(f"FAILED {f['surface']} (pass {f['pass']}): {'; '.join(f['why'])}")
    for m in digest_mismatches:
        print(f"DIGEST MISMATCH {m['surface']} (pass {m['pass']})")
    if not identical:
        print("TRACED REPORTS DIFFER from the untraced pass")
    print(f"record: {(out / 'record.json').relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
