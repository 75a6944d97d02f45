"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

The traced-run test runs the four catalog surfaces twice (about a minute).
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(BENCH))

import workloads  # noqa: E402
from ellsurf.catalog import DIGESTS  # noqa: E402
from ellsurf.cli import report_digest  # noqa: E402


def _pass(tmp_path, manifest, name, trace):
    out = tmp_path / f"{name}.json"
    args = [sys.executable, str(BENCH / "worker.py"), str(manifest), str(out)]
    if trace:
        args += ["--trace", str(tmp_path / "spans.json")]
    subprocess.run(args, check=True, cwd=ROOT, timeout=600)
    return json.loads(out.read_text())


def test_traced_catalog_reports_byte_identical(tmp_path):
    draws = workloads.draw("catalog", 0, workloads.load_pool())
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"argv": d["argv"], "config": d["config"]} for d in draws]))
    plain = _pass(tmp_path, manifest, "plain", trace=False)
    traced = _pass(tmp_path, manifest, "traced", trace=True)
    assert traced["spans"] > 0
    for d, a, b in zip(draws, plain["surfaces"], traced["surfaces"]):
        assert report_digest(a["stdout"].strip()) == DIGESTS[d["id"]], d["id"]
        assert report_digest(b["stdout"].strip()) == DIGESTS[d["id"]], d["id"]
        assert a["stdout"] == b["stdout"], d["id"]


def test_tracer_rebinds_imported_names():
    import ellsurf.cli as cli
    import ellsurf.verify as verify
    import ellsurf.zeta as zeta
    from tracer import Tracer

    originals = (verify.surface_counts, cli.compute_l, zeta.coded_field)
    tracer = Tracer()
    try:
        tracer.install()
        for fn in (verify.surface_counts, cli.compute_l, zeta.coded_field):
            assert fn.__wrapped__ in originals
        assert verify.compute_l is cli.compute_l
    finally:
        # undo the wrapping for the rest of this process
        for mod in [m for n, m in sys.modules.items() if n.startswith("ellsurf.")]:
            for attr, obj in list(vars(mod).items()):
                if callable(obj) and hasattr(obj, "__wrapped__"):
                    setattr(mod, attr, obj.__wrapped__)


def _surface(report):
    return {"error": None, "rc": 0, "stdout": json.dumps(report)}


def test_reference_ignores_flags_and_catches_semantic_changes(tmp_path):
    import io
    from contextlib import redirect_stdout

    from ellsurf import cli

    cand = workloads.load_pool()["sweep_small"][0]
    path = tmp_path / "s.cfg"
    path.write_text(cand["config"])
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["report", "--config", str(path)]) == 0
    report = json.loads(out.getvalue())
    assert workloads.failures(_surface(report), cand["ref"]) == []
    report["flags"].pop("threads")
    assert workloads.failures(_surface(report), cand["ref"]) == []
    passed = next(c for c in report["checks"] if c["name"] in cand["ref"]["passed"])
    passed["status"] = "CONDITIONAL"
    report["l_poly"] = report["l_poly"] + ["0"]
    why = workloads.failures(_surface(report), cand["ref"])
    assert f"check {passed['name']} CONDITIONAL, was PASS" in why
    assert "l_poly differs" in why


def test_benchmark_json_names_every_reported_metric():
    import run
    from tracer import layer_metrics

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    fake_pass = {"wall_s": 1.0, "peak_rss_mb": 1.0, "spans": 0,
                 "layer_metrics": layer_metrics([], []),
                 "surfaces": [{"seconds": x} for x in (1.0, 2.0, 3.0)]}
    e2e = run.end_to_end_metrics([run.pass_summary(fake_pass)], [1.0])
    layers = run.per_layer_metrics(fake_pass, fake_pass, 0.0)
    for listed, reported in ((bench["end_to_end"], e2e), (bench["per_layer"], layers)):
        assert [m["name"] for m in listed] == list(reported)
        assert all(m["unit"] == reported[m["name"]]["unit"] for m in listed)
