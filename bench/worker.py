"""One workload pass in a fresh, single-threaded process.

    python3 bench/worker.py MANIFEST RESULT [--trace SPANS]
    python3 bench/worker.py MANIFEST --setup-only

MANIFEST is a JSON list of surfaces, each ``{"argv": [...], "config": text}``.
A pass runs ``ellsurf.cli.main(argv)`` on each surface in order (closed
loop: one client, the next surface starts when the previous report is
done) and writes RESULT: the wall time from process start to the last
report, the peak resident memory, and per surface the exit status, any
exception, the seconds from call to report and the report text.

``--setup-only`` imports ``ellsurf.cli`` and runs ``parse_config`` and
``build_model`` on every config, and nothing else: the parent times the
whole process.  ``--trace SPANS`` wraps the layers in spans first and
writes the spans to SPANS and the per-layer metrics into RESULT.
"""

import time

T0 = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def main(argv):
    manifest = json.loads(Path(argv[0]).read_text(encoding="utf-8"))

    from ellsurf import cli

    if argv[1] == "--setup-only":
        for surface in manifest:
            cli.build_model(cli.parse_config(surface["config"]))
        return 0

    out = Path(argv[1])
    trace_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    surfaces = []
    for sid, surface in enumerate(manifest):
        if tracer:
            tracer.surface = sid
        stdout, stderr = io.StringIO(), io.StringIO()
        rc = error = None
        t = time.perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                rc = cli.main(surface["argv"])
        except Exception as exc:  # a raising surface is a failed surface
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t
        surfaces.append({"rc": rc, "error": error, "seconds": seconds,
                         "stdout": stdout.getvalue(), "stderr": stderr.getvalue()})
    wall_s = time.perf_counter() - T0
    result = {
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "surfaces": surfaces,
    }
    if tracer:
        from tracer import layer_metrics, span_table

        tracer.dump(trace_path)
        result["spans"] = len(tracer.spans)
        result["layer_metrics"] = layer_metrics(tracer.names, tracer.spans)
        result["span_table"] = span_table(tracer.names, tracer.spans)
    out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
