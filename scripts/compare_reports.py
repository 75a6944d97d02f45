#!/usr/bin/env python3
"""Compare `ellsurf report` between two source trees, byte for byte.

    python3 scripts/compare_reports.py BASE/src HEAD/src [--random 160] [--seed 1]

Runs every config of `bench/pool.json`, the built-in catalog, a seeded
draw of random long-form models (a1, a2, a3 nonzero) over GF(5), GF(7),
GF(11) and GF(25), one model with a degree-72 discriminant over GF(11)
(high-degree factoring and Tate, exit 3), and a few pool models made
non-minimal as (u^4 a4, u^6 a6) for u irreducible of degree 2 and 4,
through `ellsurf report` in one process per tree (one tree after the
other, so their total seconds compare), and compares stdout, stderr and
the exit status of each.  Prints one line per difference and a summary
with each tree's total seconds; exits 1 if anything differs.
"""

import argparse
import io
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120

# (p, modulus or None); GF(25) = GF(5)[z] / (z^2 + 2)
FIELDS = [(5, None), (7, None), (11, None), (5, [2, 0, 1])]

# Delta of degree 72 over GF(11): its factoring and Tate at places of high
# degree run before the point budget ends the report with exit 3
DEGREE_72 = ("degree72-gf11", "\n".join([
    "[field]", "p = 11", "[model]",
    "a1 = 2, -17, 6, 35, 40, 2, 11, 11, -13, 6, -9, -25, -7",
    "a6 = -5, -2, 14, -27", "",
]))


# pool models twisted by u of each degree in TWIST_DEGREES
TWISTED = ("s5-00", "s7-00", "s11-00", "d-fe-00")
TWIST_DEGREES = (2, 4)


def _coeff(rng, p, ext):
    if ext:
        return "(" + " ".join(str(rng.randrange(p)) for _ in range(2)) + ")"
    return str(rng.randrange(p))


def _poly(rng, p, ext, degree, nonzero):
    """Comma-separated coefficients of a random polynomial of degree at most
    ``degree``; with ``nonzero`` the constant term is a nonzero element."""
    while True:
        cs = [_coeff(rng, p, ext) for _ in range(degree + 1)]
        if not nonzero or cs[0] not in ("0", "(0 0)"):
            return ", ".join(cs)


def random_configs(count: int, seed: int) -> list:
    """Long-form models: a1, a2, a3 nonzero of degree <= their weight,
    a4 and a6 of degree <= their weight times k for k in {1, 2}."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        p, modulus = FIELDS[i % len(FIELDS)]
        ext = modulus is not None
        k = 1 if ext or rng.random() < 0.7 else 2
        lines = ["[field]", f"p = {p}"]
        if ext:
            lines.append("modulus = " + ", ".join(map(str, modulus)))
        lines.append("[model]")
        for name, w, nonzero in (("a1", 1, True), ("a2", 2, True), ("a3", 3, True),
                                 ("a4", 4 * k, False), ("a6", 6 * k, False)):
            lines.append(f"{name} = {_poly(rng, p, ext, rng.randrange(w + 1), nonzero)}")
        lines += ["[limits]", "n_max = 2", ""]
        out.append((f"random-{i:03d}-gf{p}{'^2' if ext else ''}", "\n".join(lines)))
    return out


def pool_configs() -> list:
    pool = json.loads((ROOT / "bench" / "pool.json").read_text())
    return [(c["id"], c["config"]) for w in ("sweep_small", "lfun_deep") for c in pool[w]]


def _times(f, g, p):
    """Product of two coefficient lists over GF(p), lowest degree first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def _divides(g, f, p):
    """Whether the monic g divides f over GF(p)."""
    r = list(f)
    for i in range(len(f) - len(g), -1, -1):
        c = r[i + len(g) - 1]
        for j, b in enumerate(g):
            r[i + j] = (r[i + j] - c * b) % p
    return not any(r)


def _monics(p, degree):
    for code in range(p**degree):
        yield [code // p**i % p for i in range(degree)] + [1]


def _irreducible(p, degree):
    """The first monic irreducible of the degree over GF(p), by trial division."""
    return next(
        f for f in _monics(p, degree)
        if not any(_divides(g, f, p) for e in range(1, degree // 2 + 1) for g in _monics(p, e))
    )


def twisted_configs() -> list:
    """The TWISTED pool models with a4, a6 replaced by u^4 a4, u^6 a6: the
    same surface through a model that is not minimal at u."""
    pool = dict(pool_configs())
    out = []
    for name in TWISTED:
        text = pool[name]
        p = next(int(line[4:]) for line in text.splitlines() if line.startswith("p = "))
        for degree in TWIST_DEGREES:
            u = _irreducible(p, degree)
            lines = []
            for line in text.splitlines():
                key, _, value = line.partition(" = ")
                if key in ("a4", "a6"):
                    f = [int(c) for c in value.split(",")]
                    for _ in range(int(key[1])):
                        f = _times(f, u, p)
                    line = f"{key} = " + ", ".join(map(str, f))
                lines.append(line)
            out.append((f"{name}-twist-u{degree}", "\n".join(lines) + "\n"))
    return out


def _alarm(signum, frame):
    raise TimeoutError


def worker(jobs_path: str, out_path: str) -> None:
    """Run each job's `ellsurf report` in this process and record its output."""
    from ellsurf.cli import main

    signal.signal(signal.SIGALRM, _alarm)
    results = {}
    start = time.perf_counter()
    for name, argv in json.loads(Path(jobs_path).read_text()):
        out, err = io.StringIO(), io.StringIO()
        signal.alarm(TIMEOUT_S)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                status = main(argv)
        except TimeoutError:
            status = "timeout"
        except BaseException as exc:  # a traceback is a difference too
            status = f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.alarm(0)
        results[name] = [status, out.getvalue(), err.getvalue()]
    seconds = time.perf_counter() - start
    Path(out_path).write_text(json.dumps({"seconds": seconds, "results": results}))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_src")
    ap.add_argument("head_src")
    ap.add_argument("--random", type=int, default=160)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        jobs = [(f"catalog-{name}", ["report", "--catalog", name])
                for name in ("legendre_f5", "x3_plus_t_f5", "x3_plus_t_f7", "generic_i1_f5")]
        configs = pool_configs() + random_configs(args.random, args.seed) + [DEGREE_72]
        for name, text in configs + twisted_configs():
            path = Path(tmp) / f"{name}.cfg"
            path.write_text(text)
            jobs.append((name, ["report", "--config", str(path)]))
        jobs_path = Path(tmp) / "jobs.json"
        jobs_path.write_text(json.dumps(jobs))
        runs = []
        for tag, src in (("base", args.base_src), ("head", args.head_src)):
            env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
            out_path = Path(tmp) / f"{tag}.json"
            subprocess.run(
                [sys.executable, __file__, "--worker", str(jobs_path), str(out_path)],
                env=env, check=True,
            )
            runs.append(json.loads(out_path.read_text()))
        base_run, head_run = runs
    base, head = base_run["results"], head_run["results"]
    differ = [name for name, _ in jobs if base[name] != head[name]]
    for name in differ:
        print(f"DIFFERS {name}: exit {base[name][0]} -> {head[name][0]}")
    statuses = {}
    for name, _ in jobs:
        statuses[str(base[name][0])] = statuses.get(str(base[name][0]), 0) + 1
    print(f"{len(jobs)} reports, {len(differ)} differ; base exit statuses {statuses}; "
          f"base {base_run['seconds']:.1f} s, head {head_run['seconds']:.1f} s")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2], sys.argv[3])
    else:
        sys.exit(main())
