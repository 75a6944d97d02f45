"""Every function under src/ellsurf is called by some command-line job.

The jobs run ``cli.main`` in a fresh process (this file run as a script),
under a profile hook (``sys.setprofile``, and ``threading.setprofile`` for
the --threads workers) set before ``import ellsurf.cli``, so no cache that
another test filled can hide a call.  Dunder methods aside, a function that
no job calls fails the test unless ``ALLOWED`` names it with the reason it
stays; an entry that a job does call fails it too.  Code that only tests
call lives under tests/ (``lattice_lemmas.py``, ``fiber_cases.py``), and so
does an error class that no other module under src/ellsurf names."""

import ast
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import ellsurf

SRC = Path(ellsurf.__file__).resolve().parent
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}

ALLOWED = {
    "cli.report_digest": "called by the digest tests and scripts/freeze_catalog.py",
}

CONFIGS = {
    "gf25": "[field]\np = 5\nmodulus = 2, 0, 1\n[model]\na4 = 0, 1\na6 = 0, 1\n",
    # III at infinity, at t + 4 and at the degree-2 place t^2 + 3t + 4
    "iii_twice": "[field]\np = 5\n[model]\na4 = 3, 3, 1, 3\na6 = 0\n",
    "sweep_f11": "[field]\np = 11\n[model]\na4 = 0, 0, 0, 0, 5\na6 = 0, 0, 0, 0, 0, 6\n"
    "[metadata]\nmw_rank = 0\nmw_torsion_order = 1\n[limits]\nn_max = 2\n",
    "long_form": "[field]\np = 5\n[model]\na1 = 1, 1\na2 = 2\na3 = 1\na4 = 1\na6 = 0, 1\n"
    "[limits]\nn_max = 2\n",
    "i0_star": "[field]\np = 7\n[model]\na4 = 0, 0, 1\na6 = 0, 0, 0, 1\n[limits]\nn_max = 2\n",
    # I5 at t: p = 5 divides v(Delta)
    "p_divides_v_delta": "[field]\np = 5\n[model]\na4 = 2\na6 = 2, 0, 0, 0, 0, 1\n[limits]\nn_max = 2\n",
}
CATALOG = ("x3_plus_t_f5", "x3_plus_t_f7", "legendre_f5", "generic_i1_f5")
# (argv, exit status); a config name stands for its file
JOBS = (
    [(["report", "--catalog", name], 0) for name in CATALOG]
    + [(["analyze", "--catalog", "legendre_f5"], 0),
       (["verify", "--catalog", "x3_plus_t_f5", "--threads", "2"], 0),
       (["catalog"], 0), (["--help"], 0), (["report", "--nmax"], 2)]
    + [(["report", "--config", name], 0) for name in CONFIGS]
)


def _key(module: str, code) -> str:
    return f"{module}:{code.co_firstlineno}:{code.co_name}"


def _run_jobs(config_dir: Path) -> dict:
    """Exit statuses of ``JOBS`` and the ``_key`` of every function they
    call, from the import of ``ellsurf.cli`` on."""
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    from ellsurf.cli import main

    statuses = []
    for argv, _ in JOBS:
        argv = [str(config_dir / a) if a in CONFIGS else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            statuses.append(main(argv))
    sys.setprofile(None)
    threading.setprofile(None)
    reached = [_key(Path(c.co_filename).stem, c) for c in called
               if Path(c.co_filename).resolve().parent == SRC]
    return {"statuses": statuses, "reached": reached}


def _functions(code, module: str, prefix: str = ""):
    """(``_key``, "module.qualname") of every function and class body
    compiled into ``code``, comprehensions and dunder methods left out."""
    for const in code.co_consts:
        if inspect.iscode(const):
            name = const.co_name
            qualname = prefix + name
            if name not in COMPREHENSIONS and not (name.startswith("__") and name.endswith("__")):
                yield _key(module, const), f"{module}.{qualname}"
            inner = ".<locals>." if const.co_flags & inspect.CO_NEWLOCALS else "."
            yield from _functions(const, module, qualname + inner)


def test_every_src_function_is_reached(tmp_path):
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text)
    run = subprocess.run([sys.executable, __file__, str(tmp_path)], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["statuses"] == [status for _, status in JOBS]
    reached = set(result["reached"])
    unreached = set()
    for path in sorted(SRC.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        unreached.update(name for key, name in _functions(code, path.stem) if key not in reached)
    assert unreached - set(ALLOWED) == set(), "called by no job: move it to tests/, or allow it"
    assert set(ALLOWED) - unreached == set(), "allowed but called: drop the entry"


def test_every_error_class_is_named_in_src():
    """Each class of errors.py is named, past its import, by another module
    under src/ellsurf, which raises or catches it."""
    classes = {node.name for node in ast.parse((SRC / "errors.py").read_text(encoding="utf-8")).body
               if isinstance(node, ast.ClassDef)}
    named = set()
    for path in SRC.glob("*.py"):
        if path.name != "errors.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
    assert classes - named == set(), "named by no other src module: move it to tests/"


if __name__ == "__main__":
    print(json.dumps(_run_jobs(Path(sys.argv[1]))))
