"""Workload census: which ``src`` functions the CI workloads never call.

Usage::

    python benchmarks/census.py

Runs the in-process CI workloads through ``repro.cli.main`` under a
``sys.setprofile`` hook: ``experiments`` (quick and ``--full``), both
serial ``check`` steps, the three k=8 ``verify`` calls, and every
``verify --grid`` step, each grid into a temporary store (the kernel
families ``--no-batch`` first, then ``--recheck-batch``).  It then
prints, per file of ``src/repro``, how many module-level functions and
methods (with their lines, decorators included) were never called, and
lists them.  A nested function counts as part of the function it sits in.

Only this process is traced.  Lane subprocesses are not: the
``--jobs 2`` and ``--sweep-jobs 2`` steps are left out, so code that runs
only inside a worker (``parallel.py``, ``warm_pool.py``, the wire frame)
shows as never called.  The tier-1 tests are not run either.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

KERNEL_GRIDS = ["maxcut", "hamiltonian-path", "hamiltonian-cycle"]
PLAIN_GRIDS = ["steiner", "mvc", "approx-maxis", "approx-maxis-unweighted",
               "approx-maxis-linear"]


def steps(store: str):
    yield ["experiments"]
    yield ["experiments", "--full"]
    yield ["check", "--cases", "25", "--seed", "0"]
    yield ["check", "--family", "paper", "--cases", "20", "--seed", "1"]
    for f in ("mds", "steiner", "approx-maxis"):
        yield ["verify", f, "-k", "8", "--pairs", "2", "--seed", "1"]
    yield ["verify", "node-weighted-steiner", "--grid",
           "--store-dir", f"{store}/nws"]
    for f, k in ([("mds", "2"), ("directed-steiner", None), ("kmds", None)]
                 + [(f, "2") for f in KERNEL_GRIDS]):
        grid = ["verify", f] + (["-k", k] if k else []) + [
            "--grid", "--store-dir", f"{store}/{f}"]
        yield grid + ["--no-batch"]
        yield grid + ["--expect-store-hits", "90", "--recheck-batch"]
    for f in PLAIN_GRIDS:
        yield ["verify", f, "-k", "2", "--grid", "--store-dir", f"{store}/{f}"]


def functions(path: Path):
    """``(qualname, first line, line count)`` of each module-level
    function and method; the first line is the first decorator's, as in
    ``co_firstlineno``."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno
                                              for d in child.decorator_list])
                found.append((prefix + child.name, first,
                              child.end_lineno - first + 1))
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            elif not isinstance(child, ast.Lambda):
                visit(child, prefix)

    visit(ast.parse(path.read_text(), str(path)), "")
    return found


def main() -> None:
    sys.path.insert(0, str(SRC))
    from repro.cli import main as repro_main

    called = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    with tempfile.TemporaryDirectory() as store:
        for argv in steps(store):
            start = time.perf_counter()
            threading.setprofile(hook)
            sys.setprofile(hook)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    repro_main(argv)
            except SystemExit as exc:
                if exc.code not in (0, None):
                    raise RuntimeError(f"repro {' '.join(argv)} exited "
                                       f"{exc.code}") from None
            finally:
                sys.setprofile(None)
                threading.setprofile(None)
            print(f"repro {' '.join(argv)}: "
                  f"{time.perf_counter() - start:.1f} s", file=sys.stderr)

    rows = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        fns = functions(path)
        missed = [f for f in fns if (str(path), f[1]) not in called]
        rows.append((path.relative_to(SRC / "repro").as_posix(), fns, missed))
    total = sum(len(fns) for __, fns, __ in rows)
    total_lines = sum(f[2] for __, fns, __ in rows for f in fns)
    missed_n = sum(len(m) for __, __, m in rows)
    missed_lines = sum(f[2] for __, __, m in rows for f in m)
    print(f"{total} functions ({total_lines} lines); never called: "
          f"{missed_n} ({missed_lines} lines)")
    print(f"{'file':<40} {'functions':>9} {'never':>6} {'lines':>6} "
          f"{'never':>6}")
    rows.sort(key=lambda r: -sum(f[2] for f in r[2]))
    for name, fns, missed in rows:
        print(f"{name:<40} {len(fns):>9} {len(missed):>6} "
              f"{sum(f[2] for f in fns):>6} {sum(f[2] for f in missed):>6}")
    print()
    for name, __, missed in rows:
        for qualname, first, lines in missed:
            print(f"never called: {name}:{first} {qualname} ({lines} lines)")


if __name__ == "__main__":
    main()
