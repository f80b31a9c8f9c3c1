"""Which functions of ``src/levylab`` only unit tests reach, and which none.

Runs the whole test suite, and separately ``tests/test_cli.py`` plus
``tests/test_acceptance.py``, each in its own subprocess under a
``sys.setprofile``/``threading.setprofile`` call recorder.  Prints the
functions and methods the whole suite reaches but the CLI and acceptance
run does not, then those that neither run reaches, each with its line
count.  Lambdas and comprehensions are not counted.  Code run only in a
test's own subprocess (the console launcher, for one) is not seen::

    PYTHONPATH=src python tests/reach_trace.py

The recorder slows the suite by about half, so this is a tool to read,
not a gate.  pytest does not collect it.
"""
import ast
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "levylab"
RUNS = {
    "tier-1": [],
    "cli+acceptance": ["tests/test_cli.py", "tests/test_acceptance.py"],
}


def record(out, pytest_args):
    """Run pytest under the recorder; write the (file, first line) of each code reached."""
    import pytest

    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    prefix = str(PACKAGE) + os.sep
    reached = sorted({(os.path.relpath(c.co_filename, ROOT), c.co_firstlineno)
                      for c in seen if c.co_filename.startswith(prefix)})
    Path(out).write_text(json.dumps(reached))
    return int(code)


def functions():
    """Every def in the package: {(file, first line): (qualified name, lines)}."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        rel = os.path.relpath(path, ROOT)

        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = ".".join([*scope, child.name])
                    # a decorated code object starts at its first decorator
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[rel, first] = (name, child.end_lineno - child.lineno + 1)
                    walk(child, [*scope, child.name, "<locals>"])
                elif isinstance(child, ast.ClassDef):
                    walk(child, [*scope, child.name])
                else:
                    walk(child, scope)

        walk(ast.parse(path.read_text(), str(path)), [])
    return found


def trace(args):
    """Run one recording in a subprocess; return its reached set and pytest's last line."""
    with tempfile.TemporaryDirectory() as directory:
        out = Path(directory, "reached.json")
        done = subprocess.run([sys.executable, __file__, "--record", str(out), *args],
                              cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if not out.exists():
            sys.exit(f"the recorded run failed:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
        return {tuple(key) for key in json.loads(out.read_text())}, lines[-1] if lines else ""


def report(title, keys, table):
    rows = sorted(keys)
    print(f"{title}: {len(rows)} functions, {sum(table[k][1] for k in rows)} lines")
    for key in rows:
        name, lines = table[key]
        print(f"  {key[0]}:{key[1]}  {name} ({lines})")


def main():
    table = functions()
    reached = {}
    for name, args in RUNS.items():
        reached[name], summary = trace(args)
        print(f"{name}: {summary}", flush=True)
    everything, cli = reached["tier-1"], reached["cli+acceptance"]
    report("reached only by unit tests", (everything - cli) & table.keys(), table)
    report("reached by no run", table.keys() - everything - cli, table)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--record"]:
        sys.exit(record(sys.argv[2], sys.argv[3:]))
    main()
