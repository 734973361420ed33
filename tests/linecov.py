"""List the statements of ``src/photonkit`` that no tier-1 test runs.

    python tests/linecov.py [extra pytest arguments]

Runs the tier-1 suite in this process under a stdlib line tracer
(``sys.settrace`` and ``threading.settrace``) that records line events in
the package's own files only, then prints every statement that never
ran, as ``path:line: source``, and a count per file.  A statement is a
node of the file's syntax tree that compiles to code, counted at its
first line.  ``test_likelihood_reconstruction_consistency`` (100
likelihood fits, about half the suite's time) is left out.

The report is for reading, not a gate: the exit status is 0 whenever the
suite ran, failing tests included, and pytest's own status when it could
not run (a usage or internal error, or no tests collected).
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "photonkit"
SKIPPED = "tests/test_acceptance.py::test_likelihood_reconstruction_consistency"


def statement_lines(path: Path) -> set[int]:
    """First lines of the statements in ``path`` that compile to code."""
    source = path.read_text()
    with_code = set()
    pending = [compile(source, str(path), "exec")]
    while pending:
        code = pending.pop()
        with_code.update(line for _, _, line in code.co_lines() if line is not None)
        pending.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    starts = {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)}
    return starts & with_code


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with the line tracer on; return its status and the lines hit."""
    import pytest

    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = defaultdict(set)

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = hits[filename]

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: list[str]) -> int:
    # The suite's subprocesses import the package too: give them this tree.
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    status, hits = run_traced([
        "-q", "-p", "no:cacheprovider", f"--rootdir={ROOT}", str(ROOT / "tests"),
        "--deselect", SKIPPED, *argv,
    ])
    if status not in (0, 1):
        print(f"linecov: pytest could not run the suite (exit {status})", file=sys.stderr)
        return status
    print("\nStatements of src/photonkit that no test runs:")
    total = missed_total = 0
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        statements = statement_lines(path)
        missed = sorted(statements - hits.get(str(path), set()))
        source = path.read_text().splitlines()
        name = path.relative_to(ROOT)
        for line in missed:
            print(f"{name}:{line}: {source[line - 1].strip()}")
        counts.append(f"  {name}: {len(missed)} of {len(statements)}")
        total += len(statements)
        missed_total += len(missed)
    print("\nNot run, per file:", *counts, f"  total: {missed_total} of {total}", sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
