#!/usr/bin/env python3
"""CI gate: no definition in ``src/`` that only tests reach.

Flags every ``def`` or ``class`` in ``src/`` whose name has no other
word-boundary occurrence in ``src``, ``benchmarks``, ``examples``,
``tools`` or ``perfbench`` -- code the system never runs, kept alive
only by its own tests.  The scan reads text, not code: a mention in a
docstring or comment counts as a use, so a definition named only in
prose passes.  Dunder methods are exempt (Python calls them), and so is
this file, so that the allowlist below does not count as a use.
Findings print as ``path:line: name`` and the exit status is non-zero
when there are any.

Usage::

    python tools/lint_unreached.py
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Trees whose text counts as a use of a name defined in ``src/``.
SEARCH_DIRS = ("src", "benchmarks", "examples", "tools", "perfbench")

#: Read-only probes kept although only tests call them: deleting one
#: would copy the same expression into each test that reads it.
ALLOWLIST: dict[str, str] = {
    "resident_bytes": "SparseMemory: host bytes held by pages (laziness and COW tests)",
    "console_text": "Cpu: the console bytes decoded as text",
    "dequantize": "quantize: the inverse of quantize, for round-trip properties",
    "to_json": "AnalysisReport: the report as one JSON document",
    "span_count": "TraceTree: the number of spans in a trace",
    "process_restarts": "ServiceMetrics: restart count summed over worker processes",
    "all_workers": "WorkerPool: every worker across its model pools",
}

_WORD = re.compile(r"\w+")


def _sources(root: Path) -> list[Path]:
    this = Path(__file__).resolve()
    files: list[Path] = []
    for top in SEARCH_DIRS:
        files.extend(p for p in sorted((root / top).rglob("*.py")) if p.resolve() != this)
    return files


def unreached(root: Path) -> list[tuple[Path, int, str]]:
    """``(path, line, name)`` of each ``src/`` definition used nowhere else."""
    words: Counter[str] = Counter()
    definitions: list[tuple[Path, int, str]] = []
    src = root / "src"
    for path in _sources(root):
        text = path.read_text(encoding="utf-8")
        words.update(_WORD.findall(text))
        if src not in path.parents:
            continue
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path, node.lineno, node.name))
    return [
        (path, line, name)
        for path, line, name in definitions
        if words[name] <= 1
        and name not in ALLOWLIST
        and not (name.startswith("__") and name.endswith("__"))
    ]


def main() -> int:
    findings = unreached(REPO_ROOT)
    for path, line, name in findings:
        print(f"{path.relative_to(REPO_ROOT)}:{line}: {name}")
    verdict = "FAIL" if findings else "OK"
    print(f"unreached lint: {verdict} — {len(findings)} definition(s) only tests reach")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
