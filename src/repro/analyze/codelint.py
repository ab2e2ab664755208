"""Determinism lint: keep wall clocks out of virtual-clock code.

The cluster simulation, the virtual platform, the serving scheduler
and the simulator core (NVDLA, µRISC-V, SoC, memories, buses, clock)
all run on *virtual* clocks — reproducibility of every benchmark gate
and of every simulated cycle count depends on no code path in them
consulting the host's wall clock or an unseeded RNG.  This AST-based checker forbids, inside
the modules named by :data:`DEFAULT_TARGETS`:

- wall-clock reads: ``time.time()``, ``time.time_ns()``,
  ``time.monotonic()``, ``time.perf_counter()`` (and ``_ns``
  variants), ``datetime.now()`` / ``utcnow()`` / ``today()``,
- unseeded randomness: module-level ``random.*`` draws,
  ``random.Random()`` with no seed, ``numpy.random.*`` draws from the
  global state, ``default_rng()`` with no seed.

Allowlist convention: a site that *intentionally* reads the wall clock
(e.g. an operator-facing log timestamp) carries an inline
``# wall-clock: <why>`` comment on the offending line; the checker
skips marked lines.  Entries can also be allowlisted centrally by
``<path>:<name>`` via the ``allow`` parameter (what
``tools/lint_determinism.py`` exposes), so every exemption is an
explicit, reviewable decision.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

#: Virtual-clock modules, relative to the repo root: the cluster
#: simulation, the serving scheduler, and the simulator core whose
#: cycle counts are the paper's metric.
DEFAULT_TARGETS: tuple[str, ...] = (
    "src/repro/cluster",
    "src/repro/vp",
    "src/repro/serve/scheduler.py",
    "src/repro/nvdla",
    "src/repro/riscv",
    "src/repro/core",
    "src/repro/mem",
    "src/repro/bus",
    "src/repro/clock.py",
)

ALLOW_MARKER = "wall-clock:"

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.clock_gettime",
}

_DATETIME_TAILS = ("datetime.now", "datetime.utcnow", "datetime.today", "date.today")

_RANDOM_DRAWS = {
    "random",
    "randint",
    "randrange",
    "random_sample",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "gauss",
    "normal",
    "getrandbits",
    "randbytes",
    "rand",
    "randn",
    "permutation",
}


@dataclass(frozen=True)
class Violation:
    """One forbidden call site."""

    path: str
    line: int
    col: int
    call: str  # dotted call name as written, e.g. "time.time"
    code: str  # "wall-clock" | "unseeded-random"
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.code}] {self.message}"


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for attribute chains rooted at a plain name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _classify(call: ast.Call) -> tuple[str, str] | None:
    """(code, message) when the call is forbidden, else ``None``."""
    name = _dotted_name(call.func)
    if name is None:
        return None
    has_args = bool(call.args or call.keywords)
    if name in _WALL_CLOCK_CALLS or any(name.endswith(t) for t in _DATETIME_TAILS):
        return "wall-clock", f"{name}() reads the host wall clock in virtual-clock code"
    parts = name.split(".")
    if parts[0] in ("random", "numpy", "np"):
        tail = parts[-1]
        if tail == "Random" and not has_args:
            return "unseeded-random", f"{name}() constructed without a seed"
        if tail in _RANDOM_DRAWS and (parts[0] == "random" or "random" in parts[1:2]):
            return (
                "unseeded-random",
                f"{name}() draws from global RNG state; use a seeded Generator",
            )
    if parts[-1] == "default_rng" and not has_args:
        return "unseeded-random", f"{name}() constructed without a seed"
    return None


def scan_source(
    source: str, path: str = "<string>", allow: set[str] | None = None
) -> list[Violation]:
    """Lint one module's source text."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Violation(
                path=path,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                call="",
                code="syntax-error",
                message=f"cannot parse: {exc.msg}",
            )
        ]
    lines = source.splitlines()
    violations: list[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        verdict = _classify(node)
        if verdict is None:
            continue
        line_text = lines[node.lineno - 1] if 0 < node.lineno <= len(lines) else ""
        if ALLOW_MARKER in line_text:
            continue
        name = _dotted_name(node.func) or "?"
        if allow and f"{path}:{name}" in allow:
            continue
        code, message = verdict
        violations.append(
            Violation(
                path=path,
                line=node.lineno,
                col=node.col_offset,
                call=name,
                code=code,
                message=message,
            )
        )
    return violations


def scan_paths(
    paths: list[Path], root: Path | None = None, allow: set[str] | None = None
) -> list[Violation]:
    """Lint files and directories (recursively, ``*.py`` only)."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    violations: list[Violation] = []
    for file_path in files:
        rel = str(file_path)
        if root is not None:
            try:
                rel = str(file_path.resolve().relative_to(Path(root).resolve()))
            except ValueError:
                pass  # outside the root: report as given
        violations.extend(scan_source(file_path.read_text(), path=rel, allow=allow))
    return violations


def lint_repo(
    repo_root: Path, targets: tuple[str, ...] = DEFAULT_TARGETS,
    allow: set[str] | None = None,
) -> list[Violation]:
    """Lint the virtual-clock modules of a repo checkout."""
    paths = [repo_root / target for target in targets if (repo_root / target).exists()]
    return scan_paths(paths, root=repo_root, allow=allow)
