"""The unreached-definition lint: planted dead code, exemptions, repo hygiene."""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "lint_unreached", REPO_ROOT / "tools" / "lint_unreached.py"
)
lint_unreached = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(lint_unreached)


def _tree(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_planted_unreferenced_def_is_flagged(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/mod.py": (
            "class Used:\n"
            "    def __repr__(self):\n"
            "        return 'Used'\n"
            "\n"
            "    def planted(self):\n"
            "        return 1\n"
            "\n"
            "def resident_bytes():\n"
            "    return 0\n"
        ),
        "examples/demo.py": "from pkg.mod import Used\nprint(Used())\n",
        "tests/test_mod.py": "from pkg.mod import Used\nUsed().planted()\n",
    })
    findings = lint_unreached.unreached(root)
    # Tests do not count as a use; dunders and allowlisted probes are exempt.
    assert findings == [(root / "src/pkg/mod.py", 5, "planted")]


def test_a_use_in_any_searched_tree_counts(tmp_path):
    root = _tree(tmp_path, {
        "src/pkg/mod.py": "def helper():\n    return 1\n",
        "perfbench/run.py": "from pkg.mod import helper\nhelper()\n",
    })
    assert lint_unreached.unreached(root) == []


def test_repo_has_no_definition_only_tests_reach(capsys):
    assert lint_unreached.main() == 0, capsys.readouterr().out
