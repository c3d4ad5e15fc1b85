"""The docstring lint (tools/check_docstrings.py) passes on the trees CI checks."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def load_checker():
    """Import tools/check_docstrings.py as a module (tools/ is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "check_docstrings", REPO / "tools" / "check_docstrings.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_campaign_and_obs_trees_are_fully_documented():
    checker = load_checker()
    violations = checker.check_trees(
        [
            REPO / "src" / "repro" / "campaign",
            REPO / "src" / "repro" / "obs",
            REPO / "src" / "repro" / "fleet",
            REPO / "src" / "repro" / "censors",
            REPO / "src" / "repro" / "runtime",
            REPO / "src" / "repro" / "eval",
            REPO / "src" / "repro" / "core" / "evolution",
            REPO / "src" / "repro" / "deploy" / "selector.py",
            REPO / "src" / "repro" / "netsim",
            REPO / "src" / "repro" / "packets",
            REPO / "src" / "repro" / "tcpstack",
        ]
    )
    assert violations == [], "\n".join(
        f"{path}:{line}: {message}" for path, line, message in violations
    )


def test_checker_flags_undocumented_public_api(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def exposed():\n    pass\n")
    checker = load_checker()
    messages = [message for _, _, message in checker.check_file(bad)]
    assert any("module" in m for m in messages)
    assert any("exposed" in m for m in messages)


def test_checker_exempts_private_and_nested(tmp_path):
    ok = tmp_path / "ok.py"
    ok.write_text(
        '"""Module."""\n'
        "def _helper():\n    pass\n"
        "def public():\n"
        '    """Doc."""\n'
        "    def inner():\n        pass\n"
        "    return inner\n"
    )
    checker = load_checker()
    assert checker.check_file(ok) == []
