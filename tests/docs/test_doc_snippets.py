"""Tier-1 mirror of the ``docs`` CI job: docs and code must not drift.

Runs :mod:`tools.run_doc_snippets` over ``docs/*.md`` in-process, so a
plain ``pytest`` run catches a stale example without waiting for CI.
"""

import pathlib
import re
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
DOCS = sorted((REPO_ROOT / "docs").glob("*.md"))
CODE_DIRS = ("src", "tests", "benchmarks", "examples", "tools")


def experiment_rows():
    """``(experiment, where)`` for each row of the experiment map."""
    text = (REPO_ROOT / "docs" / "reproduction.md").read_text()
    rows = []
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if re.fullmatch(r"E\d+", cells[0]) and len(cells) == 4:
            rows.append((cells[0], cells[2]))
    return rows


EXPERIMENTS = experiment_rows()


def load_runner():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import run_doc_snippets
    finally:
        sys.path.pop(0)
    return run_doc_snippets


def test_docs_tree_exists():
    names = {p.name for p in DOCS}
    assert {
        "architecture.md",
        "benchmarks.md",
        "language.md",
        "reproduction.md",
    } <= names


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_doc_snippets_pass(path, capsys):
    runner = load_runner()
    failed = runner.main([str(path)])
    out = capsys.readouterr().out
    assert failed == 0, f"doc snippets failed:\n{out}"


def test_experiment_map_is_complete():
    assert [name for name, _ in EXPERIMENTS] == [f"E{i}" for i in range(1, 12)]


@pytest.mark.parametrize(
    "where",
    [where for _, where in EXPERIMENTS],
    ids=[name for name, _ in EXPERIMENTS],
)
def test_experiment_map_names_existing_files(where):
    paths = re.findall(r"`([^`]+)`", where)
    assert paths
    for path in paths:
        assert (REPO_ROOT / path).is_file(), path


def test_documents_cited_from_code_exist():
    # Every ``docs/<page>.md`` and upper-case top-level citation (such as
    # README.md) in a comment or docstring must name a document that is
    # in the repository.
    cited = set()
    for top in CODE_DIRS:
        for source in (REPO_ROOT / top).rglob("*.py"):
            text = source.read_text()
            cited.update(re.findall(r"\bdocs/[\w-]+\.md\b", text))
            cited.update(re.findall(r"(?<![\w/])[A-Z][A-Z_]*\.md\b", text))
    assert "docs/reproduction.md" in cited
    missing = sorted(path for path in cited if not (REPO_ROOT / path).is_file())
    assert not missing, missing


def test_language_doc_covers_every_diagnostic_code():
    from repro.lang.diagnostics import CODES

    text = (REPO_ROOT / "docs" / "language.md").read_text()
    for code in CODES:
        assert f"### {code}" in text, f"{code} missing from docs/language.md"


def test_runner_flags_a_broken_snippet(tmp_path, capsys):
    bad = tmp_path / "bad.md"
    bad.write_text("```python\n>>> 1 + 1\n3\n```\n")
    runner = load_runner()
    assert runner.main([str(bad)]) == 1
    capsys.readouterr()


def test_runner_syntax_checks_plain_blocks(tmp_path, capsys):
    bad = tmp_path / "bad.md"
    bad.write_text("```python\ndef broken(:\n```\n")
    runner = load_runner()
    assert runner.main([str(bad)]) == 1
    capsys.readouterr()
