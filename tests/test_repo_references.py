"""Docs, CI and the verify skill may only name things that exist.

A workflow step or doc line that names a deleted script, test file,
subcommand or config field used to fail only in the workflow (or never);
this lint makes it fail tier-1.  ``CHANGES.md`` and ``ROADMAP.md`` are
history and ``bench/`` is frozen by ``BENCHMARK.json``, so none of them
is read.
"""

from __future__ import annotations

import contextlib
import io
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.config import SimulationConfig

REPO = Path(__file__).resolve().parent.parent

SOURCES = sorted(
    path.relative_to(REPO).as_posix()
    for path in [
        REPO / "README.md",
        REPO / "DESIGN.md",
        REPO / "EXPERIMENTS.md",
        *(REPO / "docs").glob("*.md"),
        REPO / ".github" / "workflows" / "ci.yml",
        REPO / ".claude" / "skills" / "verify" / "SKILL.md",
    ]
    if path.exists()
)

#: A repository path: one of the tracked top-level trees, then anything
#: path-like that ends in a file extension (directories and globs such as
#: ``docs/*.md`` do not match).
PATH_RE = re.compile(
    r"(?<![\w/.-])(?:scripts|tests|benchmarks|src/repro|docs|examples)/[\w./-]*\.\w+"
)
SUBCOMMAND_RE = re.compile(r"python3? -m repro ([a-z][\w-]*)")
#: ``name=`` at the start of an argument (not ``==``, not an attribute).
KEYWORD_RE = re.compile(r"(?<![\w.])([A-Za-z_]\w*)\s*=(?!=)")


def config_call_keywords(text: str) -> set:
    """Keyword names of every ``SimulationConfig(...)`` call in ``text``.

    Only the call's own arguments count: text inside a nested
    parenthesis (``fault_plan=FaultPlan.parse(...)``) is skipped.
    """
    names = set()
    for call in re.finditer(r"SimulationConfig\(", text):
        depth, own = 1, []
        for ch in text[call.end():]:
            depth += (ch == "(") - (ch == ")")
            if depth == 0:
                break
            if depth == 1:
                own.append(ch)
        names.update(KEYWORD_RE.findall("".join(own)))
    return names


@pytest.mark.parametrize("source", SOURCES)
def test_named_paths_exist(source):
    text = (REPO / source).read_text(encoding="utf-8")
    missing = sorted(
        {name for name in PATH_RE.findall(text) if not (REPO / name).exists()}
    )
    assert not missing, f"{source} names files that do not exist: {missing}"


@pytest.mark.parametrize("source", SOURCES)
def test_named_subcommands_parse(source):
    text = (REPO / source).read_text(encoding="utf-8")
    parser = build_parser()
    unknown = []
    for sub in sorted(set(SUBCOMMAND_RE.findall(text))):
        # `<sub> --help` exits 0 for a registered subcommand, 2 otherwise.
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), \
                pytest.raises(SystemExit) as exit_info:
            parser.parse_args([sub, "--help"])
        if exit_info.value.code != 0:
            unknown.append(sub)
    assert not unknown, f"{source} names unknown subcommands: {unknown}"


@pytest.mark.parametrize("source", [s for s in SOURCES if s.endswith(".md")])
def test_named_config_fields_exist(source):
    text = (REPO / source).read_text(encoding="utf-8")
    unknown = sorted(
        config_call_keywords(text) - {f.name for f in fields(SimulationConfig)}
    )
    assert not unknown, (
        f"{source} passes SimulationConfig keywords that are not fields: "
        f"{unknown}"
    )
