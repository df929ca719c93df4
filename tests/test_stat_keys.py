"""Lint: StatRegistry key names must follow the documented scheme.

Counter keys use a dotted ``component.metric`` form (lowercase
``snake_case`` segments; sub-reasons add a third segment, as in
``net.unicast_dropped.dead``), and every key counted in ``src/`` must
appear in the registry table of ``docs/PROTOCOL.md`` §9 — and vice
versa.  Keys built with f-strings (``net.sent.{category}``) are
checked against wildcard registry entries (``net.sent.*``).
"""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
PROTOCOL = REPO / "docs" / "PROTOCOL.md"

#: Dotted component.metric form: at least two lowercase segments.
KEY_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")

#: stats.count("literal.key"), stats.counter("literal.key") (cached
#: hot-path Counter objects), and _new_sent_counters("literal.key", ...).
LITERAL_COUNT_RE = re.compile(r'(?:stats\.count(?:er)?|_new_sent_counters)\(\s*"([^"]+)"')
#: stats.count(f"prefix.{expr}") — the static prefix before the brace.
FSTRING_COUNT_RE = re.compile(r'stats\.count(?:er)?\(\s*f"([^"{]+)\{')


def _source_keys():
    """(literal_keys, fstring_prefixes) counted anywhere under src/."""
    literals, prefixes = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        literals.update(LITERAL_COUNT_RE.findall(text))
        prefixes.update(FSTRING_COUNT_RE.findall(text))
    return literals, prefixes


def _documented_keys():
    """(exact_keys, wildcard_prefixes) from the PROTOCOL.md registry."""
    text = PROTOCOL.read_text(encoding="utf-8")
    section = text.split("## 9. Stat-key registry", 1)[1]
    rows = "\n".join(
        line for line in section.splitlines() if line.startswith("|")
    )
    exact, wildcards = set(), set()
    for key in re.findall(r"`([a-z0-9_.*]+)`", rows):
        if key.endswith(".*"):
            wildcards.add(key[:-1])  # keep the trailing dot
        else:
            exact.add(key)
    return exact, wildcards


def test_registry_section_exists():
    assert "## 9. Stat-key registry" in PROTOCOL.read_text(encoding="utf-8")


def test_all_source_keys_well_formed():
    literals, prefixes = _source_keys()
    assert literals, "expected to find stats.count() calls under src/"
    bad = sorted(k for k in literals if not KEY_RE.match(k))
    assert not bad, f"stat keys not in component.metric form: {bad}"
    # f-string prefixes must themselves be dotted and end mid-scheme.
    bad_prefixes = sorted(
        p for p in prefixes if not KEY_RE.match(p.rstrip(".") )
    )
    assert not bad_prefixes, f"malformed f-string key prefixes: {bad_prefixes}"


def test_source_keys_are_documented():
    literals, prefixes = _source_keys()
    exact, wildcards = _documented_keys()
    undocumented = sorted(
        k for k in literals
        if k not in exact and not any(k.startswith(w) for w in wildcards)
    )
    assert not undocumented, (
        f"stat keys counted in src/ but missing from the PROTOCOL.md "
        f"registry: {undocumented}"
    )
    unmatched = sorted(p for p in prefixes if p not in wildcards)
    assert not unmatched, (
        f"f-string stat keys without a wildcard registry entry: {unmatched}"
    )


def test_documented_keys_exist_in_source():
    literals, prefixes = _source_keys()
    exact, wildcards = _documented_keys()
    stale = sorted(k for k in exact if k not in literals)
    assert not stale, (
        f"registry entries never counted anywhere in src/: {stale}"
    )
    stale_wild = sorted(w + "*" for w in wildcards if w not in prefixes)
    assert not stale_wild, (
        f"wildcard registry entries with no matching f-string count: "
        f"{stale_wild}"
    )
