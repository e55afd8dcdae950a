"""Every public function and class in ``src/repro`` is reached from an entry point.

The roots are what a user or CI actually runs: the CLI (``repro.cli``,
its ``cli_*`` subcommands and ``python -m repro``), the registered
experiments (every module-level statement of ``repro.experiments`` and
every decorated function), ``examples/``, ``benchmarks/ledger/``, and
what ``.github/workflows/`` runs (its inline Python and the benchmark
scripts it calls).  A definition is reached when a reached piece of code
names it, as an AST ``Name`` or ``Attribute``; docstrings, strings and
imports do not count.  Names resolve by their bare identifier, so two
definitions that share a name are reached together, which can only keep
a definition, never flag one wrongly.

A public name that only ``tests/`` reach belongs in ``tests/``; one that
nothing reaches should not exist.
"""

from __future__ import annotations

import ast
import re
import textwrap
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Public names kept without a root, each with its reason.  They count as
#: roots themselves, so what they use is kept too.
_PARAMETER_MAP = "docs/API.md documents it as a theorem's parameter map"
ALLOWED = {
    "single_session_guarantees": _PARAMETER_MAP,
    "phased_guarantees": _PARAMETER_MAP,
    "continuous_guarantees": _PARAMETER_MAP,
    "combined_guarantees": _PARAMETER_MAP,
    "last_worker_pids": "the only way tests can read a pool's worker pids",
}


_parse = lru_cache(maxsize=None)(ast.parse)


def _names(node: ast.AST) -> set[str]:
    """Identifiers ``node`` refers to, by ``Name`` or ``Attribute``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def _workflow_roots(text: str) -> tuple[list[str], list[Path]]:
    """Inline Python and the repository scripts a workflow file runs."""
    sources = []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if re.search(r"python3? - <<'?EOF'?", line):
            body = []
            for follow in lines[i + 1 :]:
                if follow.strip() == "EOF":
                    break
                body.append(follow)
            sources.append(textwrap.dedent("\n".join(body)))
    scripts = {
        ROOT / match
        for match in re.findall(r"\b(benchmarks/[\w/]+\.py)", text)
    }
    if re.search(r"pytest[^\n]*\bbenchmarks/", text):
        scripts.add(ROOT / "benchmarks" / "conftest.py")
    return sources, sorted(scripts)


def root_sources() -> list[str]:
    paths = [SRC / "cli.py", SRC / "__main__.py", *SRC.glob("cli_*.py")]
    paths += ROOT.glob("examples/*.py")
    paths += ROOT.glob("benchmarks/ledger/*.py")
    sources = []
    for workflow in sorted(ROOT.glob(".github/workflows/*.yml")):
        inline, scripts = _workflow_roots(workflow.read_text())
        sources += inline
        paths += scripts
    return [path.read_text() for path in sorted(set(paths))] + sources


def src_sources() -> dict[str, str]:
    return {
        path.relative_to(SRC.parent).as_posix(): path.read_text()
        for path in sorted(SRC.rglob("*.py"))
    }


def unreached(
    modules: dict[str, str], roots: list[str], allowed=ALLOWED
) -> dict[str, list[str]]:
    """Public top-level functions and classes of ``modules`` no root reaches.

    ``modules`` maps a path under ``src/`` to its source; ``roots`` are
    whole sources whose every line counts as run; ``allowed`` names count
    as reached.
    """
    defs: dict[str, list[ast.AST]] = {}
    public: dict[str, list[str]] = {}
    reached: set[str] = set(allowed)
    for source in roots:
        reached |= _names(_parse(source))
    for path, source in modules.items():
        experiment = path.startswith("repro/experiments/")
        for node in _parse(source).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
                if not node.name.startswith("_"):
                    public.setdefault(path, []).append(node.name)
                if node.decorator_list and not isinstance(node, ast.ClassDef):
                    reached.add(node.name)  # registered, e.g. an experiment
                continue
            targets = []
            if isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            if targets and not experiment:
                for name in targets:
                    defs.setdefault(name, []).append(node)
            else:
                reached |= _names(node)
    expanded: set[str] = set()
    frontier = set(reached)
    while frontier:
        name = frontier.pop()
        expanded.add(name)
        for node in defs.get(name, ()):
            frontier |= _names(node) - expanded - frontier
    missing = {
        path: sorted(n for n in names if n not in expanded)
        for path, names in public.items()
    }
    return {path: names for path, names in missing.items() if names}


def test_every_public_name_is_reached_from_a_root():
    missing = unreached(src_sources(), root_sources())
    assert not missing, (
        "public names in src/repro that no entry point reaches; move the ones "
        f"tests compare against into tests/ and delete the rest: {missing}"
    )


def test_every_allowlisted_name_needs_its_entry():
    missing = unreached(src_sources(), root_sources(), allowed=())
    flagged = {name for names in missing.values() for name in names}
    assert set(ALLOWED) <= flagged, set(ALLOWED) - flagged


def test_every_path_a_workflow_names_exists():
    for workflow in ROOT.glob(".github/workflows/*.yml"):
        text = workflow.read_text()
        named = _workflow_roots(text)[1]
        named += [ROOT / path for path in re.findall(r"\b(tests/[\w/]+\.py)", text)]
        for path in named:
            assert path.is_file(), f"{workflow.name} names missing {path}"


#: Names deleted from ``src/`` or moved into ``tests/`` because no root
#: reached them; putting any of them back must fail the surface check.
RETIRED = [
    "NaiveLowTracker", "HighTracker", "naive_max_slope",
    "min_changes_bruteforce", "min_changes_bruteforce_multi",
    "CollectingProgress", "vector_mismatch_single", "vector_mismatch_multi",
    "oracle_ratio_check", "assert_certified", "ConstantRate", "Shaped",
    "TokenBucket", "load_trace", "save_trace_json", "load_trace_json",
    "SquareWave", "Ramp", "GeometricDoubling", "Scaled", "Shifted", "ClipTo",
    "variance_time_slopes", "fit_against_log2", "exact_log2",
    "FractionalPowerOfTwoQuantizer", "IdentityQuantizer",
    "constant_offline_schedule", "constructive_offline_via_online",
    "OfflineScheduleResult", "equal_split_offline", "EqualSplitResult",
    "claim9_excess", "competitive_ratio", "describe_scenarios",
    "check_stream_against_profile", "iter_schedules", "RepeatingPattern",
    "TraceReplay", "is_power_of_two",
]


@pytest.mark.parametrize("name", RETIRED)
def test_a_retired_name_put_back_is_flagged(name):
    modules = src_sources()
    for keyword in ("class", "def"):
        planted = dict(modules)
        planted["repro/core/envelope.py"] += f"\n\n{keyword} {name}():\n    pass\n"
        missing = unreached(planted, root_sources())
        assert name in missing.get("repro/core/envelope.py", []), keyword


def test_a_name_reached_only_through_an_unreached_one_is_flagged():
    modules = {
        "repro/lib.py": "def used_by_dead():\n    pass\n\n"
        "def dead():\n    return used_by_dead()\n\n"
        "def live():\n    pass\n",
    }
    assert unreached(modules, ["from repro.lib import live\nlive()\n"]) == {
        "repro/lib.py": ["dead", "used_by_dead"]
    }
    # A docstring or string mentioning a name does not reach it.
    assert unreached(modules, ['"""live() and dead()"""\nx = "live"\n']) == {
        "repro/lib.py": ["dead", "live", "used_by_dead"]
    }
