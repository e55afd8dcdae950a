"""Every public function and class in ``src/repro`` is reached from an entry point.

The roots are what a user or CI actually runs: the CLI (``repro.cli``,
its ``cli_*`` subcommands and ``python -m repro``), the registered
experiments (every module-level statement of ``repro.experiments`` and
every decorated function), ``examples/``, ``benchmarks/ledger/``, and
what ``.github/workflows/`` runs (its inline Python and the benchmark
scripts it calls).  A definition is reached when a reached piece of code
names it, as an AST ``Name`` or ``Attribute``; docstrings, strings and
imports do not count.  Names resolve to the module that defines them:
``x`` to the module's own ``x`` or to what it imported as ``x``, and
``a.x`` to ``x`` of the module ``a`` names, through package re-exports.
An attribute of any other object (``args.x``) reaches no top-level
definition.

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

#: The ``src/`` modules that are roots themselves: the CLI.
_ROOT_MODULE = re.compile(r"repro/(cli(_\w+)?|__main__)\.py")


_parse = lru_cache(maxsize=None)(ast.parse)


def _module_name(path: str) -> str:
    """``repro/network/queue.py`` -> ``repro.network.queue``."""
    parts = path.removesuffix(".py").split("/")
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


@lru_cache(maxsize=None)
def _bindings(source: str) -> dict[str, tuple]:
    """What each name a module imports is bound to, wherever the import
    sits: ``("module", dotted)`` or ``("member", dotted, name)``."""
    found: dict[str, tuple] = {}
    for node in ast.walk(_parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    found[alias.asname] = ("module", alias.name)
                else:  # ``import a.b`` binds ``a``
                    top = alias.name.split(".")[0]
                    found[top] = ("module", top)
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                found[alias.asname or alias.name] = ("member", node.module, alias.name)
    return found


class _Resolver:
    """Resolves a ``Name`` or ``Attribute`` to the definition it names:
    a ``(module, name)`` key, a module's dotted name, or None."""

    def __init__(
        self, modules: dict[str, str], defs: dict[tuple, list], resolved: dict
    ):
        self.sources = {_module_name(path): source for path, source in modules.items()}
        self.defs = defs
        self.resolved = resolved
        self.read: dict[tuple, tuple] = {}

    def fact(self, module: str | None, name: str) -> tuple:
        """All a resolution reads about ``name`` in ``module``."""
        source = self.sources.get(module)
        return (
            (module, name) in self.defs,
            f"{module}.{name}" in self.sources,
            _bindings(source).get(name) if source is not None else None,
        )

    def member(self, module: str, name: str, seen: frozenset = frozenset()):
        """``name`` in ``module``: its definition, a submodule, or what
        the module imported under that name (a re-export)."""
        fact = self.read[(module, name)] = self.fact(module, name)
        defined, submodule, binding = fact
        if defined:
            return (module, name)
        if submodule:
            return f"{module}.{name}"
        if binding is None or (module, name) in seen:
            return None
        return self.bound(binding, seen | {(module, name)})

    def bound(self, binding: tuple, seen: frozenset = frozenset()):
        if binding[0] == "module":
            return binding[1]
        return self.member(binding[1], binding[2], seen)

    def resolve(self, node: ast.AST, module: str | None, bindings: dict):
        if isinstance(node, ast.Name):
            defined, _, _ = self.read[(module, node.id)] = self.fact(module, node.id)
            if defined:
                return (module, node.id)
            binding = bindings.get(node.id)
            return self.bound(binding) if binding is not None else None
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value, module, bindings)
            if isinstance(base, str):  # an attribute of a module
                return self.member(base, node.attr)
        return None

    def references(
        self, node: ast.AST, module: str | None, bindings: dict
    ) -> set[tuple]:
        """Definition keys ``node`` names, by ``Name`` or ``Attribute``:
        resolved again only when a fact the last resolution read changed."""
        found, read = self.resolved.get((node, module), (None, {}))
        if found is not None and all(self.fact(*key) == v for key, v in read.items()):
            return found
        found, self.read = set(), {}
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Name, ast.Attribute)):
                key = self.resolve(sub, module, bindings)
                if isinstance(key, tuple):
                    found.add(key)
        self.resolved[(node, module)] = (found, self.read)
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
    """The roots outside ``src/`` (the CLI modules are roots inside it)."""
    paths = [*ROOT.glob("examples/*.py"), *ROOT.glob("benchmarks/ledger/*.py")]
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
    modules: dict[str, str], roots: list[str], allowed=ALLOWED, resolved=None
) -> dict[str, list[str]]:
    """Public top-level functions and classes of ``modules`` no root reaches.

    ``modules`` maps a path under ``src/`` to its source; ``roots`` are
    whole sources whose every line counts as run, as does every line of
    the CLI modules among ``modules``; ``allowed`` names count as reached.
    ``resolved`` keeps each piece of code's resolution, ``(node, module)
    -> (definition keys it names, the facts the resolution read)``, for
    the next call: a call that changes one module's source re-resolves
    that module and only the code that read one of its changed facts.
    """
    defs: dict[tuple, list[ast.AST]] = {}
    public: dict[str, list[str]] = {}
    reached: set[tuple] = set()
    runs: list[tuple] = []  # (code that runs, its module, its imports)
    for path, source in modules.items():
        module = _module_name(path)
        tree = _parse(source)
        if _ROOT_MODULE.fullmatch(path):
            runs.append((tree, module, _bindings(source)))
        experiment = path.startswith("repro/experiments/")
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault((module, node.name), []).append(node)
                if not node.name.startswith("_"):
                    public.setdefault(path, []).append(node.name)
                if node.decorator_list and not isinstance(node, ast.ClassDef):
                    reached.add((module, node.name))  # registered, e.g. an experiment
                continue
            targets = []
            if isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            if targets and not experiment:
                for name in targets:
                    defs.setdefault((module, name), []).append(node)
            else:
                runs.append((node, module, _bindings(source)))
    runs += [(_parse(source), None, _bindings(source)) for source in roots]
    resolver = _Resolver(modules, defs, {} if resolved is None else resolved)
    reached |= {key for key in defs if key[1] in allowed}
    for node, module, bindings in runs:
        reached |= resolver.references(node, module, bindings)
    expanded: set[tuple] = set()
    frontier = set(reached)
    while frontier:
        key = frontier.pop()
        expanded.add(key)
        bindings = _bindings(resolver.sources[key[0]])
        for node in defs[key]:
            frontier |= resolver.references(node, key[0], bindings) - expanded
    missing = {
        path: sorted(n for n in names if (_module_name(path), n) not in expanded)
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
    "TraceReplay", "is_power_of_two", "save_trace", "is_conforming",
]


@pytest.fixture(scope="module")
def resolved() -> dict:
    """Resolutions the plants share, so each re-resolves only its module."""
    return {}


@pytest.mark.parametrize("name", RETIRED)
def test_a_retired_name_put_back_is_flagged(name, resolved):
    modules = src_sources()
    for keyword in ("class", "def"):
        planted = dict(modules)
        planted["repro/core/envelope.py"] += f"\n\n{keyword} {name}():\n    pass\n"
        missing = unreached(planted, root_sources(), resolved=resolved)
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


def test_names_resolve_to_the_module_that_defines_them():
    modules = {
        "repro/lib.py": "def save_trace():\n    pass\n\ndef live():\n    pass\n",
        "repro/pkg/__init__.py": "from repro.pkg.impl import exported\n",
        "repro/pkg/impl.py": "def exported():\n    pass\n\ndef live():\n    pass\n",
    }
    # ``args.save_trace`` is an attribute of an object, not of a module;
    # ``pkg.exported`` reaches impl's definition through the re-export.
    root = (
        "import repro.lib as lib\nfrom repro import pkg\n"
        "lib.live()\npkg.exported()\nargs.save_trace\n"
    )
    assert unreached(modules, [root]) == {
        "repro/lib.py": ["save_trace"], "repro/pkg/impl.py": ["live"]
    }
    assert unreached(modules, ["import repro.pkg.impl\nrepro.pkg.impl.live()\n"]) == {
        "repro/lib.py": ["live", "save_trace"], "repro/pkg/impl.py": ["exported"]
    }
