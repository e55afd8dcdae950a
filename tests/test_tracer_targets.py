"""The ledger's layer tracer still finds every call it times.

``benchmarks/ledger/tracing.py`` patches each target on the class or
module that defines it and skips a target it cannot find, silently: a
method moved into a base class would blank out its layer's attribution
(``sim.vector``, ``sim.recorder``) without failing the benchmark.  This
test resolves every target with the tracer's own lookup, without
installing anything.
"""

import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger" / "tracing.py"

#: Targets whose code left ``src/`` before this check existed; the tracer
#: skips them and their layers read 0 for them.
_STALE = {
    "check_stream_against_profile",
    "run_batched",
    "UnreliableSignaling.decide",
    "UnreliableMultiSignaling.step",
}


def _tracing():
    spec = importlib.util.spec_from_file_location("ledger_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_only_the_stale_targets_are_unresolved():
    tracing = _tracing()
    tracing.import_everything()
    targets = [(module, attribute) for _, module, attribute, _ in tracing.TARGETS]
    targets += list(tracing.KEEPUP_TARGETS)
    unresolved = {attribute for module, attribute in targets if tracing._resolve(module, attribute) is None}
    assert unresolved == _STALE
