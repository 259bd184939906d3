"""Every function the traced benchmark wraps still exists.

``perfbench/spans.py`` patches layer functions by module path and name
(``repro.multiprog.scheduler.build_model`` and ``allocate``,
``MultiProgrammer.admit``, ``FleetRouter.submit`` and ``release``, ...).
A refactor that moves one of them breaks only ``perfbench/run.py
--trace 1``, so tier-1 resolves every target here: registering a
wrapper raises when its target is gone.  Nothing is enabled, so no
function is actually replaced.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    spans.install_layers(tracer)
    targets = tracer._patches
    assert len(targets) == 20
    for owner, attr, original, _ in targets:
        assert vars(owner)[attr] is original
