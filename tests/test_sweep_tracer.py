"""The benchmark's layer tracer still reaches the sweep it times.

``perfbench/tracer.py`` wraps functions by rebinding names in the modules
it lists: ``make_attack`` and ``match_reconstructions`` in
``repro.experiments.sweep`` and methods on the ``SweepStore`` and
``SweepRunner`` classes found there.  If the sweep stopped resolving those
names through its own module (say, a cell ran through another module's
``make_attack`` import), the traced layers would silently read zero.  This
test loads the tracer from its file, unchanged, and checks that a smoke
grid opens a span in every sweep layer.  It counts spans rather than
timing them: a store read's self time can round to zero.
"""

from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

SWEEP_LAYERS = (
    "attacks.make",
    "metrics.match",
    "sweep.store_open",
    "sweep.store_key",
    "sweep.store_get",
    "sweep.store_append",
    "sweep.store_compact",
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_every_sweep_layer(tmp_path):
    from repro.experiments.sweep import GRID_PRESETS

    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    with tracer_module.installed(tracer):
        runner = GRID_PRESETS["smoke"](0, 1, tmp_path / "smoke.log")
        outcome = runner.run()
        runner.store.close()
    assert len(outcome.computed) == 2
    spans = Counter(span[0] for span in tracer.spans)
    missing = [layer for layer in SWEEP_LAYERS if spans[layer] == 0]
    assert not missing, f"no spans for {missing}; recorded {dict(spans)}"
    # The tracer restores every original on exit.
    from repro.experiments import sweep

    assert not hasattr(sweep.make_attack, "__wrapped__")
