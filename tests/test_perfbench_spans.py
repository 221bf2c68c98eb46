"""The benchmark's span tracer still finds every name it patches.

``perfbench/spans.py`` wraps layer functions of ``src/`` by name
(``BatchEngine.submit``, ``batch.wait``, ``AdaptiveChunker.observe``,
``ExperimentRunner.run_point``, ``preflight.make_preflight``,
``pruning.run_sweep_pruned``, ...).  A rename breaks the traced benchmark;
this test installs and uninstalls the tracer, running no workload, so the
break shows here too.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_every_target_and_uninstall_restores_it():
    from repro.analysis import preflight
    from repro.harness import batch, pruning
    from repro.harness.runner import ExperimentRunner

    targets = [
        (batch.BatchEngine, "submit"),
        (batch, "wait"),
        (batch.AdaptiveChunker, "observe"),
        (ExperimentRunner, "run_point"),
        (ExperimentRunner, "baseline"),
        (preflight, "make_preflight"),
        (pruning, "run_sweep_pruned"),
    ]
    before = [getattr(owner, name) for owner, name in targets]
    spans = _load_spans()
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        patched = [getattr(owner, name) for owner, name in targets]
    finally:
        tracer.uninstall()
    assert all(new is not old for new, old in zip(patched, before))
    assert [getattr(owner, name) for owner, name in targets] == before
