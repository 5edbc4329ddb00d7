"""The benchmark's tracer wraps functions at the module bindings where the
package looks them up; constructing its Recorder resolves every one of them
(without patching), so a removed or renamed binding fails here first."""
import importlib
from pathlib import Path


def test_tracer_resolves_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    importlib.import_module("tracer").Recorder()
