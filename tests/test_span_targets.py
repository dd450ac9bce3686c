"""The benchmark's span recorder wraps padicdyn functions by name; every name
it lists must still exist, or the traced benchmark run breaks."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    # spans.py imports only json, sys and time, so it loads on its own
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    for modname, qualname, kind, _hook in targets:
        assert kind in ("timed", "counted"), (modname, qualname)
        module = importlib.import_module(f"padicdyn.{modname}")
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            # Recorder.install reads the method from the class's own dict
            owner = getattr(module, owner_name)
            assert attr in vars(owner), f"{modname}.{qualname}"
        else:
            assert callable(getattr(module, attr, None)), \
                f"{modname}.{qualname}"
