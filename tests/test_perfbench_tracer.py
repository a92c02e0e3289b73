"""The benchmark's traced pass must still find every layer it wraps.

``perfbench/tracer.py`` wraps named functions and methods of ``repro`` from
outside the program (``LAYERS``).  Renaming or deleting one of them makes
``install()`` raise, which breaks ``perfbench/run.py --trace 1``.  This test
resolves every target without installing any wrapper.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_tracer().LAYERS
#: Wrapped by ``install()`` outside ``LAYERS``.
EXTRA_TARGETS = ["repro.service.api:ApiServer.submit",
                 "repro.service.store:_iter_jsonl_records"]


@pytest.mark.parametrize("target", sorted({target for _, target in LAYERS}
                                          | set(EXTRA_TARGETS)))
def test_traced_target_resolves(target):
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in path:
        class_name, method = path.split(".")
        # install() wraps ``owner.__dict__[method]``: the method must be
        # defined on the class itself, not inherited.
        assert callable(vars(getattr(module, class_name))[method])
    else:
        assert callable(getattr(module, path))
