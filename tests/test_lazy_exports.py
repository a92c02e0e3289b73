"""Lazy package exports resolve to their definitions, and cache keys stay put.

``repro``, ``repro.nn``, ``repro.core``, ``repro.attacks``, ``repro.data``,
``repro.eval``, ``repro.obs`` and ``repro.service`` resolve their public
names on first access (:mod:`repro._lazy`), and the detector configs a
cache key digests live in :mod:`repro.core.configs`.  A wrong export table
would break an import path; a renamed config class or a changed default
would orphan every cached verdict without any error.  The digests and the key below were
computed before the configs moved, so they pin both.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.models import build_model
from repro.nn.serialization import save_model
from repro.service.cli import _request_fields, build_parser
from repro.service.fingerprint import digest_config
from repro.service.records import RepairRequest, ScanRequest
from repro.service.repair import resolve_repair
from repro.service.scheduler import _detector_config, resolve_request

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
PACKAGES = ("repro", "repro.nn", "repro.core", "repro.attacks",
            "repro.service", "repro.eval", "repro.data", "repro.obs")

#: Detector-config digests of a CLI scan with default flags.
CLI_DEFAULT_DIGESTS = {"usb": "63172bfad996700e", "nc": "041d72694c3a3640",
                       "tabor": "8a0c700a33f96440"}
#: ``resolve_request`` key of a default USB scan of the fixture below.
FIXTURE_USB_KEY = ("e4ef0396aa052ffd60456eeb091d257aadd9f4a2fc63fcac643bba60"
                   "2606e5a7:usb:bf4825401358c808")
#: ``resolve_repair`` key of a default repair of the fixture below.
FIXTURE_REPAIR_KEY = ("e4ef0396aa052ffd60456eeb091d257aadd9f4a2fc63fcac643b"
                      "ba602606e5a7:repair+usb:e51d4ab6fd5d5deb")

#: Import the packages, then resolve every exported name: each must be the
#: object its defining module holds (a module export: that submodule).
RESOLVE = """
import importlib, inspect, json, sys
packages = %r
for package in packages:
    importlib.import_module(package)
eager = sorted(m for m in sys.modules if m.startswith("repro.")
               and m not in packages and m != "repro._lazy")
wrong = []
for package in packages:
    module = sys.modules[package]
    table = getattr(module, "_EXPORTS", {})
    for name in module.__all__:
        value = getattr(module, name)
        if inspect.ismodule(value):
            ok = value.__name__ == package + "." + name
        elif inspect.isclass(value) or inspect.isfunction(value):
            home = value.__module__
            ok = (home.startswith(package + ".")
                  and getattr(sys.modules[home], value.__name__) is value)
        elif name in table:
            ok = getattr(importlib.import_module(
                package + "." + table[name]), name) is value
        else:
            ok = name == "__version__"
        if not ok:
            wrong.append(package + "." + name)
print(json.dumps({"eager": eager, "wrong": wrong}))
"""

#: ``repro.utils.ssim`` is a submodule and a re-exported function: once the
#: trigger optimizer has imported the submodule, the package attribute
#: must still be the function.
SSIM_AFTER_OPTIMIZER = """
import json
import repro.core.trigger_optimizer
import repro.utils
print(json.dumps([callable(repro.utils.ssim),
                  callable(repro.utils.ssim_tensor)]))
"""


def _run_fresh(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_every_export_resolves_to_its_definition():
    assert _run_fresh(RESOLVE % (PACKAGES,)) == {"eager": [], "wrong": []}


def test_ssim_reexport_survives_the_submodule_import():
    assert _run_fresh(SSIM_AFTER_OPTIMIZER) == [True, True]


def _cli_scan_request(argv):
    """The request ``python -m repro scan <argv>`` builds."""
    args = build_parser().parse_args(["scan"] + argv)
    return ScanRequest(checkpoint=args.checkpoint,
                       **_request_fields(args, ScanRequest))


@pytest.mark.parametrize("detector", sorted(CLI_DEFAULT_DIGESTS))
def test_cli_default_config_digests_are_pinned(detector):
    request = _cli_scan_request(["m.npz", "--detector", detector])
    assert digest_config(_detector_config(request)) == \
        CLI_DEFAULT_DIGESTS[detector]


def _fixture(tmp_path):
    path = str(tmp_path / "fixture.npz")
    save_model(build_model("basic_cnn", num_classes=10, in_channels=3,
                           image_size=12, rng=np.random.default_rng(5)),
               path, metadata={"model": "basic_cnn", "dataset": "cifar10",
                               "image_size": 12})
    return path


def test_scan_key_is_pinned(tmp_path):
    path = _fixture(tmp_path)
    assert resolve_request(_cli_scan_request([path])).key == FIXTURE_USB_KEY


def test_repair_key_is_pinned(tmp_path):
    path = _fixture(tmp_path)
    args = build_parser().parse_args(["repair", path])
    from_cli = RepairRequest(
        scan=ScanRequest(checkpoint=path,
                         **_request_fields(args, ScanRequest)),
        **_request_fields(args, RepairRequest))
    default = RepairRequest(scan=ScanRequest(checkpoint=path))
    assert from_cli == default
    assert resolve_repair(default).key == FIXTURE_REPAIR_KEY
