"""One request schema: every entry point builds requests the same way.

:class:`~repro.service.records.ScanRequest` and
:class:`~repro.service.records.RepairRequest` declare each field once; the
CLI flags are generated from that declaration and construction checks
every value.  This module pins:

* the JSON round trip fleet workers decode every job with;
* a parity table of the ``scan``/``grid``/``repair``/``watch`` commands —
  each option with its choices, and the request every argv line below
  builds — recorded before the flags were generated
  (``cli_parity.json``; rewrite it with ``python
  tests/test_request_schema.py``, which dumps the table of the checkout on
  ``PYTHONPATH``, only when a flag is meant to change);
* submit bodies over HTTP: a lossless spelling shares its well-typed twin's
  request and cache key, any other type mismatch, unknown key, empty or
  negative class list or bad repair budget is answered ``400`` before a
  job exists, and the envelope
  (``tenant``, ``priority``, a scan's ``strategy``) is checked the same way
  and kept out of the request.
"""

import http.client
import json
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.scenarios import SCENARIOS
from repro.core.configs import INVERSION_MODES
from repro.data import DATASET_SPECS
from repro.models import build_model
from repro.nn.serialization import save_model
from repro.service import RepairRequest, ScanRequest, resolve_repair
from repro.service import cli, daemon, repair, routing
from repro.service.api import ApiServer
from repro.service.scheduler import resolve_request

PARITY_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "cli_parity.json")

# --------------------------------------------------------------------- #
# JSON round trip
# --------------------------------------------------------------------- #
_OPTIONAL_TEXT = st.none() | st.text(max_size=8)
_CLASSES = st.none() | st.lists(st.integers(0, 12), min_size=1, max_size=6)
_FLOATS = st.floats(allow_nan=False)
_FRACTIONS = st.floats(0.0, 1.0, exclude_min=True)

SCAN_REQUESTS = st.builds(
    ScanRequest, checkpoint=st.text(max_size=8),
    detector=st.sampled_from(("usb", "nc", "tabor", "USB", "Nc")),
    model=_OPTIONAL_TEXT,
    dataset=st.none() | st.sampled_from(sorted(DATASET_SPECS)),
    image_size=st.none() | st.integers(), classes=_CLASSES,
    clean_budget=st.integers(), samples_per_class=st.integers(),
    iterations=st.integers(), uap_passes=st.integers(),
    anomaly_threshold=_FLOATS | st.integers(-5, 5), seed=st.integers(),
    scenario=st.sampled_from(SCENARIOS), source_classes=_CLASSES,
    inversion_mode=st.sampled_from(INVERSION_MODES))

REPAIR_REQUESTS = st.builds(
    RepairRequest, scan=SCAN_REQUESTS,
    strategy=st.sampled_from(("unlearn", "prune", "both")),
    unlearn_epochs=st.integers(1, 10 ** 20),
    learning_rate=st.floats(0.0, exclude_min=True), stamp_fraction=_FRACTIONS,
    prune_fraction=_FRACTIONS, max_accuracy_drop=st.floats(0.0),
    success_flip_rate=_FRACTIONS, rescan=st.booleans(), output=_OPTIONAL_TEXT)


@pytest.mark.parametrize("requests", [SCAN_REQUESTS, REPAIR_REQUESTS],
                         ids=["scan", "repair"])
def test_json_round_trip_rebuilds_the_request(requests):
    @settings(max_examples=150, deadline=None)
    @given(requests)
    def round_trip(request):
        wire = json.loads(json.dumps(request.to_dict()))
        assert type(request).from_dict(wire) == request

    round_trip()


@pytest.mark.parametrize("value, expected", [
    (np.int64(7), 7), (np.int32(-2), -2), (7.0, 7), (np.float64(3.0), 3),
    (np.float32(3.0), 3)])
def test_integers_arrive_exactly_as_int(value, expected):
    # Class ids are never negative.
    request = ScanRequest(checkpoint="m.npz", seed=value,
                          classes=[abs(value)])
    assert request.seed == expected and type(request.seed) is int
    assert request.classes == (abs(expected),)
    assert type(request.classes[0]) is int


@pytest.mark.parametrize("field, value", [
    ("seed", False), ("seed", 2.5), ("seed", "3"), ("seed", float("inf")),
    ("anomaly_threshold", True),
    pytest.param("anomaly_threshold", 2 ** 60 + 1, id="2**60+1"),
    pytest.param("anomaly_threshold", 10 ** 400, id="10**400"),
    ("anomaly_threshold", float("nan")), ("classes", "1,2"),
    ("classes", [True]), ("detector", 1), ("model", 3)])
def test_lossy_or_mistyped_values_are_refused(field, value):
    with pytest.raises(TypeError, match=field):
        ScanRequest(checkpoint="m.npz", **{field: value})


# --------------------------------------------------------------------- #
# CLI parity table
# --------------------------------------------------------------------- #
SCAN_FLAGS = [
    ["--model", "basic_cnn"], ["--dataset", "gtsrb"], ["--image-size", "12"],
    ["--classes", "2,1"], ["--scenario", "source_conditional"],
    ["--source-classes", "3,4"], ["--clean-budget", "20"],
    ["--samples-per-class", "5"], ["--iterations", "4"],
    ["--uap-passes", "2"], ["--anomaly-threshold", "2.5"],
    ["--inversion-mode", "mega"], ["--seed", "7"]]
REPAIR_FLAGS = [
    ["--strategy", "prune"], ["--unlearn-epochs", "2"],
    ["--learning-rate", "0.01"], ["--stamp-fraction", "0.25"],
    ["--prune-fraction", "0.2"], ["--max-accuracy-drop", "5"],
    ["--no-rescan"], ["--output-dir", "out"]]
#: Command -> (its argv without flags, each flag line run once on top).
COMMANDS = {
    "scan": (["scan", "m.npz"],
             [["--detector", "nc"], ["--strategy", "fastest"]] + SCAN_FLAGS),
    "grid": (["grid", "a.npz", "b.npz"],
             [["--detectors", "usb,nc"]] + SCAN_FLAGS),
    "repair": (["repair", "m.npz"],
               [["--detector", "nc"]] + SCAN_FLAGS + REPAIR_FLAGS),
    "watch": (["watch", "drop"],
              [["--detectors", "usb,nc"]] + SCAN_FLAGS
              + [["--repair-strategy", "unlearn"]]),
}


class _Built(Exception):
    """Raised by the stubs with the requests a command built."""


def _options(command):
    """Each option (or positional) of ``command`` -> its choices or None."""
    parser = cli.build_parser()
    commands = next(action for action in parser._actions
                    if action.dest == "command")
    return {"/".join(action.option_strings) or action.dest:
            (list(action.choices) if action.choices else None)
            for action in commands.choices[command]._actions
            if action.dest != "help"}


def _flat(payload, prefix=""):
    flat = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            flat.update(_flat(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


def _built(monkeypatch, argv):
    """The requests ``python -m repro <argv>`` hands on, as flat dicts.

    The scheduler, router, ``run_repairs`` and watch daemon are stubs that
    stop the command with the requests they were given; the daemon stub
    builds the scan (one per detector) and repair requests the real one
    builds for a checkpoint ``drop/m.npz``.
    """
    def stop(requests):
        raise _Built([_flat(request.to_dict()) for request in requests])

    class Scheduler:
        def scan_one(self, request):
            stop([request])

        def scan(self, requests):
            stop(requests)

    class Daemon:
        def __init__(self, config):
            scans = [ScanRequest(checkpoint="drop/m.npz", detector=detector,
                                 **config.request_options)
                     for detector in config.detectors]
            stop(scans + [RepairRequest(scan=scans[0],
                                        **config.repair_options)])

    monkeypatch.setattr(cli, "_make_scheduler", lambda args: Scheduler())
    monkeypatch.setattr(routing, "route_scan",
                        lambda scheduler, request, policy: stop([request]))
    monkeypatch.setattr(repair, "run_repairs",
                        lambda scheduler, requests: stop(requests))
    monkeypatch.setattr(daemon, "WatchDaemon", Daemon)
    with pytest.raises(_Built) as caught:
        cli.main(argv)
    return caught.value.args[0]


def _changed(requests, bases):
    """Each request's fields that differ (in JSON) from the first base
    request of its kind (scan or repair)."""
    rows = []
    for request in requests:
        base = next(b for b in bases
                    if ("checkpoint" in b) == ("checkpoint" in request))
        rows.append({key: value for key, value in request.items()
                     if json.dumps(value) != json.dumps(base.get(key))})
    return rows


def parity_table(monkeypatch):
    """Options and built requests of every command in :data:`COMMANDS`.

    Run from an empty directory: ``--output-dir`` creates its directory.
    """
    table = {"options": {}, "requests": {}}
    for command, (base, flags) in COMMANDS.items():
        table["options"][command] = _options(command)
        bases = _built(monkeypatch, base)
        rows = {"": bases}
        for flag in flags:
            rows[" ".join(flag)] = _changed(_built(monkeypatch, base + flag),
                                            bases)
        table["requests"][command] = rows
    return table


def _dumps(table):
    """``table`` as JSON text, one option or argv line per line."""
    lines = ["{"]
    for section_index, (section, commands) in enumerate(sorted(table.items())):
        lines.append(f' "{section}": {{')
        for command_index, (command, rows) in enumerate(sorted(
                commands.items())):
            lines.append(f'  "{command}": {{')
            entries = [f"   {json.dumps(key)}: {json.dumps(value)}"
                       for key, value in sorted(rows.items())]
            lines.append(",\n".join(entries))
            lines.append("  }" + ("," if command_index < len(commands) - 1
                                  else ""))
        lines.append(" }" + ("," if section_index < len(table) - 1 else ""))
    return "\n".join(lines + ["}"]) + "\n"


def test_cli_parity_table_is_unchanged(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    with open(PARITY_PATH, "r", encoding="utf-8") as handle:
        expected = handle.read()
    # Compared as text, so a 4.0 where the table has 4 fails too.
    assert _dumps(parity_table(monkeypatch)) == expected


# --------------------------------------------------------------------- #
# Submit bodies over HTTP
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """An untrained 12 px ``basic_cnn`` checkpoint with metadata."""
    path = str(tmp_path_factory.mktemp("schema") / "fixture.npz")
    save_model(build_model("basic_cnn", num_classes=10, in_channels=3,
                           image_size=12, rng=np.random.default_rng(5)),
               path, metadata={"model": "basic_cnn", "dataset": "cifar10",
                               "image_size": 12})
    return path


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """A server that queues submissions and runs none of them."""
    api = ApiServer(str(tmp_path_factory.mktemp("schema") / "store"),
                    port=0).start(dispatch=False)
    yield api
    api.close()


def _post(api, route, body):
    conn = http.client.HTTPConnection(api.host, api.port, timeout=30)
    try:
        conn.request("POST", route, body=json.dumps(body),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _key(request):
    if isinstance(request, RepairRequest):
        return resolve_repair(request).key
    return resolve_request(request).key


ENVELOPE = {"tenant": "team-a", "priority": 3}
#: (route, body, twin): the body's request equals ``twin``'s and shares
#: its cache key, or, with ``twin`` None, the body is refused with a 400
#: whose error names the body's last key.
BODIES = [
    ("/v1/scans", {"iterations": 4.0}, {"iterations": 4}),
    ("/v1/scans", {"anomaly_threshold": 2}, {"anomaly_threshold": 2.0}),
    ("/v1/scans", {"classes": [2, 1, 1]}, {"classes": [2, 1]}),
    ("/v1/scans", {"seed": True}, None),
    ("/v1/scans", {"clean_budget": "20"}, None),
    ("/v1/scans", {"iterations": 4.5}, None),
    ("/v1/scans", {"classes": [1.5]}, None),
    ("/v1/scans", {"classes": []}, None),
    ("/v1/scans", {"classes": [-1]}, None),
    ("/v1/scans", {"scenario": "source_conditional", "source_classes": []},
     None),
    ("/v1/scans", {"source_classes": [0, -1]}, None),
    ("/v1/scans", {"iteratons": 5}, None),
    ("/v1/scans", {"priority": 5.7}, None),
    ("/v1/scans", {"priority": True}, None),
    ("/v1/scans", {"priority": "5"}, None),
    ("/v1/scans", {"tenant": 5}, None),
    ("/v1/repairs", {"strategy": "bogus"}, None),
    ("/v1/repairs", {"success_flip_rate": 7}, None),
    ("/v1/repairs", {"tenant": ["a"]}, None),
    ("/v1/scans", {**ENVELOPE, "strategy": "fastest", "seed": 1},
     {"seed": 1}),
    ("/v1/repairs", {**ENVELOPE, "strategy": "prune", "seed": 1},
     {"strategy": "prune", "scan": {"seed": 1}}),
    ("/v1/repairs", {**ENVELOPE, "scan": {"seed": 1}, "unlearn_epochs": 2},
     {"scan": {"seed": 1}, "unlearn_epochs": 2}),
]


def _with_checkpoint(fields, checkpoint):
    """A submit body: ``fields`` plus the checkpoint, nested if they are."""
    if "scan" in fields:
        return {**fields, "scan": {"checkpoint": checkpoint,
                                   **fields["scan"]}}
    return {"checkpoint": checkpoint, **fields}


@pytest.mark.parametrize(
    "route, body, twin", BODIES,
    ids=[f"{route.split('/')[-1]}-{json.dumps(body, separators=(',', ':'))}"
         for route, body, _ in BODIES])
def test_submit_body_is_checked_at_the_door(server, checkpoint, route, body,
                                            twin):
    jobs = len(server._jobs)
    code, answer = _post(server, route, _with_checkpoint(body, checkpoint))
    if twin is None:
        assert code == 400, answer
        assert list(body)[-1] in answer["error"]
        assert len(server._jobs) == jobs
        return
    assert code == 202, answer
    job = server.job(answer["job_id"])
    assert (job.tenant, job.priority) == (body.get("tenant", "default"),
                                          body.get("priority", 0))
    scan = route == "/v1/scans"
    assert job.strategy == (body.get("strategy") if scan else None)
    cls = ScanRequest if scan else RepairRequest
    expected = cls.from_dict(_with_checkpoint(twin, checkpoint))
    assert job.request == expected
    assert _key(job.request) == _key(expected)


if __name__ == "__main__":
    # Dump the parity table of the checkout on PYTHONPATH to stdout.
    import tempfile

    with tempfile.TemporaryDirectory() as scratch, \
            pytest.MonkeyPatch.context() as patch:
        patch.chdir(scratch)
        sys.stdout.write(_dumps(parity_table(patch)))
