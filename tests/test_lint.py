"""Self-tests for repro-lint (:mod:`repro.analysis`).

Every shipped rule is proven to (a) fire on a violating fixture, (b) stay
quiet on a clean fixture, (c) be silenced by an inline
``# repro-lint: disable=<rule>`` comment, and (d) be silenced by a
baseline entry.  A meta-test then lints the live repository against the
committed baseline — the same gate ``make lint`` runs in CI.
"""

import json
import os
import textwrap

import pytest

from repro.analysis import Baseline, run_lint
from repro.analysis.cli import main as lint_main
from repro.analysis.rules import all_rules, get_rule

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# --------------------------------------------------------------------- #
# Fixture harness
# --------------------------------------------------------------------- #
def write_tree(root, files):
    """Materialize {relpath: source} under ``root`` and return ``root``."""
    for relpath, source in files.items():
        path = os.path.join(root, *relpath.split("/"))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(textwrap.dedent(source))
    return str(root)


def lint(root, rule, baseline=None, targets=None):
    """Run one rule over a fixture tree, returning the LintResult."""
    return run_lint(root=root, targets=targets, select=[rule],
                    baseline=baseline)


def baseline_for(result):
    """A Baseline grandfathering exactly the violations in ``result``."""
    entries = [{"rule": v.rule, "path": v.path, "line": v.line,
                "code": v.code, "justification": "fixture"}
               for v in result.violations]
    return Baseline(entries)


#: rule name -> (violating source, clean source, destination path).
#: The violating snippet must trip the rule exactly once on its last line
#: so the suppression variant can disable it by comment.
FIXTURES = {
    "rng-discipline": (
        """\
        import numpy as np
        rng = np.random.default_rng()
        """,
        """\
        import numpy as np
        rng = np.random.default_rng(7)
        """,
        "src/repro/core/fix.py",
    ),
    "no-wallclock-in-core": (
        """\
        import time
        stamp = time.time()
        """,
        """\
        import time
        start = time.perf_counter()
        """,
        "src/repro/core/fix.py",
    ),
    "lock-discipline": (
        """\
        def save(path):
            handle = open(path, "w")
            handle.close()
        """,
        """\
        from .locks import atomic_write

        def save(path):
            atomic_write(path, "content")
        """,
        "src/repro/service/fix.py",
    ),
    "telemetry-guard": (
        """\
        from ..obs.metrics import PROFILER

        def loop():
            PROFILER.add_count("steps")
        """,
        """\
        from ..obs.metrics import PROFILER

        def loop():
            prof = PROFILER if PROFILER.enabled else None
            if prof is not None:
                prof.add_count("steps")
        """,
        "src/repro/core/fix.py",
    ),
    "exception-hygiene": (
        """\
        def risky():
            try:
                return 1
            except Exception:
                pass
        """,
        """\
        def risky():
            try:
                return 1
            except ValueError:
                return 0
        """,
        "src/repro/core/fix.py",
    ),
    "docstring-coverage": (
        """\
        \"\"\"Module docstring.\"\"\"

        def public():
            return 1
        """,
        """\
        \"\"\"Module docstring.\"\"\"

        def public():
            \"\"\"Documented.\"\"\"
            return 1
        """,
        "src/repro/service/fix.py",
    ),
}


# --------------------------------------------------------------------- #
# Per-rule fixtures: fire / clean / suppressed / baselined
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("rule", sorted(FIXTURES))
class TestRuleFixtures:
    """The four-way contract every simple per-file rule honors."""

    def test_fires_on_violation(self, tmp_path, rule):
        bad, _clean, path = FIXTURES[rule]
        root = write_tree(tmp_path, {path: bad})
        result = lint(root, rule)
        assert [v.rule for v in result.violations] == [rule]
        assert result.violations[0].path == path

    def test_quiet_on_clean(self, tmp_path, rule):
        _bad, clean, path = FIXTURES[rule]
        root = write_tree(tmp_path, {path: clean})
        assert lint(root, rule).violations == []

    def test_inline_suppression(self, tmp_path, rule):
        bad, _clean, path = FIXTURES[rule]
        root = write_tree(tmp_path, {path: bad})
        line = lint(root, rule).violations[0].line
        lines = textwrap.dedent(bad).splitlines()
        lines[line - 1] += f"  # repro-lint: disable={rule}"
        root = write_tree(tmp_path, {path: "\n".join(lines) + "\n"})
        assert lint(root, rule).violations == []

    def test_baseline_silences_and_goes_stale(self, tmp_path, rule):
        bad, clean, path = FIXTURES[rule]
        root = write_tree(tmp_path, {path: bad})
        first = lint(root, rule)
        baseline = baseline_for(first)
        silenced = lint(root, rule, baseline=baseline)
        assert silenced.violations == []
        assert len(silenced.baselined) == 1
        assert silenced.ok
        # Fixing the code without pruning the entry flips it to stale.
        root = write_tree(tmp_path, {path: clean})
        stale = lint(root, rule, baseline=baseline)
        assert stale.violations == []
        assert len(stale.stale_baseline) == 1
        assert not stale.ok


# --------------------------------------------------------------------- #
# Rule-specific behaviors beyond the generic fixtures
# --------------------------------------------------------------------- #
class TestRngDiscipline:
    """Shapes beyond the generic unseeded fixture."""

    def test_global_state_call_fires(self, tmp_path):
        root = write_tree(tmp_path, {"src/repro/core/fix.py": """\
            import numpy as np
            np.random.seed(0)
            x = np.random.rand(3)
            """})
        result = lint(root, "rng-discipline")
        assert len(result.violations) == 2
        assert all("global-state" in v.message for v in result.violations)

    def test_derive_by_draw_fires(self, tmp_path):
        root = write_tree(tmp_path, {"src/repro/core/fix.py": """\
            import numpy as np

            def child(rng):
                return np.random.default_rng(rng.integers(0, 2 ** 31))
            """})
        result = lint(root, "rng-discipline")
        assert len(result.violations) == 1
        assert "derive_rng" in result.violations[0].message

    def test_seeded_and_seedsequence_clean(self, tmp_path):
        root = write_tree(tmp_path, {"src/repro/core/fix.py": """\
            import numpy as np
            a = np.random.default_rng(0)
            b = np.random.default_rng(np.random.SeedSequence([1, 2]))
            """})
        assert lint(root, "rng-discipline").violations == []

    def test_utils_rng_module_exempt(self, tmp_path):
        root = write_tree(tmp_path, {"src/repro/utils/rng.py": """\
            import numpy as np
            rng = np.random.default_rng()
            """})
        assert lint(root, "rng-discipline").violations == []


class TestExceptionHygiene:
    """Re-raise and scoping subtleties."""

    def test_reraise_is_clean(self, tmp_path):
        root = write_tree(tmp_path, {"src/repro/core/fix.py": """\
            def cleanup():
                try:
                    return 1
                except BaseException:
                    print("rolling back")
                    raise
            """})
        assert lint(root, "exception-hygiene").violations == []

    def test_bare_except_fires(self, tmp_path):
        root = write_tree(tmp_path, {"src/repro/core/fix.py": """\
            def swallow():
                try:
                    return 1
                except:
                    return 0
            """})
        result = lint(root, "exception-hygiene")
        assert len(result.violations) == 1
        assert "bare except" in result.violations[0].message

    def test_assert_fires_in_src_not_benchmarks(self, tmp_path):
        source = """\
            def check(x):
                assert x > 0
                return x
            """
        root = write_tree(tmp_path, {"src/repro/core/fix.py": source,
                                     "benchmarks/test_fix.py": source})
        result = lint(root, "exception-hygiene")
        assert [v.path for v in result.violations] == ["src/repro/core/fix.py"]
        assert "python -O" in result.violations[0].message


class TestDigestHygiene:
    """Cross-file request/digest consistency checks."""

    SERVICE = {
        "src/repro/service/records.py": """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class ScanRequest:
                checkpoint: str
                seed: int = 0
            """,
        "src/repro/service/scheduler.py": """\
            from dataclasses import dataclass
            from .fingerprint import digest_config
            from .records import ScanRequest

            @dataclass(frozen=True)
            class ResolvedScan:
                request: ScanRequest
                key: str
                trace_id: str = ""

            def resolve_request(request):
                payload = {"checkpoint": request.checkpoint,
                           "seed": request.seed}
                return ResolvedScan(request=request,
                                    key=digest_config(payload))
            """,
        "src/repro/service/fingerprint.py": """\
            def digest_config(config):
                \"\"\"Digest stub.\"\"\"
                return str(config)
            """,
    }
    # Dedent up front so the mutating .replace calls below can splice in
    # lines at real (4-space) indentation without breaking dedent.
    SERVICE = {path: textwrap.dedent(source)
               for path, source in SERVICE.items()}

    def test_clean_service_passes(self, tmp_path):
        root = write_tree(tmp_path, dict(self.SERVICE))
        assert lint(root, "digest-hygiene").violations == []

    def test_unkeyed_request_field_fires(self, tmp_path):
        files = dict(self.SERVICE)
        files["src/repro/service/records.py"] = \
            files["src/repro/service/records.py"].replace(
                "seed: int = 0", "seed: int = 0\n    sneaky_knob: int = 3")
        root = write_tree(tmp_path, files)
        result = lint(root, "digest-hygiene")
        assert len(result.violations) == 1
        assert "sneaky_knob" in result.violations[0].message
        assert result.violations[0].path == "src/repro/service/records.py"

    def test_helper_reads_count_as_keyed(self, tmp_path):
        files = dict(self.SERVICE)
        files["src/repro/service/records.py"] = \
            files["src/repro/service/records.py"].replace(
                "seed: int = 0", "seed: int = 0\n    iterations: int = 40")
        files["src/repro/service/scheduler.py"] = \
            files["src/repro/service/scheduler.py"].replace(
                "def resolve_request",
                "def _detector_config(request):\n"
                "    return {\"iterations\": request.iterations}\n\n"
                "def resolve_request").replace(
                '"seed": request.seed}',
                '"seed": request.seed,\n'
                '           "config": _detector_config(request)}')
        root = write_tree(tmp_path, files)
        assert lint(root, "digest-hygiene").violations == []

    def test_unconstructed_resolved_field_fires(self, tmp_path):
        files = dict(self.SERVICE)
        files["src/repro/service/scheduler.py"] = \
            files["src/repro/service/scheduler.py"].replace(
                'trace_id: str = ""', 'trace_id: str = ""\n    orphan: int = 0')
        root = write_tree(tmp_path, files)
        result = lint(root, "digest-hygiene")
        assert len(result.violations) == 1
        assert "orphan" in result.violations[0].message

    def test_transport_key_in_digest_fires(self, tmp_path):
        files = dict(self.SERVICE)
        files["src/repro/service/scheduler.py"] = \
            files["src/repro/service/scheduler.py"].replace(
                '"seed": request.seed}',
                '"seed": request.seed,\n           "trace_id": "oops"}')
        root = write_tree(tmp_path, files)
        result = lint(root, "digest-hygiene")
        assert len(result.violations) == 1
        assert "trace_id" in result.violations[0].message


class TestLockDiscipline:
    """Sanctioned write paths stay quiet; side doors fire."""

    def test_append_os_open_clean_truncate_fires(self, tmp_path):
        root = write_tree(tmp_path, {"src/repro/service/fix.py": """\
            import os

            def append(path, data):
                return os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

            def clobber(path):
                return os.open(path, os.O_WRONLY | os.O_TRUNC)
            """})
        result = lint(root, "lock-discipline")
        assert len(result.violations) == 1
        assert result.violations[0].line == 7

    def test_read_open_clean(self, tmp_path):
        root = write_tree(tmp_path, {"src/repro/service/fix.py": """\
            def load(path):
                with open(path, "r") as handle:
                    return handle.read()
            """})
        assert lint(root, "lock-discipline").violations == []

    def test_outside_service_not_scoped(self, tmp_path):
        root = write_tree(tmp_path, {"src/repro/eval/fix.py": """\
            def save(path):
                open(path, "w").close()
            """})
        assert lint(root, "lock-discipline").violations == []


class TestTelemetryGuard:
    """Self-guarded helpers allowed; tracer lifecycle banned in core."""

    def test_phase_context_and_span_clean(self, tmp_path):
        root = write_tree(tmp_path, {"src/repro/core/fix.py": """\
            from ..obs.metrics import PROFILER
            from ..obs.trace import TRACER, span as _tspan

            def detect():
                with PROFILER.phase("sweep"):
                    with _tspan("inversion"):
                        TRACER.check_fork()
            """})
        assert lint(root, "telemetry-guard").violations == []

    def test_tracer_lifecycle_fires(self, tmp_path):
        root = write_tree(tmp_path, {"src/repro/core/fix.py": """\
            from ..obs.trace import TRACER

            def detect():
                TRACER.begin("scan")
            """})
        result = lint(root, "telemetry-guard")
        assert len(result.violations) == 1
        assert "TRACER.begin" in result.violations[0].message


class TestEngine:
    """Framework-level behaviors: suppressions, parse errors, CLI."""

    def test_disable_all_comment(self, tmp_path):
        # core/ is docstring-gated, so the fixture carries a module docstring.
        root = write_tree(tmp_path, {"src/repro/core/fix.py": """\
            "Fixture module."
            import time
            stamp = time.time()  # repro-lint: disable
            """})
        result = run_lint(root=root, baseline=None)
        assert result.violations == []

    def test_suppression_is_rule_specific(self, tmp_path):
        root = write_tree(tmp_path, {"src/repro/core/fix.py": """\
            import time
            stamp = time.time()  # repro-lint: disable=rng-discipline
            """})
        result = lint(root, "no-wallclock-in-core")
        assert len(result.violations) == 1

    def test_parse_error_reported(self, tmp_path):
        root = write_tree(tmp_path, {"src/repro/core/fix.py": "def broken(:\n"})
        result = run_lint(root=root, baseline=None)
        assert [v.rule for v in result.violations] == ["parse-error"]

    def test_unknown_rule_rejected(self, tmp_path):
        root = write_tree(tmp_path, {"src/repro/core/fix.py": "X = 1\n"})
        with pytest.raises(KeyError):
            run_lint(root=root, select=["no-such-rule"])

    def test_registry_exposes_all_shipped_rules(self):
        names = {rule.name for rule in all_rules()}
        assert {"rng-discipline", "digest-hygiene", "lock-discipline",
                "telemetry-guard", "no-wallclock-in-core",
                "exception-hygiene", "docstring-coverage"} <= names
        assert get_rule("rng-discipline").description

    def test_cli_json_and_exit_codes(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"src/repro/core/fix.py": """\
            "Fixture module."
            import time
            stamp = time.time()
            """})
        status = lint_main(["--root", root, "--no-baseline", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert status == 1
        assert payload["counts"]["violations"] == 1
        assert payload["violations"][0]["rule"] == "no-wallclock-in-core"

    def test_cli_update_baseline_roundtrip(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"src/repro/core/fix.py": """\
            "Fixture module."
            import time
            stamp = time.time()
            """})
        baseline_path = os.path.join(root, "baseline.json")
        assert lint_main(["--root", root, "--baseline", baseline_path,
                          "--update-baseline"]) == 0
        payload = json.loads(open(baseline_path).read())
        assert len(payload["entries"]) == 1
        assert "TODO" in payload["entries"][0]["justification"]
        capsys.readouterr()
        assert lint_main(["--root", root, "--baseline", baseline_path]) == 0


class TestLiveRepo:
    """The gate itself: the repository lints clean against its baseline."""

    def test_repo_lints_clean_against_committed_baseline(self):
        baseline = Baseline.load(
            os.path.join(REPO_ROOT, "tools", "lint_baseline.json"))
        result = run_lint(root=REPO_ROOT, baseline=baseline)
        messages = [v.format() for v in result.violations]
        assert messages == [], "\n".join(messages)
        assert result.stale_baseline == [], result.stale_baseline
        assert result.files_checked > 50

    def test_committed_baseline_entries_are_justified(self):
        path = os.path.join(REPO_ROOT, "tools", "lint_baseline.json")
        payload = json.loads(open(path).read())
        assert payload["entries"], "baseline unexpectedly empty"
        for entry in payload["entries"]:
            assert entry.get("justification"), entry
            assert "TODO" not in entry["justification"], entry

    def test_api_and_routing_modules_are_in_scope_with_no_baseline(self):
        """The HTTP/triage modules lint clean with zero grandfathering.

        Guards the PR-9 acceptance bar: ``api.py`` and ``routing.py`` are
        covered by the directory-scoped service rules (lock discipline,
        docstring coverage, RNG/digest/telemetry hygiene) and earned no
        new baseline entries.
        """
        new_modules = ("src/repro/service/api.py",
                       "src/repro/service/routing.py")
        for module in new_modules:
            assert os.path.exists(os.path.join(REPO_ROOT, module)), module
        result = run_lint(root=REPO_ROOT, targets=list(new_modules))
        assert result.files_checked == len(new_modules)
        assert [v.format() for v in result.violations] == []
        assert result.baselined == []

        scoped = {rule.name: [m for m in new_modules if rule.applies_to(m)]
                  for rule in all_rules() if hasattr(rule, "applies_to")}
        for rule_name in ("lock-discipline", "docstring-coverage",
                          "rng-discipline", "digest-hygiene",
                          "exception-hygiene"):
            assert scoped[rule_name] == list(new_modules), (
                f"{rule_name} must cover the HTTP/triage modules")
        # HTTP handling is service plumbing: wall-clock reads are allowed,
        # and the hot-path telemetry hoist only binds inside core/.
        assert scoped["no-wallclock-in-core"] == []
        assert scoped["telemetry-guard"] == []

        payload = json.loads(open(
            os.path.join(REPO_ROOT, "tools", "lint_baseline.json")).read())
        grandfathered = {e["path"] for e in payload["entries"]}
        assert not grandfathered & set(new_modules), (
            "new service modules must not be baselined")

    def test_fleet_execution_modules_are_in_scope_with_no_baseline(self):
        """The execution core and fleet lint clean with zero grandfathering.

        Guards the fleet acceptance bar: ``planning.py``, ``backends.py``,
        and ``fleet.py`` — the module whose JSONL job/lease tables live or
        die by lock discipline — are covered by the directory-scoped
        service rules and earned no new baseline entries.
        """
        new_modules = ("src/repro/service/planning.py",
                       "src/repro/service/backends.py",
                       "src/repro/service/fleet.py")
        for module in new_modules:
            assert os.path.exists(os.path.join(REPO_ROOT, module)), module
        result = run_lint(root=REPO_ROOT, targets=list(new_modules))
        assert result.files_checked == len(new_modules)
        assert [v.format() for v in result.violations] == []
        assert result.baselined == []

        scoped = {rule.name: [m for m in new_modules if rule.applies_to(m)]
                  for rule in all_rules() if hasattr(rule, "applies_to")}
        for rule_name in ("lock-discipline", "docstring-coverage",
                          "rng-discipline", "digest-hygiene",
                          "exception-hygiene"):
            assert scoped[rule_name] == list(new_modules), (
                f"{rule_name} must cover the execution-core/fleet modules")
        # The fleet is service plumbing: wall-clock reads (lease deadlines)
        # are allowed, and the telemetry hoist only binds inside core/.
        assert scoped["no-wallclock-in-core"] == []
        assert scoped["telemetry-guard"] == []

        payload = json.loads(open(
            os.path.join(REPO_ROOT, "tools", "lint_baseline.json")).read())
        grandfathered = {e["path"] for e in payload["entries"]}
        assert not grandfathered & set(new_modules), (
            "the execution-core/fleet modules must not be baselined")
