"""Per-checker tests: one flagging and one clean fixture per checker."""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.base import Project, SourceFile
from repro.lint.checkers import wire_protocol
from repro.lint.checkers.fold_determinism import FoldDeterminismChecker
from repro.lint.checkers.registry_completeness import RegistryCompletenessChecker
from repro.lint.checkers.rng_discipline import RngDisciplineChecker
from repro.lint.checkers.shared_state import BackendSharedStateChecker
from repro.lint.checkers.wire_protocol import PROTOCOL_SUFFIX, WireProtocolChecker
from repro.registry import Registry

FIXTURES = Path(__file__).parent / "fixtures"
REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def run_checker(checker, *paths):
    project = Project.collect(paths, root=Path(__file__).resolve().parents[2])
    return list(checker.run(project))


def rules_of(findings):
    return {finding.rule for finding in findings}


class TestRngDiscipline:
    def test_flags_every_entropy_source(self):
        findings = run_checker(RngDisciplineChecker(), FIXTURES / "rng_flagging.py")
        assert rules_of(findings) == {"RNG001", "RNG002", "RNG003", "RNG004", "RNG005"}

    def test_clean_fixture_passes(self):
        assert run_checker(RngDisciplineChecker(), FIXTURES / "rng_clean.py") == []

    def test_allowlist_exempts_file(self):
        checker = RngDisciplineChecker(allow=("*rng_flagging.py",))
        assert run_checker(checker, FIXTURES / "rng_flagging.py") == []

    def test_explicit_none_seed_still_flagged(self):
        source = SourceFile.from_source(
            "import numpy as np\nrng = np.random.default_rng(None)\n",
            rel="repro/demo.py",
        )
        project = Project(root=Path.cwd(), files=(source,))
        findings = list(RngDisciplineChecker().run(project))
        assert rules_of(findings) == {"RNG001"}


class TestBackendSharedState:
    def test_flags_all_mutation_kinds(self):
        findings = run_checker(
            BackendSharedStateChecker(), FIXTURES / "shared_state_flagging.py"
        )
        assert rules_of(findings) == {"SHARE001", "SHARE002", "SHARE003"}

    def test_clean_fixture_passes(self):
        findings = run_checker(
            BackendSharedStateChecker(), FIXTURES / "shared_state_clean.py"
        )
        assert findings == []


class TestFoldDeterminism:
    def test_flags_all_reduction_kinds(self):
        findings = run_checker(
            FoldDeterminismChecker(), FIXTURES / "fold_flagging.py"
        )
        assert rules_of(findings) == {"FOLD001", "FOLD002", "FOLD003"}

    def test_clean_fixture_passes(self):
        assert run_checker(FoldDeterminismChecker(), FIXTURES / "fold_clean.py") == []

    def test_follows_cross_module_helpers(self):
        helper = SourceFile.from_source(
            "import numpy as np\n"
            "def fold_helper(acc, update):\n"
            "    return acc + np.sum(update)\n",
            rel="src/repro/defenses/demo_helpers.py",
        )
        aggregator = SourceFile.from_source(
            "from repro.defenses.demo_helpers import fold_helper\n"
            "class Agg:\n"
            "    def _fold(self, acc, update):\n"
            "        return fold_helper(acc, update)\n",
            rel="src/repro/defenses/demo_agg.py",
        )
        project = Project(root=Path.cwd(), files=(helper, aggregator))
        findings = list(FoldDeterminismChecker().run(project))
        assert rules_of(findings) == {"FOLD001"}
        assert findings[0].file.endswith("demo_helpers.py")


class TestWireProtocol:
    def _project_with(self, tmp_path, text):
        target = tmp_path / PROTOCOL_SUFFIX.replace(
            "federated/", "repro/federated/", 1
        )
        target.parent.mkdir(parents=True)
        target.write_text(text, encoding="utf-8")
        return Project.collect([tmp_path], root=tmp_path)

    @pytest.fixture()
    def protocol_text(self):
        return (REPO_SRC / "repro" / PROTOCOL_SUFFIX).read_text(encoding="utf-8")

    def test_current_source_matches_golden(self, tmp_path, protocol_text):
        project = self._project_with(tmp_path, protocol_text)
        assert list(WireProtocolChecker().run(project)) == []

    def test_new_header_field_without_bump_fails(self, tmp_path, protocol_text):
        # The pinned regression: adding a reserved header field while
        # PROTOCOL_VERSION stays at its current value must fail.
        marker = 'header["_arrays"] ='
        assert marker in protocol_text
        patched = protocol_text.replace(
            marker, 'header["_shard"] = 0\n    header["_arrays"] =', 1
        )
        project = self._project_with(tmp_path, patched)
        findings = list(WireProtocolChecker().run(project))
        assert rules_of(findings) == {"WIRE002"}
        assert "_shard" in findings[0].message

    def test_version_bump_requires_new_golden(self, tmp_path, protocol_text):
        patched, hits = re.subn(
            r"PROTOCOL_VERSION = \d+", "PROTOCOL_VERSION = 99", protocol_text, count=1
        )
        assert hits == 1
        project = self._project_with(tmp_path, patched)
        assert rules_of(WireProtocolChecker().run(project)) == {"WIRE001"}

    def test_missing_version_constant_fails(self, tmp_path, protocol_text):
        patched, hits = re.subn(
            r"PROTOCOL_VERSION = \d+", "PROTOCOL_VERSION = None", protocol_text, count=1
        )
        assert hits == 1
        project = self._project_with(tmp_path, patched)
        assert rules_of(WireProtocolChecker().run(project)) == {"WIRE003"}

    def test_skips_when_protocol_not_in_scope(self):
        project = Project.collect([FIXTURES / "rng_clean.py"])
        assert list(WireProtocolChecker().run(project)) == []


class TestGoldenCommand:
    """``python -m repro.lint.checkers.wire_protocol`` writes only new goldens."""

    @pytest.fixture()
    def golden_dir(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wire_protocol, "GOLDEN_DIR", tmp_path)
        return tmp_path

    @pytest.fixture()
    def golden(self, golden_dir):
        source = REPO_SRC / "repro" / PROTOCOL_SUFFIX
        fingerprint = wire_protocol.extract_fingerprint(
            ast.parse(source.read_text(encoding="utf-8"))
        )
        return golden_dir / f"protocol_v{fingerprint['version']}.json", fingerprint

    def test_help_prints_usage_and_writes_nothing(self, golden_dir, capsys):
        assert wire_protocol._main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out
        assert list(golden_dir.iterdir()) == []

    def test_help_through_the_module_entry_writes_nothing(self):
        goldens = sorted(wire_protocol.GOLDEN_DIR.iterdir())
        before = {path: path.stat().st_mtime_ns for path in goldens}
        env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint.checkers.wire_protocol", "--help"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage:")
        assert "wrote" not in proc.stdout
        assert sorted(wire_protocol.GOLDEN_DIR.iterdir()) == goldens
        assert {path: path.stat().st_mtime_ns for path in goldens} == before

    def test_unknown_argument_exits_2_and_writes_nothing(self, golden_dir, capsys):
        assert wire_protocol._main(["--force"]) == 2
        assert "--force" in capsys.readouterr().err
        assert list(golden_dir.iterdir()) == []

    def test_missing_golden_is_written(self, golden, capsys):
        path, fingerprint = golden
        assert wire_protocol._main([]) == 0
        assert "wrote" in capsys.readouterr().out
        assert json.loads(path.read_text(encoding="utf-8")) == fingerprint

    def test_up_to_date_golden_is_left_alone(self, golden, capsys):
        path, fingerprint = golden
        text = json.dumps(fingerprint, indent=1)  # equal content, other bytes
        path.write_text(text, encoding="utf-8")
        assert wire_protocol._main([]) == 0
        assert "up to date" in capsys.readouterr().out
        assert path.read_text(encoding="utf-8") == text

    def test_drifted_golden_exits_1_and_is_left_alone(self, golden, capsys):
        path, fingerprint = golden
        # Protocol v7's reserved fields, before v8 dropped "_dtype".
        drifted = dict(fingerprint, reserved_header_fields=["_arrays", "_dtype"])
        text = json.dumps(drifted)
        path.write_text(text, encoding="utf-8")
        assert wire_protocol._main([]) == 1
        err = capsys.readouterr().err
        assert "bump PROTOCOL_VERSION" in err
        assert "reserved_header_fields" in err
        assert path.read_text(encoding="utf-8") == text


class TestRegistryCompleteness:
    @pytest.fixture()
    def empty_project(self):
        return Project(root=Path.cwd(), files=())

    def test_flags_broken_members(self, empty_project):
        registry = Registry("demo_lint_bad")
        try:

            @registry.register("shadowed")
            class Shadowed:
                def __init__(self, name):
                    self.name = name

            @registry.register("boom")
            class Boom:
                def __init__(self):
                    raise RuntimeError("nope")

            @registry.register("un:speccable")
            class Weird:
                pass

            registry.register("opaque")(dict)

            checker = RegistryCompletenessChecker(families="demo_lint_bad")
            findings = list(checker.run(empty_project))
            assert rules_of(findings) == {"REG002", "REG003", "REG004", "REG005"}
        finally:
            Registry._families.pop("demo_lint_bad", None)

    def test_flags_unimportable_family(self, empty_project):
        Registry("demo_lint_missing", load_from=("repro.lint._no_such_module",))
        try:
            checker = RegistryCompletenessChecker(families="demo_lint_missing")
            findings = list(checker.run(empty_project))
            assert rules_of(findings) == {"REG001"}
        finally:
            Registry._families.pop("demo_lint_missing", None)

    def test_clean_family_passes(self, empty_project):
        registry = Registry("demo_lint_good")
        try:

            @registry.register("fine")
            class Fine:
                def __init__(self, scale=1.0):
                    self.scale = scale

            checker = RegistryCompletenessChecker(families="demo_lint_good")
            assert list(checker.run(empty_project)) == []
        finally:
            Registry._families.pop("demo_lint_good", None)

    def test_skipped_outside_full_package_lint(self, empty_project):
        # Without an explicit family list and without repro/registry.py in
        # scope, the dynamic sweep must not run at all.
        assert list(RegistryCompletenessChecker().run(empty_project)) == []
