"""The lint suite applied to this repository itself."""

from __future__ import annotations

from pathlib import Path

from repro.lint.base import Project, SourceFile
from repro.lint.checkers.rng_discipline import RngDisciplineChecker
from repro.lint.engine import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The Linear constructor as it shipped before this lint suite existed —
#: the exact defect rng-discipline exists to catch (``rng or default_rng()``
#: silently drew OS entropy per construction, and treated seed 0 as falsy).
PRE_FIX_LAYERS_SNIPPET = '''
import numpy as np

class Linear:
    def __init__(self, in_features, out_features, rng=None):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer dimensions must be positive")
        rng = rng or np.random.default_rng()
        self.in_features = in_features
'''


def test_package_lints_clean():
    report = run_lint([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
    details = "\n".join(finding.format() for finding in report.findings)
    assert report.exit_code == 0, f"repro lint found:\n{details}"
    # The committed baseline is empty: nothing passes by suppression.
    assert report.suppressed == []


def test_rng_discipline_catches_the_pre_fix_layer_defaults():
    source = SourceFile.from_source(
        PRE_FIX_LAYERS_SNIPPET, rel="repro/nn/layers.py"
    )
    project = Project(root=REPO_ROOT, files=(source,))
    findings = list(RngDisciplineChecker().run(project))
    assert [finding.rule for finding in findings] == ["RNG001"]
    assert findings[0].context == "rng = rng or np.random.default_rng()"
