"""wire-protocol-versioning: protocol drift must bump PROTOCOL_VERSION.

The distributed backend's frame layout (``protocol.py``) is an external
contract: a coordinator and a worker built from different checkouts refuse
to talk across versions, but *silent* structural drift — a new header
field, a reordered struct, a changed dtype default — inside one version
number would make same-version peers mis-parse each other's frames.

This checker computes a structural fingerprint of the protocol module from
its AST (frame magic, struct formats, payload cap, message-type table,
context fields, reserved header keys) and compares it against a committed
golden keyed by version (``goldens/protocol_v{N}.json``).  Any drift while
``PROTOCOL_VERSION`` stays put is an error; bumping the version routes the
change through committing a reviewed new golden::

    PYTHONPATH=src python -m repro.lint.checkers.wire_protocol

writes the golden for the current source's version only if none exists
yet.  A golden that exists is never rewritten: the command exits 0 if it
matches the source and 1 if it differs, saying to bump
``PROTOCOL_VERSION`` — so the command cannot bless drift the checker
exists to catch.  ``--help`` prints usage; any other argument exits 2.
Neither writes anything.
"""

from __future__ import annotations

import ast
import json
import sys
from collections.abc import Iterator
from pathlib import Path

from repro.lint.base import Checker, Project
from repro.lint.findings import Finding
from repro.registry import CHECKERS

#: Path suffix identifying the protocol module inside a linted tree.
PROTOCOL_SUFFIX = "federated/engine/distributed/protocol.py"

#: Directory of committed protocol goldens, shipped with the package.
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "goldens"

#: Top-level constants captured verbatim (unparsed) in the fingerprint.
_CAPTURED_CONSTANTS = ("_MAGIC", "MAX_PAYLOAD")


def extract_fingerprint(tree: ast.Module) -> dict:
    """Structural fingerprint of the protocol module's wire-visible surface."""
    fingerprint: dict = {
        "version": None,
        "constants": {},
        "structs": {},
        "message_types": {},
        "context_fields": [],
        "reserved_header_fields": [],
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            name, value = target.id, node.value
            if name == "PROTOCOL_VERSION" and isinstance(value, ast.Constant):
                fingerprint["version"] = value.value
            elif name in _CAPTURED_CONSTANTS:
                fingerprint["constants"][name] = ast.unparse(value)
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "Struct"
                and value.args
                and isinstance(value.args[0], ast.Constant)
            ):
                fingerprint["structs"][name] = value.args[0].value
            elif name == "CONTEXT_FIELDS" and isinstance(value, (ast.Tuple, ast.List)):
                fingerprint["context_fields"] = [
                    element.value
                    for element in value.elts
                    if isinstance(element, ast.Constant)
                ]
        elif isinstance(node, ast.ClassDef):
            bases = {base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "") for base in node.bases}
            if "IntEnum" not in bases and "Enum" not in bases:
                continue
            for item in node.body:
                if (
                    isinstance(item, ast.Assign)
                    and len(item.targets) == 1
                    and isinstance(item.targets[0], ast.Name)
                    and isinstance(item.value, ast.Constant)
                ):
                    fingerprint["message_types"][item.targets[0].id] = item.value.value
    # Reserved codec keys: every underscore-prefixed string literal in the
    # module (``"_arrays"``) is part of the header namespace the codec
    # claims for itself.
    reserved = {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith("_")
    }
    fingerprint["reserved_header_fields"] = sorted(reserved)
    return fingerprint


def golden_path(version: int, golden_dir: Path | None = None) -> Path:
    return (golden_dir or GOLDEN_DIR) / f"protocol_v{version}.json"


def _diff(golden: dict, current: dict) -> list[str]:
    """Human-readable per-key differences between two fingerprints."""
    changes = []
    for key in sorted(set(golden) | set(current)):
        if golden.get(key) != current.get(key):
            changes.append(f"{key}: {golden.get(key)!r} -> {current.get(key)!r}")
    return changes


@CHECKERS.register("wire-protocol-versioning")
class WireProtocolChecker(Checker):
    """Pin the wire protocol's structure to a committed per-version golden."""

    name = "wire-protocol-versioning"
    description = (
        "the distributed wire protocol's structure must match the committed "
        "golden for its PROTOCOL_VERSION; structural drift requires a "
        "version bump plus a reviewed new golden"
    )
    rules = {
        "WIRE001": "no committed golden for the current PROTOCOL_VERSION",
        "WIRE002": "protocol structure drifted without a PROTOCOL_VERSION bump",
        "WIRE003": "protocol module lost its PROTOCOL_VERSION constant",
    }

    def __init__(self, allow: tuple[str, ...] = (), golden_dir: str | None = None):
        super().__init__(allow=allow)
        self.golden_dir = Path(golden_dir) if golden_dir else GOLDEN_DIR

    def run(self, project: Project) -> Iterator[Finding]:
        source = project.find(PROTOCOL_SUFFIX)
        if source is None or self.allowed(source):
            return  # protocol module not part of this lint scope
        try:
            tree = source.tree()
        except SyntaxError:
            return  # reported by the engine's LINT000
        current = extract_fingerprint(tree)
        version = current["version"]
        if not isinstance(version, int):
            yield self.finding(
                source,
                1,
                "WIRE003",
                "PROTOCOL_VERSION is missing or not an integer literal; the "
                "wire protocol must declare a pinned version",
            )
            return
        path = golden_path(version, self.golden_dir)
        if not path.exists():
            yield self.finding(
                source,
                self._version_line(tree),
                "WIRE001",
                f"no golden committed for protocol version {version}; review "
                "the change and regenerate via "
                "`python -m repro.lint.checkers.wire_protocol`",
            )
            return
        golden = json.loads(path.read_text(encoding="utf-8"))
        changes = _diff(golden, current)
        if changes:
            yield self.finding(
                source,
                self._version_line(tree),
                "WIRE002",
                "wire protocol structure drifted without a PROTOCOL_VERSION "
                f"bump ({'; '.join(changes)}); same-version peers would "
                "mis-parse each other's frames — bump PROTOCOL_VERSION and "
                "commit a new golden",
            )

    @staticmethod
    def _version_line(tree: ast.Module) -> int:
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "PROTOCOL_VERSION"
            ):
                return node.lineno
        return 1


def write_golden(
    source_path: Path | str, golden_dir: Path | None = None
) -> tuple[int, str]:
    """Write the golden for the protocol source's version if none exists.

    Returns ``(exit status, message)``: 0 after writing the golden or
    finding an identical one, 1 when the committed golden differs — the
    structure drifted, so ``PROTOCOL_VERSION`` must be bumped — in which
    case nothing is written.
    """
    text = Path(source_path).read_text(encoding="utf-8")
    fingerprint = extract_fingerprint(ast.parse(text))
    version = fingerprint["version"]
    if not isinstance(version, int):
        raise ValueError(f"{source_path} has no integer PROTOCOL_VERSION")
    path = golden_path(version, golden_dir)
    if path.exists():
        changes = _diff(json.loads(path.read_text(encoding="utf-8")), fingerprint)
        if changes:
            return 1, (
                f"{path} does not match protocol version {version} "
                f"({'; '.join(changes)}); wrote nothing — bump "
                "PROTOCOL_VERSION and run this again"
            )
        return 0, f"{path} is up to date"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(fingerprint, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0, f"wrote {path}"


USAGE = """usage: python -m repro.lint.checkers.wire_protocol [--help]

Write src/repro/lint/goldens/protocol_v<N>.json for the current
PROTOCOL_VERSION <N> of the wire protocol, if no golden for <N> exists.
An existing golden is never rewritten: exit 0 if it matches the source,
1 if it differs (bump PROTOCOL_VERSION)."""


def _main(argv: list[str] | None = None) -> int:
    import repro

    args = sys.argv[1:] if argv is None else list(argv)
    if args == ["--help"]:
        print(USAGE)
        return 0
    if args:
        print(f"unexpected arguments: {' '.join(args)}\n\n{USAGE}", file=sys.stderr)
        return 2
    source = Path(repro.__file__).resolve().parent / PROTOCOL_SUFFIX
    status, message = write_golden(source)
    print(message, file=sys.stderr if status else sys.stdout)
    return status


if __name__ == "__main__":  # pragma: no cover - thin command shim
    raise SystemExit(_main())
