"""Field-by-field diffing of canonical suite reports.

The diff walks two payloads in parallel and reports every leaf-level
difference with its full path (``kernels.sor.entries[3].report.
throughput.ekit_per_s``), so a cost-model regression points straight at
the quantity that moved.  An optional relative tolerance lets callers
accept bounded float drift; the golden harness uses the default of exact
equality on the canonically-rounded values.
"""

from __future__ import annotations

from repro import record
from repro.suite.report import canonicalize

__all__ = ["FieldDiff", "diff_payloads", "format_diffs"]


@record(frozen=True)
class FieldDiff:
    """One leaf-level difference between two payloads."""

    path: str
    kind: str            # 'changed' | 'added' | 'removed' | 'type'
    left: object = None
    right: object = None

    def __str__(self) -> str:
        if self.kind == "added":
            return f"{self.path}: only in right ({self.right!r})"
        if self.kind == "removed":
            return f"{self.path}: only in left ({self.left!r})"
        return f"{self.path}: {self.left!r} != {self.right!r}"


def _floats_close(a: float, b: float, rtol: float) -> bool:
    if a == b:
        return True
    if rtol <= 0:
        return False
    scale = max(abs(a), abs(b))
    return abs(a - b) <= rtol * scale


def _walk(left, right, path: str, rtol: float, out: list[FieldDiff]) -> None:
    if isinstance(left, dict) and isinstance(right, dict):
        for key in sorted(set(left) | set(right)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in left:
                out.append(FieldDiff(sub, "added", right=right[key]))
            elif key not in right:
                out.append(FieldDiff(sub, "removed", left=left[key]))
            else:
                _walk(left[key], right[key], sub, rtol, out)
        return
    if isinstance(left, list) and isinstance(right, list):
        for index in range(max(len(left), len(right))):
            sub = f"{path}[{index}]"
            if index >= len(left):
                out.append(FieldDiff(sub, "added", right=right[index]))
            elif index >= len(right):
                out.append(FieldDiff(sub, "removed", left=left[index]))
            else:
                _walk(left[index], right[index], sub, rtol, out)
        return
    # leaves: bool is checked before numbers (True != 1.0 is a type diff),
    # and an int/float flip is a type diff too — the canonical JSON bytes
    # change even when the values compare equal, so it must not pass silently
    if (
        isinstance(left, bool) != isinstance(right, bool)
        or isinstance(left, (int, float)) != isinstance(right, (int, float))
        or isinstance(left, float) != isinstance(right, float)
    ):
        out.append(FieldDiff(path, "type", left=left, right=right))
        return
    if isinstance(left, float) and isinstance(right, float):
        if not _floats_close(left, right, rtol):
            out.append(FieldDiff(path, "changed", left=left, right=right))
        return
    if left != right:
        out.append(FieldDiff(path, "changed", left=left, right=right))


def diff_payloads(left, right, rtol: float = 0.0) -> list[FieldDiff]:
    """All leaf-level differences between two payloads (empty = identical).

    Both sides are canonicalised first, so a payload fresh from the
    engine diffs cleanly against one that went through a JSON round-trip.
    """
    out: list[FieldDiff] = []
    _walk(canonicalize(left), canonicalize(right), "", rtol, out)
    return out


def format_diffs(diffs: list[FieldDiff], limit: int = 20) -> str:
    """Human-readable rendering of a diff list (truncated at ``limit``)."""
    if not diffs:
        return "reports are identical"
    lines = [f"{len(diffs)} field difference(s):"]
    lines.extend(f"  {d}" for d in diffs[:limit])
    if len(diffs) > limit:
        lines.append(f"  ... and {len(diffs) - limit} more")
    return "\n".join(lines)
