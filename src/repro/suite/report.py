"""Canonical, deterministic suite reports.

A suite report is the JSON artifact the golden-regression harness pins:
re-running the same suite configuration on the same code must produce a
byte-identical file, and any cost-model change must show up as a
field-level difference.  Three properties make that work:

* **stable key ordering** — every mapping is serialised with sorted keys;
* **no wall-clock fields** — per-variant ``estimation_seconds`` is
  stripped (the engine's ``canonical_report_dict``), and the suite adds
  no timestamps;
* **float normalisation** — floats are rounded to 9 significant digits,
  which is far finer than any genuine model change yet coarse enough to
  absorb cross-platform BLAS/libm jitter in the calibration fits.

Every report is stamped with a schema version so the ``diff`` machinery
can refuse to compare incompatible layouts instead of reporting noise.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii
from math import copysign
from operator import itemgetter
from pathlib import Path

from repro import record
from repro.obs.trace import span as trace_span

__all__ = [
    "SCHEMA",
    "VALIDATION_SCHEMA",
    "FLOW_SCHEMA",
    "DSE_SCHEMA",
    "KNOWN_SCHEMAS",
    "FLOAT_SIGNIFICANT_DIGITS",
    "canonicalize",
    "canonical_json",
    "canonical_json_line",
    "SuiteReport",
    "load_report",
]

#: schema stamp of the suite-report JSON layout
SCHEMA = "repro-suite-report/1"

#: schema stamp of the cross-validation report layout (see :mod:`repro.validate`)
VALIDATION_SCHEMA = "repro-validation-report/1"

#: schema stamp of the RTL flow report layout (see :mod:`repro.flows`)
FLOW_SCHEMA = "repro-flow-report/1"

#: schema stamp of the optimizer-driven DSE report layout (per-round
#: provenance + each optimizer's own result summary; see
#: :func:`repro.suite.runner.run_dse`)
DSE_SCHEMA = "repro-dse-report/1"

#: every canonical-report layout this codebase knows how to load and diff
KNOWN_SCHEMAS = (SCHEMA, VALIDATION_SCHEMA, FLOW_SCHEMA, DSE_SCHEMA)

#: significant digits kept for floats in canonical payloads
FLOAT_SIGNIFICANT_DIGITS = 9


def canonicalize(value, float_digits: int = FLOAT_SIGNIFICANT_DIGITS):
    """Normalise a JSON-ish payload for deterministic serialisation.

    Floats are rounded to ``float_digits`` significant digits (integral
    floats stay floats, so the JSON type of a field never flips), tuples
    become lists, mappings are rebuilt with sorted keys, and a report row
    (an object with ``row_leaves``) is expanded through its ``as_dict()``.

    This is the reference the row encoder of :func:`canonical_json` is
    tested against; the encoders themselves run it only over the frame.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(f"{value:.{float_digits}g}")
    if isinstance(value, dict):
        return {str(k): canonicalize(v, float_digits) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonicalize(v, float_digits) for v in value]
    if hasattr(value, "row_leaves"):
        return canonicalize(value.as_dict(), float_digits)
    raise TypeError(f"cannot canonicalise {type(value).__name__!r} value {value!r}")


# ----------------------------------------------------------------------
# The row encoder
# ----------------------------------------------------------------------
#
# A report *row* (a :class:`~repro.explore.engine.SweepEntry`) has a
# fixed key layout for a given ``row_layout()``, so its canonical text is
# a cached template with one slot per scalar leaf.  The template is
# derived from the row's own ``as_dict()``: its leaves are swapped for a
# marker and the result goes through the same ``json.dumps`` call as the
# reference, so key order, separators and indentation are the stdlib's.
# ``row_leaves()`` reads the leaves straight from the objects, in that
# sorted-key order; the leaves of each JSON kind are picked out together
# and formatted as ``json.dumps`` formats their canonical values.

_INF = float("inf")

#: the marker a leaf stands in for in a template
_MARK = "\x00"
_MARK_TEXT = json.dumps(_MARK)

#: the marker row ``i`` stands in for in a frame, and its dumped text
_ROW = "\x00row%d"
_ROW_TEXT = re.compile(r'"\\u0000row(\d+)"')


def _float_text(value) -> str:
    value = float(f"{value:.{FLOAT_SIGNIFICANT_DIGITS}g}")
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


#: each JSON kind of leaf, and how ``json.dumps`` spells its canonical value
_LEAF_TEXT = {
    float: _float_text,
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}


def _leaf_kind(leaf_type: type) -> type:
    """The JSON kind of a leaf type: one of the keys of ``_LEAF_TEXT``."""
    for kind in (bool, int, float, str, type(None)):   # a bool is an int too
        if issubclass(leaf_type, kind):
            return kind
    raise TypeError(f"cannot canonicalise {leaf_type.__name__!r} value")


def _leaf_text(value) -> str:
    """The canonical JSON text of one scalar leaf."""
    return _LEAF_TEXT[_leaf_kind(type(value))](value)


def _float_texts(values: tuple, memo: dict) -> list[str]:
    """Spell floats through ``memo`` (float -> text), which learns the
    ones it misses.  ``0.0 == -0.0``, so the memo spells both zeros
    ``0.0`` and a negative one is respelled."""
    texts = list(map(memo.get, values))
    if None in texts or "0.0" in texts:
        for i, text in enumerate(texts):
            if text is None:
                texts[i] = memo[values[i]] = _float_text(values[i])
            elif text == "0.0" and copysign(1.0, values[i]) < 0:
                texts[i] = "-0.0"
    return texts


def _picker(indices: list):
    """``seq -> (seq[i] for i in indices)`` as a tuple, in one C call."""
    if len(indices) == 1:
        index = indices[0]
        return lambda seq: (seq[index],)
    return itemgetter(*indices)


def _dumps(value, depth: int | None) -> str:
    """The stdlib dump: indented at ``depth`` containers deep, or compact
    (``depth`` None)."""
    if depth is None:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    text = json.dumps(value, sort_keys=True, indent=2)
    return text.replace("\n", "\n" + "  " * depth) if depth else text


def _marked(value, leaves: list):
    """A canonical value with every scalar leaf swapped for the marker;
    ``leaves`` collects their texts in sorted-key order."""
    if isinstance(value, dict):
        return {k: _marked(v, leaves) for k, v in value.items()}
    if isinstance(value, list):
        return [_marked(v, leaves) for v in value]
    leaves.append(json.dumps(value))
    return _MARK


class _RowPlan:
    """How the rows of one layout, with one type per leaf, are encoded."""

    def __init__(self, row, leaves: tuple):
        expected: list[str] = []
        self.marked = _marked(canonicalize(row.as_dict()), expected)
        if list(map(_leaf_text, leaves)) != expected:
            raise AssertionError(f"{type(row).__name__}.row_leaves() does "
                                 f"not read the leaves of its as_dict()")
        kinds = [_leaf_kind(type(v)) for v in leaves]
        #: (kind, pick the leaves of that kind), kind by kind
        self.gather = []
        position: dict[int, int] = {}
        for kind in _LEAF_TEXT:
            slots = [i for i, k in enumerate(kinds) if k is kind]
            if slots:
                self.gather.append((kind, _picker(slots)))
                position.update((slot, len(position)) for slot in slots)
        #: the gathered texts back in slot order
        self.order = _picker([position[i] for i in range(len(kinds))])
        self.templates: dict[int | None, str] = {}

    def template(self, depth: int | None) -> str:
        template = _dumps(self.marked, depth).replace("%", "%%")
        template = self.templates[depth] = template.replace(_MARK_TEXT, "%s")
        return template

    def text(self, leaves: tuple, depth: int | None, memo: dict) -> str:
        texts: list[str] = []
        for kind, pick in self.gather:
            values = pick(leaves)
            texts += _float_texts(values, memo) if kind is float \
                else map(_LEAF_TEXT[kind], values)
        template = self.templates.get(depth) or self.template(depth)
        return template % self.order(texts)


#: (row type, row layout, leaf types) -> its plan
_PLANS: dict[tuple, _RowPlan] = {}


def _row_text(row, depth: int | None, memo: dict) -> str:
    """One row's canonical text, ``depth`` containers deep (None: compact)."""
    leaves = row.row_leaves()
    key = (type(row), row.row_layout(), tuple(map(type, leaves)))
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = _RowPlan(row, leaves)
    return plan.text(leaves, depth, memo)


def _frame(value, rows: list, depth: int):
    """:func:`canonicalize` everything but the rows: row ``i`` becomes
    its marker and ``rows[i]`` is the row with its depth."""
    if isinstance(value, dict):
        return {str(k): _frame(v, rows, depth + 1) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_frame(v, rows, depth + 1) for v in value]
    if hasattr(value, "row_leaves"):
        rows.append((value, depth))
        return _ROW % (len(rows) - 1)
    return canonicalize(value)


def _memo(floats: dict | None) -> dict:
    """A float -> text memo for :func:`_float_texts`: ``floats`` itself
    when the caller keeps one, seeded with its zero."""
    if floats is None:
        return {0.0: "0.0"}
    floats.setdefault(0.0, "0.0")
    return floats


def _encode(payload, indent: bool, spelled: dict | None = None,
            floats: dict | None = None) -> tuple[str, int]:
    """The canonical text of ``payload`` and the number of rows in it.

    ``spelled`` (compact encodes only) maps ``id(row)`` to the text of a
    row of ``payload`` spelled before, which is taken instead of spelling
    the row again.  ``floats`` is a float -> text memo the payload's rows
    share (a fresh one by default).
    """
    rows: list = []
    frame = _frame(payload, rows, 0)
    text = _dumps(frame, 0 if indent else None)
    if not rows:
        return text, 0
    parts = _ROW_TEXT.split(text)
    order = [int(i) for i in parts[1::2]]
    if sorted(order) != list(range(len(rows))):   # a frame string spells a marker
        return _dumps(canonicalize(payload), 0 if indent else None), len(rows)
    spelled = spelled or {}
    memo = _memo(floats)
    for at, i in enumerate(order, 1):
        row, depth = rows[i]
        parts[2 * at - 1] = spelled.get(id(row)) or \
            _row_text(row, depth if indent else None, memo)
    return "".join(parts), len(rows)


def canonical_json(payload) -> str:
    """The canonical serialisation: sorted keys, 2-space indent, newline.

    Byte-identical to ``json.dumps(canonicalize(payload), sort_keys=True,
    indent=2)``; rows are encoded through their cached templates.
    """
    return _encode(payload, True)[0] + "\n"


def canonical_json_line(payload, spelled: dict | None = None,
                        floats: dict | None = None) -> str:
    """One canonical NDJSON line: same normalisation, no indentation.

    This is the streaming sibling of :func:`canonical_json` — the
    exploration service emits one line per event (progress entries, then
    the final report), and clients that concatenate the ``report`` event's
    payload back through :func:`canonical_json` recover the byte-identical
    file a batch run would have written.

    An event that is itself a report row (an ``entry`` event) fills its
    template directly.  Two arguments let the lines of one stream share
    work: ``spelled`` maps ``id(row)`` to the compact text of rows of
    ``payload`` already spelled (the service cuts them out of the entry
    lines it streamed), and those rows are not spelled again; ``floats``
    is a dict the encoder keeps float spellings in, so a float repeated
    across the stream is spelled once.
    """
    if hasattr(payload, "row_leaves"):
        return _row_text(payload, None, _memo(floats)) + "\n"
    return _encode(payload, False, spelled, floats)[0] + "\n"


@record
class SuiteReport:
    """A version-stamped suite report, ready to serialise or diff."""

    payload: dict

    @property
    def schema(self) -> str:
        return self.payload.get("schema", "")

    @property
    def kernels(self) -> dict:
        return self.payload.get("kernels", {})

    @property
    def totals(self) -> dict:
        return self.payload.get("totals", {})

    def kernel_payload(self, name: str) -> dict:
        """The standalone single-kernel payload (used for per-kernel goldens).

        Only the *shared sweep axes* of the config are embedded — the
        whole-suite fields (``kernels``, ``grids``, ``iterations``) are
        dropped, because the kernel's own workload is already pinned
        under ``kernels[name]["workload"]``.  This keeps a per-kernel
        golden independent of which *other* kernels are registered or
        selected: recording a subset and recording the full suite produce
        byte-identical files, and adding a seventh kernel to the registry
        does not invalidate the six existing goldens.
        """
        if name not in self.kernels:
            raise KeyError(f"suite report has no kernel {name!r}; "
                           f"available: {sorted(self.kernels)}")
        config = {k: v for k, v in self.payload["config"].items()
                  if k not in ("kernels", "grids", "iterations")}
        return {
            "schema": self.payload["schema"],
            "config": config,
            "kernels": {name: self.kernels[name]},
        }

    def canonical_dict(self) -> dict:
        return canonicalize(self.payload)

    def to_json(self) -> str:
        """The canonical file text (:func:`canonical_json` of the payload)."""
        with trace_span("report.encode") as sp:
            text, rows = _encode(self.payload, True)
            text += "\n"
            if sp is not None:
                sp.attrs.update(bytes=len(text), entries=rows)
        return text

    def write(self, path: Path | str, text: str | None = None) -> Path:
        """Write the report to ``path``; ``text`` is its :meth:`to_json`
        when the caller already has it."""
        if text is None:
            text = self.to_json()
        path = Path(path)
        with trace_span("report.write", bytes=len(text)):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(text.encode())
        return path


def load_report(path: Path | str, expected_schema: str | None = None) -> dict:
    """Load a canonical-report payload, checking the schema stamp.

    ``expected_schema`` pins one layout (e.g. the golden harnesses, which
    know exactly what they recorded); by default any known layout loads,
    which is what ``suite diff`` wants — it compares two reports of the
    *same* layout, whichever that is.
    """
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or "schema" not in payload:
        raise ValueError(f"{path}: not a suite report (no schema stamp)")
    accepted = KNOWN_SCHEMAS if expected_schema is None else (expected_schema,)
    if payload["schema"] not in accepted:
        raise ValueError(
            f"{path}: schema {payload['schema']!r} is not one of the "
            f"supported {', '.join(repr(s) for s in accepted)}"
        )
    return payload
