"""Prometheus text exposition of the system's metric families.

Every stat surface declares its counters where it counts, as a
:class:`~repro.resilience.policy.MetricFamily` (name, kind, label names,
help text): the resilience ``COUNTERS``, each estimation pipeline's
cache requests and stage seconds, the dense backend, the disk cache and
the service.  :class:`MetricsRegistry` renders those families as they
were declared, in text exposition format 0.0.4, next to the one family
type the registry owns itself: the request-latency histogram.  Nothing
here re-parses a JSON payload or guesses a value's kind from its shape.

This module reads families by attribute only, so it imports nothing from
the rest of ``repro``.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Iterable, Sequence

DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(labelnames: Sequence[str], values: Sequence[Any]) -> str:
    if not labelnames:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(labelnames, values)
    )
    return "{" + body + "}"


def _header(lines: list[str], name: str, kind: str, help: str) -> None:
    if help:
        lines.append(f"# HELP {name} {help}")
    lines.append(f"# TYPE {name} {kind}")


class _HistogramChild:
    __slots__ = ("_lock", "buckets", "counts", "total", "count")

    def __init__(self, lock: threading.Lock, buckets: Sequence[float]) -> None:
        self._lock = lock
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # last slot is +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self.total += value
            self.count += 1
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[i] += 1
                    return
            self.counts[-1] += 1


class Histogram:
    """A labelled histogram family; ``labels(...)`` picks one series."""

    def __init__(self, name: str, help: str, labelnames: Sequence[str],
                 buckets: Sequence[float]) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(buckets)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], _HistogramChild] = {}

    def labels(self, **labels: Any) -> _HistogramChild:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"expected labels {self.labelnames}, got {tuple(labels)}")
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _HistogramChild(self._lock, self.buckets)
            return child

    def render(self, lines: list[str]) -> None:
        with self._lock:
            children = [(key, list(c.counts), c.total, c.count)
                        for key, c in self._children.items()]
        _header(lines, self.name, "histogram", self.help)
        names = (*self.labelnames, "le")
        for key, counts, total, count in children:
            cumulative = 0
            for bound, n in zip(self.buckets, counts):
                cumulative += n
                le = _format_labels(names, (*key, _format_value(bound)))
                lines.append(f"{self.name}_bucket{le} {cumulative}")
            le = _format_labels(names, (*key, "+Inf"))
            lines.append(f"{self.name}_bucket{le} {count}")
            labels = _format_labels(self.labelnames, key)
            lines.append(f"{self.name}_sum{labels} {_format_value(total)}")
            lines.append(f"{self.name}_count{labels} {count}")


def _render_family(lines: list[str], family) -> None:
    _header(lines, family.name, family.kind, family.help)
    for key, value in family.snapshot().items():
        values = key if isinstance(key, tuple) else (key,)
        labels = _format_labels(family.labelnames, values)
        lines.append(f"{family.name}{labels} {_format_value(float(value))}")


class MetricsRegistry:
    """The histograms a service owns, rendered beside its counter families."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._histograms: dict[str, Histogram] = {}

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        with self._lock:
            if name in self._histograms:
                raise ValueError(f"histogram {name!r} is already registered")
            histogram = self._histograms[name] = Histogram(
                name, help, labelnames, buckets)
            return histogram

    def render_prometheus(self, families: Iterable = ()) -> str:
        """Text exposition of ``families`` and the registry's histograms.

        Each family renders as declared (its ``# TYPE`` line even before
        its first sample); same-named families must be summed first
        (:func:`~repro.resilience.policy.sum_families`).
        """
        lines: list[str] = []
        for family in sorted(families, key=lambda f: f.name):
            _render_family(lines, family)
        with self._lock:
            histograms = sorted(self._histograms.values(), key=lambda h: h.name)
        for histogram in histograms:
            histogram.render(lines)
        return "\n".join(lines) + "\n" if lines else ""
