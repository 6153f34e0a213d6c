"""Flow base classes: declarative settings, managed run directories,
artifact manifests and content-keyed result caching.

A *flow* (the xeda sense of the word) takes one design — here a TyTra-IR
:class:`~repro.ir.functions.Module` — runs one or more tools over its
generated HDL and returns a parsed, canonical result payload.  The base
class owns everything every flow needs:

* **settings** — a frozen record; the subset that affects results
  participates in the cache key;
* **managed run directories** — ``<root>/<design>-<flow>-<key8>/`` with
  every generated artifact plus a ``manifest.json`` of content hashes and
  the flow's own ``result.json``;
* **result caching** — flow results are pure functions of (flow version,
  module content fingerprint, settings), so they persist in the PR-3
  :class:`~repro.cost.cache.DiskCache` under the ``flowresults``
  namespace and re-running an unchanged design is a cache hit;
* the :class:`SimFlow`/:class:`SynthFlow` split mirrors xeda's: sim flows
  verify behaviour against the kernel Python reference, synth-style flows
  report netlist structure.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

from repro import record
from repro.compiler.codegen.testbench import (
    DEFAULT_STIMULUS_SEED,
    select_leaf_function,
)
from repro.compiler.codegen.verilog import VerilogGenerator
from repro.compiler.scheduling import OperatorLatencyModel
from repro.cost.cache import default_disk_cache
from repro.ir.functions import IRFunction, Module, StreamDirection
from repro.obs.profile import maybe_profile
from repro.obs.trace import span as trace_span

__all__ = ["FlowSettings", "FlowResult", "Flow", "SimFlow", "SynthFlow"]

#: DiskCache namespace holding flow result payloads
CACHE_NAMESPACE = "flowresults"


@record(frozen=True)
class FlowSettings:
    """Settings shared by every flow.

    Only the fields returned by :meth:`cache_token` may change the result
    payload; ``run_root`` merely controls where artifacts are written.
    """

    #: directory under which managed run directories are created
    #: (None = no artifacts on disk; the flow runs entirely in memory)
    run_root: Path | str | None = None
    #: stimulus seed shared with the generated testbench
    seed: int = DEFAULT_STIMULUS_SEED
    #: work items to stream (None = the flow's default)
    n_items: int | None = None
    #: consult/populate the persistent flow-result cache
    use_cache: bool = True

    def __post_init__(self) -> None:
        if self.n_items is not None and self.n_items <= 0:
            raise ValueError(f"n_items must be positive, got {self.n_items}")

    def cache_token(self) -> tuple:
        return ("seed", self.seed, "n_items", self.n_items)


@record(frozen=True)
class FlowResult:
    """Outcome of one flow run."""

    flow: str
    design: str
    function: str | None
    payload: dict
    cached: bool
    wall_seconds: float
    run_dir: Path | None
    #: artifact name -> sha256 hex digest (the manifest)
    artifacts: dict
    #: per-stage wall seconds of this run (empty on a cache hit);
    #: deliberately outside the canonical payload, like SweepResult.stats
    stage_seconds: dict = None  # type: ignore[assignment]

    @property
    def ok(self) -> bool:
        return bool(self.payload.get("ok", True))


class Flow:
    """Base class for every flow.

    Sub-classes set ``name`` (the flow's identity, part of run-directory
    names and cache keys), bump ``VERSION`` whenever their payload layout
    or semantics change (invalidating cached results), and implement
    :meth:`execute` returning a JSON-canonicalisable payload.
    """

    name = "flow"
    VERSION = 1

    def __init__(
        self,
        module: Module,
        settings: FlowSettings | None = None,
        latency_model: OperatorLatencyModel | None = None,
        function_name: str | None = None,
    ):
        self.module = module
        self.settings = settings or FlowSettings()
        self.latency_model = latency_model or OperatorLatencyModel()
        self.generator = VerilogGenerator(module, latency_model=self.latency_model)
        self.function_name = function_name
        #: per-stage wall seconds of the most recent execute()
        self.stage_seconds: dict[str, float] = {}
        self._artifact_cache: dict[str, str] | None = None

    @contextmanager
    def _stage(self, name: str):
        """Time one stage of execute() into :attr:`stage_seconds`."""
        started = time.perf_counter()
        try:
            with trace_span("flow.stage", flow=self.name, stage=name):
                yield
        finally:
            self.stage_seconds[name] = (
                self.stage_seconds.get(name, 0.0)
                + time.perf_counter() - started
            )

    # -- to be provided by sub-classes ----------------------------------
    def execute(self) -> dict:
        """Run the flow's tools and return the canonical result payload."""
        raise NotImplementedError  # pragma: no cover - interface

    @classmethod
    def available(cls) -> bool:
        """Whether this flow's tools exist on this machine."""
        return True

    # -- artifacts -------------------------------------------------------
    def artifacts(self) -> dict[str, str]:
        """Generated files this flow operates on (name -> text)."""
        return self.generator.generate_all()

    def cached_artifacts(self) -> dict[str, str]:
        """:meth:`artifacts`, generated at most once per flow instance."""
        if self._artifact_cache is None:
            self._artifact_cache = self.artifacts()
        return self._artifact_cache

    # -- caching ---------------------------------------------------------
    def artifact_fingerprint(self) -> str:
        """Content hash of every generated file the flow operates on.

        Part of the cache key: a codegen change must invalidate cached
        verification verdicts even though the design's IR fingerprint is
        unchanged — serving a pre-edit verdict for post-edit Verilog
        would hide exactly the bug class this subsystem exists to catch.
        Generation is cheap (milliseconds) next to simulation.
        """
        hasher = hashlib.sha256()
        for name, text in sorted(self.cached_artifacts().items()):
            hasher.update(name.encode())
            hasher.update(b"\x00")
            hasher.update(text.encode())
            hasher.update(b"\x00")
        return hasher.hexdigest()

    def cache_token(self) -> tuple:
        latency = self.latency_model
        return (
            "flow", self.name, self.VERSION,
            "design", self.module.content_fingerprint(),
            "artifacts", self.artifact_fingerprint(),
            "function", self.function_name or "",
            "latency", latency.div_cycles_per_bit, latency.sqrt_cycles_per_bit,
            latency.input_stage_cycles,
            "settings", self.settings.cache_token(),
        )

    # -- run directories -------------------------------------------------
    def _run_dir(self, root: Path | str, token: tuple) -> Path:
        digest = hashlib.sha256(repr(token).encode()).hexdigest()[:8]
        run_dir = Path(root) / f"{self.module.name}-{self.name}-{digest}"
        run_dir.mkdir(parents=True, exist_ok=True)
        return run_dir

    def _write_artifacts(self, run_dir: Path, files: dict[str, str]) -> dict:
        manifest = {}
        for name, text in sorted(files.items()):
            (run_dir / name).write_text(text)
            manifest[name] = hashlib.sha256(text.encode()).hexdigest()
        (run_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return manifest

    # -- the run protocol ------------------------------------------------
    def run(self) -> FlowResult:
        """Execute the flow (or serve it from the persistent cache)."""
        with trace_span("flow.run", flow=self.name,
                        design=self.module.name) as sp, \
                maybe_profile(f"flow.{self.name}"):
            result = self._run_flow()
            if sp is not None:
                sp.attrs["cached"] = result.cached
            return result

    def _run_flow(self) -> FlowResult:
        started = time.perf_counter()
        cache = default_disk_cache() if self.settings.use_cache else None
        root = self.settings.run_root
        # the token hashes the design and every generated file: compute
        # it only for the cache or the run directory it keys
        token = self.cache_token() if cache is not None or root is not None else None
        payload = cache.get(CACHE_NAMESPACE, token, dict) if cache is not None else None
        cached = payload is not None

        run_dir = self._run_dir(root, token) if root is not None else None
        manifest: dict = {}
        if run_dir is not None:
            manifest = self._write_artifacts(run_dir, self.cached_artifacts())

        if payload is None:
            payload = self.execute()
            if cache is not None:
                cache.put(CACHE_NAMESPACE, token, payload)
        if not manifest and self._artifact_cache is not None:
            # no run directory: still report the content hashes of the
            # artifacts the (possibly cached) verdict applies to
            manifest = {name: hashlib.sha256(text.encode()).hexdigest()
                        for name, text in sorted(self._artifact_cache.items())}

        if run_dir is not None:
            (run_dir / "result.json").write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return FlowResult(
            flow=self.name,
            design=self.module.name,
            function=self.function_name,
            payload=payload,
            cached=cached,
            wall_seconds=time.perf_counter() - started,
            run_dir=run_dir,
            artifacts=manifest,
            stage_seconds=dict(self.stage_seconds),
        )


class SimFlow(Flow):
    """A flow that simulates one leaf datapath against its reference."""

    name = "sim"
    #: default work items streamed when settings leave n_items unset
    DEFAULT_ITEMS = 256

    def target_function(self) -> IRFunction:
        """The leaf datapath under test (largest leaf by default) — the
        same selection rule the testbench generator applies."""
        return select_leaf_function(self.module, self.function_name)

    @property
    def n_items(self) -> int:
        if self.settings.n_items is None:
            return self.DEFAULT_ITEMS
        return self.settings.n_items

    def output_names(self, func: IRFunction) -> list[str]:
        return [p.port for p in self.module.port_declarations
                if p.function == func.name
                and p.direction is StreamDirection.OUTPUT]

    def reduction_names(self, func: IRFunction) -> list[str]:
        return [r.result for r in func.reductions()]


class SynthFlow(Flow):
    """A flow that elaborates/synthesises the generated HDL and reports
    structural metrics instead of simulating behaviour."""

    name = "synth"
