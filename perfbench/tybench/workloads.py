"""The four closed-loop workloads: `cli`, `sweep`, `serve` and `verify`.

Each workload has one caller that waits for every reply before it sends
the next op.  A workload object does one cold set-up per :meth:`probe`
(the last one leaves the state the run uses), runs single ops with
:meth:`run_op`, and checks outputs in :meth:`finish`.  Checks append to
``ctx.mismatches``; an op the program answers with a dropped connection
is ``failed`` but not a mismatch.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import http.client
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tybench.inputs import SERVE_DECK_SIZE, SERVE_WARMUP, VERIFY_PASS, sweep_ops

CHILD = Path(__file__).resolve().parent / "child.py"


@dataclass
class Op:
    """One timed op as the caller saw it."""

    kind: str
    wall: float
    #: design points (cli, sweep, serve) or RTL work items (verify)
    units: int = 0
    failed: bool = False
    #: set by ops whose output is checked after the run
    key: str = ""
    digest: bytes = b""


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    mismatches: list = field(default_factory=list)

    def env(self, cache_dir: Path, **extra: str) -> dict:
        env = dict(os.environ)
        env.pop("TYBEC_TRACE", None)
        env.update(PYTHONPATH=str(self.root / "src"), TYBEC_CACHE_DIR=str(cache_dir),
                   TMPDIR=str(self.work / "tmp"), **extra)
        return env

    def mismatch(self, op: "Op", message: str) -> None:
        """Record a wrong output; the op counts as failed."""
        op.failed = True
        self.mismatches.append(message)


def suite_config(spec: dict):
    """The ``SuiteConfig`` that ``tybec suite run`` builds from the same flags."""
    from repro.suite import SuiteConfig

    return SuiteConfig(
        max_lanes=spec["max_lanes"],
        forms=tuple(spec.get("forms", ("auto",))),
        clocks_mhz=tuple(spec["clocks_mhz"]),
        grids={k: tuple(v) for k, v in spec.get("grids", {}).items()},
    )


def spec_key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


def sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def report_line_digest(config, event: bool = False) -> bytes:
    """Digest of the canonical one-line report of ``config`` from the
    in-process dense path; with ``event``, of the ``report`` event line the
    service streams for it.  (``canonical_json_line`` canonicalizes the
    payload as the server's ``canonical_dict`` did; doing it twice changes
    nothing.)"""
    from repro.explore.dense import DenseBackend
    from repro.suite import WorkloadSuite
    from repro.suite.report import canonical_json_line

    run = WorkloadSuite(config, backend=DenseBackend()).run()
    line = run.report.payload
    if event:
        line = {"event": "report", "kind": "suite", "payload": line,
                "evaluated": run.evaluated}
    return sha(canonical_json_line(line).encode())


def verify_family(family, seed: int):
    """Verify one tiny-grid RTL family against the reference model."""
    from repro.flows.base import FlowSettings
    from repro.flows.flows import RTLSimFlow
    from repro.flows.suite import DEFAULT_MAX_ITEMS
    from repro.kernels import get_kernel
    from repro.suite import SuiteConfig

    kernel, lanes = family
    workload = SuiteConfig.tiny(kernels=(kernel,)).workload_for(kernel)
    module = get_kernel(kernel).build_module(lanes=lanes, grid=workload.grid)
    n_items = min(max(1, workload.global_size // lanes), DEFAULT_MAX_ITEMS)
    return RTLSimFlow(module, FlowSettings(use_cache=False, seed=seed,
                                           n_items=n_items)).run()


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def wait_child(proc: subprocess.Popen) -> tuple[int, float]:
    """Reap ``proc``; return its exit status and peak RSS in MB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


class Workload:
    name = ""
    #: timed ops run and discarded before measuring
    warmup = 0
    #: a timed phase runs a whole number of these blocks of ops
    block = 1
    #: span site of the ops now running: "warmup" spans stay in the trace
    #: file but out of the per-layer figures
    op_site = "op"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.cache = ctx.work / "cache"
        self.tracer = None

    def probe_cache(self, index: int) -> Path:
        """A fresh cache dir per cold set-up; the last becomes the run's."""
        path = self.ctx.work / f"cache-{index}"
        path.mkdir(parents=True)
        return path

    def keep_cache(self, path: Path) -> None:
        path.rename(self.cache)
        os.environ["TYBEC_CACHE_DIR"] = str(self.cache)

    def probe(self, index: int, last: bool) -> float:
        raise NotImplementedError

    def start(self) -> None:
        """Untimed preparation after the set-ups."""

    def trace(self, tracer) -> None:
        """Switch to the traced phase: later ops record spans on ``tracer``."""
        from tybench import layers

        self.tracer = tracer
        layers.install(tracer, layers.WORKLOAD_GROUPS[self.name])

    def op_span(self, kind: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(self.op_site, {"kind": kind})

    def run_op(self, spec: dict) -> Op:
        raise NotImplementedError

    def finish(self, ops: list[Op]) -> dict:
        """Check deferred outputs; return extra end-to-end figures."""
        return {"peak_rss_mb": self_peak_rss_mb()}

    def close(self) -> None:
        """Stop anything still running."""

    def child_records(self) -> list[dict]:
        """Spans recorded by other processes during the traced phase."""
        return []

    def _probe_setup_child(self, index: int, last: bool, spec: dict) -> float:
        cache = self.probe_cache(index)
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), "setup", self.name, json.dumps(spec)],
            stdout=subprocess.PIPE, env=self.ctx.env(cache), cwd=self.ctx.root)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"{self.name} set-up failed (exit {proc.returncode})")
        if last:
            self.keep_cache(cache)
        return elapsed


# ----------------------------------------------------------------------
class CliWorkload(Workload):
    """One fresh ``tybec suite run -o`` process per op."""

    name = "cli"
    warmup = 2

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.output = ctx.work / "report.json"
        self.peak_rss = 0.0
        self.records: list[dict] = []
        self.spans_file = ctx.work / "cli-spans.json"

    def probe(self, index: int, last: bool) -> float:
        cache = self.probe_cache(index)
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "cache", "warm"],
            stdout=subprocess.DEVNULL, env=self.ctx.env(cache), cwd=self.ctx.root)
        status, _ = wait_child(proc)
        elapsed = time.perf_counter() - started
        if status != 0:
            raise RuntimeError(f"tybec cache warm exited {status}")
        if last:
            self.keep_cache(cache)
        return elapsed

    def trace(self, tracer) -> None:
        """Traced ops run ``child.py``, which wraps the layers in the child."""
        self.tracer = tracer

    @staticmethod
    def argv(spec: dict, output: Path) -> list[str]:
        return (["suite", "run", "--max-lanes", str(spec["max_lanes"]),
                 "--forms", *spec["forms"],
                 "--clocks", *(str(c) for c in spec["clocks_mhz"]),
                 "-o", str(output)])

    def run_op(self, spec: dict) -> Op:
        self.output.unlink(missing_ok=True)
        argv = self.argv(spec, self.output)
        with self.op_span("suite") as sp:
            if sp is None:
                cmd, env = [sys.executable, "-m", "repro.cli", *argv], self.ctx.env(self.cache)
            else:
                cmd = [sys.executable, str(CHILD), "run", *argv]
                env = self.ctx.env(
                    self.cache, PERFBENCH_SPANS=str(self.spans_file),
                    PERFBENCH_TRACE_ID=sp.trace_id, PERFBENCH_PARENT=sp.span_id,
                    PERFBENCH_WORKLOAD=self.name)
            with open(self.ctx.work / "cli.err", "wb") as err:
                started = time.perf_counter()
                env["PERFBENCH_SPAWNED"] = repr(started)
                proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                        env=env, cwd=self.ctx.root)
                status, rss = wait_child(proc)
                ended = time.perf_counter()
        if sp is not None:
            self._adopt_child_spans(sp, ended)
        self.peak_rss = max(self.peak_rss, rss)
        op = Op("suite", ended - started, key=spec_key(spec))
        if status != 0:
            tail = (self.ctx.work / "cli.err").read_text(errors="replace").strip()[-300:]
            self.ctx.mismatch(op, f"tybec suite run exited {status}: {tail}")
        else:
            op.digest = sha(self.output.read_bytes())
        return op

    def _adopt_child_spans(self, op_span, ended: float) -> None:
        """Add the child's spans, plus its exit: from the end of ``main`` to
        the parent reaping the process (interpreter teardown and, when
        traced, writing the span file)."""
        from tybench.layers import span_record

        records = json.loads(self.spans_file.read_text())
        main = next(r for r in records if r["site"] == "cli.main")
        records.append(span_record(op_span.trace_id, f"{main['pid']:x}-cli.exit", "cli.exit",
                                   main["start"] + main["duration"], ended,
                                   parent=op_span.span_id))
        self.records.extend(records)

    def finish(self, ops: list[Op]) -> dict:
        from repro.explore.dense import DenseBackend
        from repro.suite import WorkloadSuite

        expected: dict[str, tuple[bytes, int]] = {}
        for op in ops:
            if op.failed:
                continue
            if op.key not in expected:
                config = suite_config(json.loads(op.key))
                run = WorkloadSuite(config, backend=DenseBackend()).run()
                expected[op.key] = (sha(run.report.to_json().encode()), run.evaluated)
            digest, points = expected[op.key]
            if op.digest != digest:
                self.ctx.mismatch(op, f"cli report differs from the dense report of {op.key}")
            op.units = points
        return {"peak_rss_mb": self.peak_rss}

    def child_records(self) -> list[dict]:
        return self.records


# ----------------------------------------------------------------------
class SweepWorkload(Workload):
    """In-process ``WorkloadSuite(config).run()`` from cleared process caches."""

    name = "sweep"
    warmup = 5

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.expected: dict[str, bytes] = {}

    def probe(self, index: int, last: bool) -> float:
        return self._probe_setup_child(index, last, sweep_ops(self.ctx.seed, 1)[0])

    def run_op(self, spec: dict) -> Op:
        from repro.compiler.lanescale import clear_family_caches
        from repro.compiler.pipeline import clear_calibration_cache
        from repro.suite import WorkloadSuite
        from repro.suite.report import canonical_json_line

        config = suite_config(spec)
        clear_calibration_cache()
        clear_family_caches()
        gc.collect()
        with self.op_span("suite"):
            started = time.perf_counter()
            run = WorkloadSuite(config).run()
            wall = time.perf_counter() - started
        op = Op("suite", wall, units=run.evaluated)
        key = spec_key(spec)
        if key not in self.expected:
            self.expected[key] = report_line_digest(config)
        if sha(canonical_json_line(run.report.payload).encode()) != self.expected[key]:
            self.ctx.mismatch(op, f"sweep report differs from the dense report of {key}")
        return op


# ----------------------------------------------------------------------
class VerifyWorkload(Workload):
    """In-process RTL verification, one family per op.  Runs measure whole
    passes over the 18 families, whose sizes differ ~100x, so items/s does
    not depend on where a run stops."""

    name = "verify"
    block = VERIFY_PASS

    def probe(self, index: int, last: bool) -> float:
        return self._probe_setup_child(index, last, {"family": ["matmul", 4], "seed": 1})

    def start(self) -> None:
        verify_family(("matmul", 4), 1)

    def run_op(self, spec: dict) -> Op:
        with self.op_span("family"):
            started = time.perf_counter()
            result = verify_family(spec["family"], spec["seed"])
            wall = time.perf_counter() - started
        op = Op("family", wall, units=int(result.payload.get("items", 0)))
        if not result.ok:
            self.ctx.mismatch(op, f"RTL family {spec['family']} seed {spec['seed']} "
                                  "failed verification")
        return op


# ----------------------------------------------------------------------
class Server:
    """A ``tybec serve --port 0`` process with its stderr in a file."""

    LISTENING = re.compile(rb"listening on http://[^:]+:(\d+)")

    def __init__(self, ctx: Context, cache: Path, argv: list[str], env_extra: dict,
                 log: Path):
        from repro.service import ServiceClient

        self.log = open(log, "wb")
        self.proc = subprocess.Popen(
            argv + ["serve", "--port", "0"], stdout=subprocess.PIPE,
            stderr=self.log, env=ctx.env(cache, **env_extra), cwd=ctx.root)
        line = self.proc.stdout.readline()
        match = self.LISTENING.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"tybec serve did not start: {line!r}")
        self.port = int(match.group(1))
        probe = ServiceClient(port=self.port, timeout=30.0)
        while True:
            try:
                probe.health()
                break
            except ConnectionError:
                if self.proc.poll() is not None:
                    self.stop()
                    raise RuntimeError("tybec serve exited before answering /healthz")
                time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def _recording_client_class():
    from repro.service import ServiceClient, ServiceError

    class RecordingClient(ServiceClient):
        """``ServiceClient`` that also keeps the HTTP status and the raw
        NDJSON lines of its last request."""

        def stream(self, path, body):
            self.lines = []
            conn, response = self._request("POST", path, body)
            self.status = response.status
            try:
                if response.status >= 400:
                    data = json.loads(response.read() or b"{}")
                    raise ServiceError(data.get("error", f"HTTP {response.status} on {path}"))
                for raw in response:
                    line = raw.strip()
                    if line:
                        self.lines.append(raw)
                        yield json.loads(line)
            finally:
                conn.close()

        def digests(self) -> tuple[bytes, bytes]:
            """(every line after the meta line, the final report line)."""
            body = hashlib.sha256()
            for raw in self.lines[1:]:
                body.update(raw)
            return body.digest(), sha(self.lines[-1]) if self.lines else b""

    return RecordingClient


class ServeWorkload(Workload):
    """One ``ServiceClient`` connection at a time against ``tybec serve``."""

    name = "serve"
    warmup = len(SERVE_WARMUP)
    block = SERVE_DECK_SIZE
    #: the server's peak RSS is read after this many timed requests: its
    #: results cache grows with every new config, so a count fixed in
    #: requests, not in seconds, keeps a faster server from reading larger
    rss_after = 3 * SERVE_DECK_SIZE

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.server: Server | None = None
        self.peak_rss = 0.0
        self.designs: dict[str, dict] = {}
        self.first_response: dict[str, bytes] = {}
        self.ops_meta: list[tuple[Op, dict]] = []
        self.server_spans = ctx.work / "server-spans.json"
        self.op_records: list[dict] = []
        self.servers = 0
        self.timed_ops = 0

    def _start_server(self, cache: Path, traced: bool) -> Server:
        self.servers += 1
        log = self.ctx.work / f"server-{self.servers}.err"
        if not traced:
            return Server(self.ctx, cache, [sys.executable, "-m", "repro.cli"], {}, log)
        return Server(self.ctx, cache, [sys.executable, str(CHILD), "run"],
                      {"PERFBENCH_SPANS": str(self.server_spans),
                       "PERFBENCH_TRACE_ID": self.tracer.trace_id,
                       "PERFBENCH_WORKLOAD": self.name,
                       "PERFBENCH_SPAWNED": repr(time.perf_counter())}, log)

    def probe(self, index: int, last: bool) -> float:
        import repro.service  # noqa: F401 - imported here, not in the timed set-up

        cache = self.probe_cache(index)
        started = time.perf_counter()
        server = self._start_server(cache, traced=False)
        elapsed = time.perf_counter() - started
        if last:
            self.server = server
            self.keep_cache(cache)
        else:
            server.stop()
        return elapsed

    def start(self) -> None:
        self.client = _recording_client_class()(port=self.server.port)

    def trace(self, tracer) -> None:
        """Restart the service under the layer wrappers; the op sequence
        replays from its first op on the fresh server."""
        self.tracer = tracer
        self._stop_server()
        self.server = self._start_server(self.cache, traced=True)
        self.client = _recording_client_class()(port=self.server.port)
        self.first_response.clear()

    def _design(self, body: dict) -> dict:
        key = f"{body['kernel']}_l{body['lanes']}"
        if key not in self.designs:
            from repro.ir import print_module
            from repro.kernels import REGISTRY

            kernel = REGISTRY[body["kernel"]]()
            module = kernel.build_module(lanes=body["lanes"], grid=kernel.default_grid)
            self.designs[key] = {"design": print_module(module), "name": key,
                                 "grid": tuple(kernel.default_grid),
                                 "iterations": kernel.default_iterations}
        return self.designs[key]

    def _get_prometheus(self) -> bytes:
        conn = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=60)
        try:
            conn.request("GET", "/metrics?format=prometheus")
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"/metrics?format=prometheus answered {response.status}")
            return body
        finally:
            conn.close()

    def run_op(self, spec: dict) -> Op:
        from repro.service import ServiceError

        kind, body = spec["kind"], spec["body"]
        client = self.client
        if self.op_site == "op":
            self.timed_ops += 1
            if self.timed_ops == self.rss_after + 1:
                self.peak_rss = self.server.peak_rss_mb()
        design = self._design(body) if kind == "cost" else None
        outcome = None
        error: Exception | None = None
        started = time.perf_counter()
        try:
            if kind == "metrics":
                outcome = self._get_prometheus()
            elif kind == "cost":
                outcome = client.cost(design["design"], grid=design["grid"],
                                      iterations=design["iterations"], name=design["name"])
            else:
                outcome = client.suite(body)
        except (ConnectionError, ServiceError, RuntimeError) as exc:
            error = exc
        wall = time.perf_counter() - started
        if self.tracer is not None:
            from tybench.layers import span_record

            attrs = {"kind": kind}
            if hasattr(outcome, "role"):
                attrs["role"] = outcome.role
            self.op_records.append(span_record(
                self.tracer.trace_id, f"{os.getpid():x}-op{len(self.op_records)}",
                self.op_site, started, started + wall, attrs=attrs))
        op = Op(kind, wall)
        if kind == "malformed":
            if isinstance(error, ConnectionError):
                op.failed = True      # ROADMAP item 5: the server drops the connection
            elif not (isinstance(error, ServiceError) and client.status == 400):
                self.ctx.mismatch(op, f"malformed body {body} was not refused with HTTP 400")
            return op
        if error is not None:
            self.ctx.mismatch(op, f"{kind} request failed: {error!r}")
            return op
        if kind == "metrics":
            if b"tybec_request_seconds" not in outcome:
                self.ctx.mismatch(op, "/metrics?format=prometheus lacks the request histogram")
            return op
        body_digest, op.digest = client.digests()
        role = outcome.role
        if kind == "cost":
            op.units, op.key = 1, f"cost:{design['name']}"
            self.ops_meta.append((op, body))
            return op
        op.units = len(outcome.entries)
        op.key = spec_key(body)
        expected_role = "replay" if kind == "replay" else "leader"
        if role != expected_role:
            self.ctx.mismatch(op, f"{kind} request was served as {role!r}")
        if kind == "replay":
            if self.first_response.get(op.key) != body_digest:
                self.ctx.mismatch(op, "replay differs from its first response")
        else:
            self.first_response[op.key] = body_digest
            self.ops_meta.append((op, body))
        return op

    def finish(self, ops: list[Op]) -> dict:
        from repro.service.server import ExplorationService
        from repro.suite.report import canonical_json_line

        expected: dict[str, bytes] = {}
        service = ExplorationService()
        for op, body in self.ops_meta:
            if op.key not in expected:
                if op.key.startswith("cost:"):
                    design = self._design(body)
                    _, _, request = service.lease_cost({**design, "grid": list(design["grid"])})
                    expected[op.key] = sha(canonical_json_line(service.run_cost(request)).encode())
                else:
                    spec = {k: v for k, v in body.items() if k != "dense"}
                    expected[op.key] = report_line_digest(suite_config(spec), event=True)
            if op.digest != expected[op.key]:
                self.ctx.mismatch(op, f"{op.kind} payload differs from the in-process report")
        return {"peak_rss_mb": self.peak_rss or self.server.peak_rss_mb()}

    def _stop_server(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def close(self) -> None:
        self._stop_server()

    def child_records(self) -> list[dict]:
        from tybench import layers

        self._stop_server()
        records = json.loads(self.server_spans.read_text())
        layers.adopt_by_time(self.op_records, records)
        return self.op_records + records


WORKLOADS = {"cli": CliWorkload, "sweep": SweepWorkload, "serve": ServeWorkload,
             "verify": VerifyWorkload}
