"""External EDA tool discovery and invocation.

The pure-Python RTL backend needs nothing installed; the optional
adapters (iverilog, verilator, yosys) are discovered on ``PATH`` at use
time and skipped cleanly when absent — a flow asking for a missing tool
gets a :class:`ToolUnavailableError` it can turn into a skip, never a
crash deep inside ``subprocess``.
"""

from __future__ import annotations

import logging
import shutil
import subprocess
import time

from repro import record
from repro.cost.cache import env_int
from repro.obs.logs import get_logger, log_event
from repro.obs.trace import span as trace_span
from repro.resilience import (
    COUNTERS,
    Deadline,
    RetryPolicy,
    TransientError,
    maybe_fail,
)

_LOG = get_logger("flows.tools")

__all__ = [
    "ToolUnavailableError",
    "ToolCrashError",
    "ToolResult",
    "find_tool",
    "require_tool",
    "run_tool",
    "available_tools",
]

#: the external tools the optional adapters know how to drive
KNOWN_TOOLS = ("iverilog", "vvp", "verilator", "yosys")


class ToolUnavailableError(RuntimeError):
    """The requested external tool is not on PATH."""

    def __init__(self, tool: str):
        super().__init__(
            f"external tool {tool!r} not found on PATH; install it or use "
            "the pure-Python backend")
        self.tool = tool


class ToolCrashError(TransientError):
    """The tool subprocess could not be launched or died on the OS side.

    Transient: launch failures and kills are substrate trouble (fork
    pressure, OOM reaper), the kind a bounded retry can outlive.
    """


@record(frozen=True)
class ToolResult:
    argv: tuple
    returncode: int
    stdout: str
    stderr: str
    #: the invocation hit its (deadline-clipped) timeout and was killed
    timed_out: bool = False
    #: non-exit-code failure description ("" when the tool actually ran)
    error: str = ""
    elapsed_seconds: float = 0.0
    #: invocations it took to produce this result (1 = first try)
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.timed_out and not self.error

    @property
    def failure_summary(self) -> str:
        """One line describing why the invocation failed ("" when ok)."""
        if self.ok:
            return ""
        name = self.argv[0] if self.argv else "tool"
        if self.timed_out:
            return (f"{name} timed out after {self.elapsed_seconds:.1f}s "
                    f"({self.attempts} attempt(s))")
        if self.error:
            return f"{name} failed to run: {self.error}"
        return f"{name} exited with status {self.returncode}"


def find_tool(name: str) -> str | None:
    """Absolute path of an external tool, or None when absent."""
    return shutil.which(name)


def require_tool(name: str) -> str:
    path = find_tool(name)
    if path is None:
        raise ToolUnavailableError(name)
    return path


#: default invocation budget for one external tool run
DEFAULT_TOOL_POLICY = RetryPolicy(
    max_attempts=env_int("TYBEC_TOOL_ATTEMPTS", 2),
    base_delay=0.05, max_delay=1.0)


def _decode(raw) -> str:
    """Partial output capture: TimeoutExpired hands back bytes or None."""
    if raw is None:
        return ""
    if isinstance(raw, bytes):
        return raw.decode("utf-8", errors="replace")
    return raw


def run_tool(argv: list[str], cwd=None, timeout: float = 300.0,
             deadline: Deadline | None = None,
             retry_policy: RetryPolicy | None = None) -> ToolResult:
    """Run one external tool invocation, capturing its output.

    Never lets ``subprocess`` trouble escape: a hung tool is killed at
    the (deadline-clipped) timeout and reported as a typed failure with
    whatever partial stdout/stderr it produced; a launch failure or an
    injected crash becomes ``error``.  Crash-shaped failures are retried
    per ``retry_policy``; timeouts and non-zero exits are not retried
    here — a deterministic tool that timed out once will time out again,
    and exit codes are the caller's domain knowledge.
    """
    tool = argv[0] if argv else "tool"
    with trace_span("tool.run", tool=tool) as sp:
        result = _run_tool(argv, cwd, timeout, deadline, retry_policy)
        if sp is not None:
            sp.attrs["returncode"] = result.returncode
            sp.attrs["attempts"] = result.attempts
        return result


def _run_tool(argv, cwd, timeout, deadline, retry_policy) -> ToolResult:
    argv_t = tuple(argv)
    policy = retry_policy or DEFAULT_TOOL_POLICY
    effective = timeout if deadline is None else deadline.clip(timeout)
    last: ToolResult | None = None
    for attempt in policy.attempts():
        if deadline is not None and deadline.expired:
            break
        started = time.perf_counter()
        try:
            maybe_fail("tool", salt=attempt)
            completed = subprocess.run(
                argv, cwd=cwd, timeout=effective, capture_output=True,
                text=True, check=False,
            )
            return ToolResult(
                argv_t, completed.returncode, completed.stdout,
                completed.stderr,
                elapsed_seconds=time.perf_counter() - started,
                attempts=attempt + 1,
            )
        except subprocess.TimeoutExpired as exc:
            log_event(
                _LOG,
                "tool.timeout",
                level=logging.WARNING,
                site="tool.run",
                key=argv_t[0] if argv_t else "",
                cause=f"timed out after {effective:.1f}s",
                attempt=attempt + 1,
            )
            return ToolResult(
                argv_t, returncode=-1,
                stdout=_decode(exc.stdout), stderr=_decode(exc.stderr),
                timed_out=True,
                error=f"timed out after {effective:.1f}s",
                elapsed_seconds=time.perf_counter() - started,
                attempts=attempt + 1,
            )
        except (TransientError, OSError) as exc:
            log_event(
                _LOG,
                "tool.crashed",
                level=logging.WARNING,
                site="tool.run",
                key=argv_t[0] if argv_t else "",
                cause=f"{type(exc).__name__}: {exc}",
                attempt=attempt + 1,
            )
            last = ToolResult(
                argv_t, returncode=-1, stdout="", stderr="",
                error=f"{type(exc).__name__}: {exc}",
                elapsed_seconds=time.perf_counter() - started,
                attempts=attempt + 1,
            )
            if attempt < policy.max_attempts - 1:
                COUNTERS.bump("retries")
                COUNTERS.bump("retries.tool")
                pause = policy.delay(attempt, key=f"tool:{argv_t[0] if argv_t else ''}")
                if deadline is not None:
                    pause = min(pause, deadline.remaining())
                if pause > 0:
                    time.sleep(pause)
    if last is None:
        log_event(
            _LOG,
            "tool.deadline_expired",
            level=logging.WARNING,
            site="tool.run",
            key=argv_t[0] if argv_t else "",
            cause="deadline expired before the tool could run",
        )
        last = ToolResult(
            argv_t, returncode=-1, stdout="", stderr="",
            error="deadline expired before the tool could run",
            timed_out=True, attempts=0,
        )
    return last


def available_tools() -> dict[str, str | None]:
    """Discovery report over every known external tool."""
    return {name: find_tool(name) for name in KNOWN_TOOLS}
