"""Common interface of the scientific kernels."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.models.execution import KernelInstance, NDRange

if TYPE_CHECKING:
    import numpy as np

    from repro.functional.program import KernelSpec, Program
    from repro.ir.functions import Module
    from repro.substrate.hls_baseline import HLSKernelCharacteristics

__all__ = ["KernelWorkload", "ScientificKernel", "fixed_point_constant"]


def fixed_point_constant(value: float, scale: int) -> int:
    """Round a real coefficient to a positive fixed-point integer constant.

    The integer datapaths embed their real-valued coefficients as
    fixed-point constants; the clamp to 1 keeps a tiny coefficient from
    degenerating to a multiply-by-zero that the resource model would
    optimise away.  One shared rounding rule keeps every kernel's
    datapath constants consistent.
    """
    return max(1, int(round(value * scale)))


@dataclass(frozen=True)
class KernelWorkload:
    """A concrete problem instance of a kernel.

    Inputs are validated eagerly: a workload with an empty grid, a
    non-positive dimension or fewer than one iteration is a configuration
    error, and catching it here gives a clear message instead of a
    division-by-zero (or a silently empty sweep) deep inside the cost
    model.  One-element grids and single-iteration workloads are valid
    edge cases and are exercised by the test-suite.
    """

    kernel: str
    grid: tuple[int, ...]
    iterations: int

    def __post_init__(self) -> None:
        if not self.kernel:
            raise ValueError("workload kernel name must be non-empty")
        if not self.grid:
            raise ValueError(f"workload {self.kernel!r}: grid must have at least one dimension")
        bad = [d for d in self.grid if not isinstance(d, int) or isinstance(d, bool) or d <= 0]
        if bad:
            raise ValueError(
                f"workload {self.kernel!r}: grid dimensions must be positive integers, "
                f"got {self.grid!r}"
            )
        if not isinstance(self.iterations, int) or isinstance(self.iterations, bool) \
                or self.iterations < 1:
            raise ValueError(
                f"workload {self.kernel!r}: iterations must be a positive integer, "
                f"got {self.iterations!r}"
            )

    @property
    def ndrange(self) -> NDRange:
        return NDRange(self.grid)

    @property
    def global_size(self) -> int:
        return math.prod(self.grid)

    def instance(self, words_per_item: int = 1) -> KernelInstance:
        """The execution-model view of this workload."""
        return KernelInstance(
            kernel=self.kernel,
            ndrange=self.ndrange,
            repetitions=self.iterations,
            words_per_item=words_per_item,
        )


class ScientificKernel:
    """Base class for the paper's evaluation kernels.

    Sub-classes define the class attributes ``name``, ``element_type``,
    ``default_grid`` and ``ops_per_item`` and implement :meth:`spec`,
    :meth:`reference` and :meth:`gather`.
    """

    name: str = "kernel"
    default_grid: tuple[int, ...] = (24, 24, 24)
    default_iterations: int = 1000
    ops_per_item: int = 1
    #: bytes touched per grid point per iteration by the CPU implementation
    cpu_bytes_per_item: int = 16

    # -- to be provided by sub-classes --------------------------------------
    def spec(self) -> KernelSpec:  # pragma: no cover - interface
        raise NotImplementedError

    def reference(self, arrays: dict[str, np.ndarray], iterations: int = 1) -> dict[str, np.ndarray]:
        """Full-grid NumPy reference implementation."""  # pragma: no cover
        raise NotImplementedError

    def gather(self, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Flatten the grid arrays into the gathered per-item tuple components."""
        raise NotImplementedError  # pragma: no cover

    def generate_inputs(self, grid: tuple[int, ...] | None = None, seed: int = 0) -> dict[str, np.ndarray]:
        """Generate a reproducible synthetic problem instance."""
        raise NotImplementedError  # pragma: no cover

    # -- derived functionality ----------------------------------------------
    def baseline_program(self, grid: tuple[int, ...] | None = None) -> Program:
        from repro.functional.program import Program

        grid = grid or self.default_grid
        return Program.baseline(self.spec(), size=math.prod(grid), name=f"{self.name}_baseline")

    def variant_program(self, lanes: int, grid: tuple[int, ...] | None = None) -> Program:
        from repro.functional.typetrans import reshape_transform

        return reshape_transform(self.baseline_program(grid), lanes)

    def build_module(self, lanes: int = 1, grid: tuple[int, ...] | None = None) -> Module:
        """Build the TyTra-IR design variant with ``lanes`` kernel pipelines."""
        from repro.functional.lower import lower_program

        grid = grid or self.default_grid
        program = self.variant_program(lanes, grid)
        return lower_program(program, grid=grid, name=f"{self.name}_l{lanes}")

    def workload(
        self, grid: tuple[int, ...] | None = None, iterations: int | None = None
    ) -> KernelInstance:
        grid = tuple(grid) if grid is not None else self.default_grid
        iterations = iterations if iterations is not None else self.default_iterations
        validated = KernelWorkload(kernel=self.name, grid=grid, iterations=iterations)
        return validated.instance(words_per_item=self.spec().words_per_item)

    def hls_characteristics(self, grid: tuple[int, ...] | None = None) -> HLSKernelCharacteristics:
        from repro.substrate.hls_baseline import HLSKernelCharacteristics

        grid = grid or self.default_grid
        spec = self.spec()
        max_offset = 0
        for offsets in spec.offsets.values():
            for off in offsets:
                resolved = off if isinstance(off, int) else self._resolve_offset(off, grid)
                max_offset = max(max_offset, abs(resolved))
        return HLSKernelCharacteristics(
            name=self.name,
            operations_per_item=self.ops_per_item,
            input_words_per_item=len(spec.inputs),
            output_words_per_item=len(spec.outputs),
            element_bytes=max(1, (spec.element_type.width + 7) // 8),
            dataflow_depth=max(8, self.ops_per_item),
            max_offset_span_words=max_offset,
        )

    def _resolve_offset(self, expr: str, grid: tuple[int, ...]) -> int:
        constants = dict(self.spec().constants)
        for i, dim in enumerate(grid, start=1):
            constants[f"ND{i}"] = dim
        from repro.ir.instructions import _eval_offset_expression

        return _eval_offset_expression(expr, constants)

    def cpu_profile(self) -> dict[str, float]:
        """Operations and bytes per grid point for the CPU baseline model."""
        return {
            "ops_per_item": float(self.ops_per_item),
            "bytes_per_item": float(self.cpu_bytes_per_item),
        }

    def verify_against_reference(
        self,
        grid: tuple[int, ...] | None = None,
        seed: int = 0,
        rtol: float = 1e-6,
    ) -> bool:
        """Check the gathered/elementwise golden against the full-grid reference."""
        import numpy as np

        grid = grid or self.default_grid
        arrays = self.generate_inputs(grid, seed)
        gathered = self.gather(arrays)
        elementwise = self.spec().apply_golden(gathered)
        full = self.reference(arrays, iterations=1)
        for key, value in elementwise.items():
            ref = np.asarray(full[key]).reshape(-1)
            if not np.allclose(np.asarray(value).reshape(-1), ref, rtol=rtol, atol=1e-9):
                return False
        return True
