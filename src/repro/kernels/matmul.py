"""Dense matrix-multiplication kernel (streamed dot-product tuples).

Matrix multiplication is the throughput workhorse of every DSE study; the
streaming formulation here follows the gathered-tuple methodology of the
other kernels.  The inner dimension is fixed at ``K = 4`` (think of it as
one fully-unrolled k-tile of a blocked GEMM): the work-item for output
element ``C[i, j]`` carries the four ``A[i, k]`` and four ``B[k, j]``
values of its dot product, and the elemental function computes

    c = a0*b0 + a1*b1 + a2*b2 + a3*b3

All four multiplies are data-dependent, so the kernel is the suite's
DSP-density extreme — more DSP blocks per ALUT than LavaMD — and with no
stencil offsets it uses no block RAM at all.  The ``NKI`` repetitions model
the sweep over k-tiles (plus output reuse across a batched workload).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.types import ScalarType
from repro.kernels.base import ScientificKernel
from repro.kernels.registry import register_kernel

if TYPE_CHECKING:
    import numpy as np

    from repro.functional.program import KernelSpec

__all__ = ["MatMulKernel"]

#: the fixed (fully unrolled) inner dimension of the streamed dot product
TILE_K = 4


@register_kernel
class MatMulKernel(ScientificKernel):
    """Dense matmul with a fully-unrolled K=4 inner tile per work-item."""

    name = "matmul"
    default_grid = (32, 32)      # the output matrix C is the NDRange
    default_iterations = 256     # k-tile sweeps / batched instances
    ops_per_item = 7             # 4 data-dependent multiplies + 3 adds
    cpu_bytes_per_item = 36      # 2*K operand reads + one C write (4-byte words)

    ELEMENT_TYPE = ScalarType.uint(32)

    # ------------------------------------------------------------------
    def spec(self) -> KernelSpec:
        from repro.functional.program import KernelSpec

        ty = self.ELEMENT_TYPE
        a_names = [f"a{k}" for k in range(TILE_K)]
        b_names = [f"b{k}" for k in range(TILE_K)]

        def golden(c: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
            acc = c["a0"] * c["b0"]
            for k in range(1, TILE_K):
                acc = acc + c[f"a{k}"] * c[f"b{k}"]
            return {"c": acc}

        def build(fb, streams: dict[str, str]) -> None:
            products = [
                fb.mul(ty, streams[f"a{k}"], streams[f"b{k}"]) for k in range(TILE_K)
            ]
            acc = fb.add(ty, products[0], products[1])
            acc = fb.add(ty, acc, products[2])
            fb.add(ty, acc, products[3], result="c")
            fb.reduction("add", ty, "cAcc", "c")

        return KernelSpec(
            name=self.name,
            element_type=ty,
            inputs=a_names + b_names,
            outputs=["c"],
            golden=golden,
            build_datapath=build,
            offsets={},
            constants={},
            ops_per_item=self.ops_per_item,
            bytes_per_item=self.cpu_bytes_per_item,
        )

    # ------------------------------------------------------------------
    def generate_inputs(self, grid: tuple[int, ...] | None = None, seed: int = 0) -> dict[str, np.ndarray]:
        import numpy as np

        grid = grid or self.default_grid
        if len(grid) != 2:
            raise ValueError("matmul expects a 2-D output grid (rows, cols)")
        rows, cols = grid
        rng = np.random.default_rng(seed)
        return {
            "a": rng.random((rows, TILE_K), dtype=np.float64),
            "b": rng.random((TILE_K, cols), dtype=np.float64),
        }

    def gather(self, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        import numpy as np

        a = np.asarray(arrays["a"])
        b = np.asarray(arrays["b"])
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != TILE_K or b.shape[0] != TILE_K:
            raise ValueError(f"matmul expects a ({{N}}, {TILE_K}) A and ({TILE_K}, {{M}}) B")
        rows, cols = a.shape[0], b.shape[1]
        gathered: dict[str, np.ndarray] = {}
        for k in range(TILE_K):
            # broadcast A's column k down the output rows, B's row k across
            # the output columns, then flatten in C's row-major item order
            gathered[f"a{k}"] = np.repeat(a[:, k], cols)
            gathered[f"b{k}"] = np.tile(b[k, :], rows)
        return gathered

    def reference(self, arrays: dict[str, np.ndarray], iterations: int = 1) -> dict[str, np.ndarray]:
        import numpy as np

        a = np.asarray(arrays["a"], dtype=np.float64)
        b = np.asarray(arrays["b"], dtype=np.float64)
        c = a @ b
        # one k-tile product is iteration independent (like LavaMD's per-pair
        # potential); the accumulator models the batched-instance total
        return {"c": c, "cAcc": np.asarray(float(c.sum()) * max(1, iterations))}
