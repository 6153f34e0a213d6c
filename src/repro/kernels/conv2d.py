"""2-D convolution kernel (9-point Gaussian-style stencil).

Image convolution is the canonical streaming-stencil workload of the
FPGA-roofline literature the paper builds on: each output pixel is a
weighted sum of the 3x3 neighbourhood of the input pixel, with periodic
boundaries::

    dst = wc*src + we*(E + W + N + S) + wd*(NE + NW + SE + SW)

All nine multiplies are by *constant* weights, so — like the SOR datapath
— the integer version of the kernel maps no DSP blocks; the eight
neighbour offsets (the widest spanning a full row plus one) turn into
block-RAM line buffers, making conv2d the most BRAM-hungry kernel of the
suite relative to its compute.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.types import ScalarType
from repro.kernels.base import ScientificKernel, fixed_point_constant
from repro.kernels.registry import register_kernel

if TYPE_CHECKING:
    import numpy as np

    from repro.functional.program import KernelSpec

__all__ = ["Conv2DKernel"]

#: separable Gaussian-like weights: centre, edge (4x), diagonal (4x)
W_CENTRE = 0.25
W_EDGE = 0.125
W_DIAG = 0.0625

#: fixed-point scale for the integer datapath constants
FIXED_POINT_SCALE = 256


def _fx(value: float) -> int:
    return fixed_point_constant(value, FIXED_POINT_SCALE)


@register_kernel
class Conv2DKernel(ScientificKernel):
    """A 3x3 constant-weight image convolution (periodic boundaries)."""

    name = "conv2d"
    default_grid = (64, 64)
    default_iterations = 500
    ops_per_item = 17            # 9 constant multiplies + 8 adds
    cpu_bytes_per_item = 40      # nine reads + one write of 4-byte words

    ELEMENT_TYPE = ScalarType.uint(24)

    #: (logical offset, weight) of the eight neighbour taps, row-major flat
    TAPS = [
        ("+1", W_EDGE), ("-1", W_EDGE),
        ("+ND1", W_EDGE), ("-ND1", W_EDGE),
        ("+ND1+1", W_DIAG), ("+ND1-1", W_DIAG),
        ("-ND1+1", W_DIAG), ("-ND1-1", W_DIAG),
    ]

    # ------------------------------------------------------------------
    def spec(self) -> KernelSpec:
        from repro.functional.program import KernelSpec

        ty = self.ELEMENT_TYPE

        def golden(c: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
            acc = W_CENTRE * c["src"]
            for offset, weight in self.TAPS:
                acc = acc + weight * c[f"src@{offset}"]
            return {"dst": acc}

        def build(fb, streams: dict[str, str]) -> None:
            centre = fb.mul(ty, streams["src"], _fx(W_CENTRE))
            products = [
                fb.mul(ty, streams[f"src@{offset}"], _fx(weight))
                for offset, weight in self.TAPS
            ]
            acc = centre
            for index, product in enumerate(products):
                is_last = index == len(products) - 1
                acc = fb.add(ty, acc, product, result="dst" if is_last else None)
            fb.reduction("add", ty, "pixAcc", "dst")

        return KernelSpec(
            name=self.name,
            element_type=ty,
            inputs=["src"],
            outputs=["dst"],
            golden=golden,
            build_datapath=build,
            offsets={"src": [offset for offset, _ in self.TAPS]},
            constants={},
            ops_per_item=self.ops_per_item,
            bytes_per_item=self.cpu_bytes_per_item,
        )

    # ------------------------------------------------------------------
    def generate_inputs(self, grid: tuple[int, ...] | None = None, seed: int = 0) -> dict[str, np.ndarray]:
        import numpy as np

        grid = grid or self.default_grid
        rng = np.random.default_rng(seed)
        return {"src": rng.random(grid, dtype=np.float64)}

    def gather(self, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        import numpy as np

        src = np.asarray(arrays["src"])
        if src.ndim != 2:
            raise ValueError("conv2d expects a 2-D image")

        # flat index moves fastest along the last axis: +1 is a column shift,
        # +ND1 a row shift (matching the symbolic offsets over the constants)
        def shift(drow: int, dcol: int) -> np.ndarray:
            return np.roll(src, shift=(-drow, -dcol), axis=(0, 1)).reshape(-1)

        shifts = {
            "+1": (0, 1), "-1": (0, -1),
            "+ND1": (1, 0), "-ND1": (-1, 0),
            "+ND1+1": (1, 1), "+ND1-1": (1, -1),
            "-ND1+1": (-1, 1), "-ND1-1": (-1, -1),
        }
        gathered = {"src": src.reshape(-1)}
        for offset, (drow, dcol) in shifts.items():
            gathered[f"src@{offset}"] = shift(drow, dcol)
        return gathered

    def reference(self, arrays: dict[str, np.ndarray], iterations: int = 1) -> dict[str, np.ndarray]:
        """Repeatedly convolve the full image (periodic boundaries)."""
        import numpy as np

        src = np.asarray(arrays["src"], dtype=np.float64).copy()
        for _ in range(max(1, iterations)):
            edge = (
                np.roll(src, -1, axis=1) + np.roll(src, 1, axis=1)
                + np.roll(src, -1, axis=0) + np.roll(src, 1, axis=0)
            )
            diag = (
                np.roll(src, (-1, -1), axis=(0, 1)) + np.roll(src, (-1, 1), axis=(0, 1))
                + np.roll(src, (1, -1), axis=(0, 1)) + np.roll(src, (1, 1), axis=(0, 1))
            )
            src = W_CENTRE * src + W_EDGE * edge + W_DIAG * diag
        return {"dst": src}
