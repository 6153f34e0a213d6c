"""Tests for the DRAM + PCIe memory-system simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.streaming import AccessPattern, PatternKind
from repro.substrate import (
    DRAMConfig,
    MemorySystemSimulator,
    PCIeConfig,
    VIRTEX7_ADM_PCIE_7V3,
)


@pytest.fixture
def sim():
    # default configs: the "baseline figures without vendor-recommended
    # optimisations" setup of Figure 10
    return MemorySystemSimulator()


class TestConfigs:
    def test_dram_peak(self):
        cfg = DRAMConfig()
        assert cfg.peak_gbps == pytest.approx(12.8)
        assert cfg.effective_peak_gbps == pytest.approx(6.4)
        assert cfg.row_miss_penalty_ns > 0

    def test_pcie_rates(self):
        gen2x8 = PCIeConfig(gen=2, lanes=8)
        gen3x8 = PCIeConfig(gen=3, lanes=8)
        assert gen2x8.raw_gbps == pytest.approx(4.0)
        assert gen3x8.raw_gbps == pytest.approx(7.88)
        assert gen2x8.effective_gbps < gen2x8.raw_gbps

    def test_pcie_for_device(self):
        cfg = PCIeConfig.for_device(VIRTEX7_ADM_PCIE_7V3)
        assert cfg.gen == 3 and cfg.lanes == 8

    def test_pcie_rejects_unknown_generation(self):
        # a bare KeyError out of raw_gbps used to be the only diagnostic
        with pytest.raises(ValueError, match=r"unsupported PCIe generation 5.*\[1, 2, 3, 4\]"):
            PCIeConfig(gen=5)
        with pytest.raises(ValueError, match="unsupported PCIe generation 0"):
            PCIeConfig(gen=0)

    def test_pcie_rejects_non_positive_lanes(self):
        with pytest.raises(ValueError, match="lanes"):
            PCIeConfig(gen=2, lanes=0)


class TestDRAMStreams:
    def test_zero_elements(self, sim):
        assert sim.dram_stream_time(0) == 0.0

    def test_contiguous_large_approaches_plateau(self, sim):
        m = sim.stream_benchmark(6000)  # 144 MB
        assert m.sustained_gbps == pytest.approx(sim.dram.effective_peak_gbps, rel=0.05)

    def test_contiguous_small_dominated_by_setup(self, sim):
        assert sim.stream_benchmark(100).sustained_gbps < 0.5  # 40 KB

    def test_strided_two_orders_of_magnitude_lower(self, sim):
        contiguous = sim.stream_benchmark(2000, pattern=PatternKind.CONTIGUOUS)
        strided = sim.stream_benchmark(2000, pattern=PatternKind.STRIDED)
        assert strided.stride_elements == 2000
        assert contiguous.sustained_gbps / strided.sustained_gbps > 50

    def test_strided_roughly_independent_of_stride(self, sim):
        for stride in (500, 50_000):
            m = sim.stream_benchmark(1000, pattern=PatternKind.STRIDED,
                                     stride_elements=stride)
            assert m.stride_elements == stride
            assert 0.02 < m.sustained_gbps < 0.12

    def test_random_costed_like_large_stride(self, sim):
        rnd = sim.stream_benchmark(1000, pattern=PatternKind.RANDOM)
        strided = sim.stream_benchmark(1000, pattern=PatternKind.STRIDED,
                                       stride_elements=100_000)
        assert rnd.sustained_gbps == pytest.approx(strided.sustained_gbps, rel=0.3)

    def test_sustained_rate_is_bytes_over_stream_time(self, sim):
        m = sim.stream_benchmark(1000, pattern=PatternKind.STRIDED)
        seconds = sim.dram_stream_time(1_000_000, 4, AccessPattern.strided(1000, 4))
        assert m.seconds == seconds
        assert m.sustained_gbps == pytest.approx(4_000_000 / seconds / 1e9)

    @given(n=st.integers(min_value=1, max_value=10_000_000))
    @settings(max_examples=25, deadline=None)
    def test_time_is_monotone_in_size(self, n):
        sim = MemorySystemSimulator()
        t1 = sim.dram_stream_time(n, 4)
        t2 = sim.dram_stream_time(n + 1000, 4)
        assert t2 >= t1 > 0


class TestHostTransfers:
    def test_zero_bytes(self, sim):
        assert sim.host_transfer_time(0) == 0.0

    def test_large_transfer_near_effective_peak(self, sim):
        gbps = sim.host_sustained_gbps(1 << 30)
        assert gbps == pytest.approx(sim.pcie.effective_gbps, rel=0.05)

    def test_small_transfer_dominated_by_setup(self, sim):
        gbps = sim.host_sustained_gbps(4096)
        assert gbps < 0.5

    def test_setup_can_be_excluded(self, sim):
        with_setup = sim.host_transfer_time(1 << 20)
        without = sim.host_transfer_time(1 << 20, include_setup=False)
        assert with_setup > without


class TestStreamBenchmark:
    def test_figure10_contiguous_shape(self, sim):
        """Contiguous sustained bandwidth rises with size and plateaus."""
        sides = [100, 500, 1000, 2000, 4000, 6000]
        values = [
            sim.stream_benchmark(s, 4, PatternKind.CONTIGUOUS).sustained_gbps for s in sides
        ]
        assert all(b > a * 0.99 for a, b in zip(values, values[1:]))  # non-decreasing
        assert values[0] < 0.5                      # ~0.3 GB/s at 100x100
        assert values[-1] == pytest.approx(6.3, rel=0.1)  # ~6.3 GB/s plateau
        # plateau: beyond 1000x1000 the gain is small
        assert values[-1] / values[3] < 1.25

    def test_figure10_strided_flat_and_low(self, sim):
        sides = [100, 1000, 3000, 6000]
        values = [
            sim.stream_benchmark(s, 4, PatternKind.STRIDED).sustained_gbps for s in sides
        ]
        assert all(0.02 < v < 0.12 for v in values)

    def test_contiguity_impact_two_orders_of_magnitude(self, sim):
        cont = sim.stream_benchmark(4000, 4, PatternKind.CONTIGUOUS).sustained_gbps
        strided = sim.stream_benchmark(4000, 4, PatternKind.STRIDED).sustained_gbps
        assert cont / strided > 60

    def test_suite_covers_both_patterns(self, sim):
        suite = sim.run_stream_suite(sides=(100, 1000))
        assert len(suite) == 4
        kinds = {(m.pattern, m.elements) for m in suite}
        assert (PatternKind.CONTIGUOUS, 10_000) in kinds
        assert (PatternKind.STRIDED, 1_000_000) in kinds

    def test_measurement_asdict(self, sim):
        m = sim.stream_benchmark(100, 4, PatternKind.CONTIGUOUS)
        d = m.as_dict()
        assert d["elements"] == 10_000
        assert d["pattern"] == "contiguous"
        assert d["sustained_gbps"] > 0

    def test_invalid_side(self, sim):
        with pytest.raises(ValueError):
            sim.stream_benchmark(0)

    def test_device_scaled_simulator(self):
        sim = MemorySystemSimulator(VIRTEX7_ADM_PCIE_7V3)
        assert sim.dram.effective_peak_gbps == pytest.approx(
            VIRTEX7_ADM_PCIE_7V3.dram_peak_gbps * sim.dram.interface_efficiency, rel=0.01
        )
