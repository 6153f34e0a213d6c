"""Tests for the sustained-bandwidth empirical model."""

import pytest

from repro.cost import BandwidthTable, SustainedBandwidthModel
from repro.models.streaming import AccessPattern, PatternKind
from repro.substrate import MemorySystemSimulator


class TestBandwidthTable:
    def test_interpolation_and_clamping(self):
        t = BandwidthTable([1e3, 1e6, 1e9], [0.5, 3.0, 6.0])
        assert t.sustained(1e3) == pytest.approx(0.5)
        assert t.sustained(1e9) == pytest.approx(6.0)
        assert t.sustained(1e12) == pytest.approx(6.0)   # clamp above
        assert t.sustained(10) == pytest.approx(0.5)     # clamp below
        mid = t.sustained(10 ** 4.5)
        assert 0.5 < mid < 3.0

    def test_plateau(self):
        t = BandwidthTable([1, 10], [1.0, 2.0])
        assert t.plateau_gbps == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthTable([], [])
        with pytest.raises(ValueError):
            BandwidthTable([1, 2], [1])
        with pytest.raises(ValueError):
            BandwidthTable([0, 1], [1, 1])

    def test_nan_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="gbps must be finite"):
            BandwidthTable([1e3, 1e6], [0.5, float("nan")])

    def test_infinite_size_rejected(self):
        with pytest.raises(ValueError, match="sizes_bytes must be finite"):
            BandwidthTable([1e3, float("inf")], [0.5, 3.0])

    def test_duplicate_sizes_rejected(self):
        with pytest.raises(ValueError, match="sizes_bytes must be strictly increasing"):
            BandwidthTable([1e3, 1e6, 1e3], [0.5, 3.0, 0.7])

    def test_unsorted_sizes_are_sorted_with_their_bandwidths(self):
        t = BandwidthTable([1e6, 1e3], [3.0, 0.5])
        assert t.sizes_bytes == [1e3, 1e6]
        assert t.gbps == [0.5, 3.0]

    def test_from_dict_validates(self):
        """Cache entries are rebuilt through ``from_dict``: a corrupt one
        fails at load, not as a NaN in every later estimate."""
        with pytest.raises(ValueError, match="gbps"):
            BandwidthTable.from_dict({"sizes_bytes": [1e3, 1e6],
                                      "gbps": [0.5, float("nan")]})

    def test_roundtrip(self):
        t = BandwidthTable([1e3, 1e6], [0.5, 3.0])
        back = BandwidthTable.from_dict(t.as_dict())
        assert back.sustained(1e4) == pytest.approx(t.sustained(1e4))


class TestSustainedBandwidthModel:
    def test_paper_figure10_model(self):
        m = SustainedBandwidthModel.paper_figure10()
        # at 100x100 x 4 B the paper measures 0.3 GB/s contiguous
        assert m.sustained_gbps(100 * 100 * 4) == pytest.approx(0.3, abs=0.05)
        # plateau at ~6.3 GB/s
        assert m.sustained_gbps(6000 * 6000 * 4) == pytest.approx(6.3, abs=0.1)
        # strided stays around 0.07 regardless of size
        assert m.sustained_gbps(4000 * 4000 * 4, PatternKind.STRIDED) == pytest.approx(0.07, abs=0.02)

    def test_rho_factors(self):
        m = SustainedBandwidthModel.paper_figure10(peak_gbps=9.6)
        assert 0 < m.rho(100 * 100 * 4) < 0.1
        assert m.rho(6000 * 6000 * 4) == pytest.approx(6.3 / 9.6, rel=0.05)
        assert m.rho(1e12) <= 1.0

    def test_pattern_dispatch_with_access_pattern(self):
        m = SustainedBandwidthModel.paper_figure10()
        cont = m.sustained_gbps(1e7, AccessPattern.contiguous())
        strided = m.sustained_gbps(1e7, AccessPattern.strided(1000))
        rand = m.sustained_gbps(1e7, AccessPattern.random())
        assert cont / strided > 20
        assert strided == pytest.approx(rand)

    def test_from_simulator(self):
        sim = MemorySystemSimulator()
        m = SustainedBandwidthModel.from_simulator(sim, sides=(100, 1000, 3000, 6000))
        assert m.peak_gbps == pytest.approx(sim.dram.peak_gbps)
        assert m.contiguous.plateau_gbps == pytest.approx(6.3, rel=0.1)
        assert m.sustained_gbps(1e6, PatternKind.STRIDED) < 0.2
        assert len(m.measurements) == 8

    def test_from_measurements_requires_contiguous(self):
        with pytest.raises(ValueError):
            SustainedBandwidthModel.from_measurements([], peak_gbps=9.6)

    def test_from_measurements_fills_missing_strided(self):
        sim = MemorySystemSimulator()
        only_contiguous = [
            sim.stream_benchmark(s, 4, PatternKind.CONTIGUOUS) for s in (100, 1000, 4000)
        ]
        m = SustainedBandwidthModel.from_measurements(only_contiguous, peak_gbps=12.8)
        assert m.sustained_gbps(1e7, PatternKind.STRIDED) < m.sustained_gbps(1e7) / 10

    def test_flat_model_ignores_size_and_pattern(self):
        m = SustainedBandwidthModel.flat(peak_gbps=9.6, efficiency=0.8)
        assert m.sustained_gbps(100) == pytest.approx(9.6 * 0.8)
        assert m.sustained_gbps(1e10, PatternKind.STRIDED) == pytest.approx(9.6 * 0.8)

    def test_serialization_roundtrip(self):
        m = SustainedBandwidthModel.paper_figure10()
        back = SustainedBandwidthModel.from_dict(m.as_dict())
        assert back.sustained_gbps(1e6) == pytest.approx(m.sustained_gbps(1e6))
        assert back.peak_gbps == m.peak_gbps

    def test_invalid_peak(self):
        with pytest.raises(ValueError):
            SustainedBandwidthModel.flat(peak_gbps=0)
