"""Second property-based suite: traces, Pareto, components, survey."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.explore import dominance_ranks, dominates, pareto_indices
from repro.hw.analog.components import (
    ActivePixelSensor,
    AnalogMAC,
    CellUsage,
)
from repro.hw.analog.cells import DynamicCell
from repro.hw.analog.extended import PassiveMatrixMultiplier
from repro.sw.trace import MemoryTrace, TraceEvent


class TestTraceProperties:
    @settings(max_examples=40)
    @given(reads=st.integers(min_value=0, max_value=500),
           writes=st.integers(min_value=0, max_value=500),
           size=st.floats(min_value=0.5, max_value=4096))
    def test_from_counts_bookkeeping(self, reads, writes, size):
        if reads + writes == 0:
            return
        trace = MemoryTrace.from_counts(reads, writes,
                                        bytes_per_access=size)
        assert trace.num_reads == reads
        assert trace.num_writes == writes
        assert trace.read_bytes == pytest.approx(reads * size)
        assert len(trace) == reads + writes

    @settings(max_examples=40)
    @given(events=st.lists(
        st.tuples(st.sampled_from("RW"),
                  st.floats(min_value=1, max_value=1e6)),
        min_size=1, max_size=50))
    def test_parse_round_trip(self, events):
        text = "\n".join(f"{op} {size}" for op, size in events)
        trace = MemoryTrace.parse(text)
        assert len(trace) == len(events)
        expected_reads = sum(size for op, size in events if op == "R")
        assert trace.read_bytes == pytest.approx(expected_reads)

    @settings(max_examples=30)
    @given(read_cost=st.floats(min_value=1e-13, max_value=1e-10),
           write_cost=st.floats(min_value=1e-13, max_value=1e-10),
           reads=st.integers(min_value=1, max_value=200),
           writes=st.integers(min_value=1, max_value=200))
    def test_energy_against_is_exact_arithmetic(self, read_cost, write_cost,
                                                reads, writes):
        class FakeMemory:
            read_energy_per_byte = read_cost
            write_energy_per_byte = write_cost
            leakage_power = 0.0

        trace = MemoryTrace.from_counts(reads, writes, bytes_per_access=2)
        dynamic, leakage = trace.energy_against(FakeMemory())
        assert dynamic == pytest.approx(
            2 * reads * read_cost + 2 * writes * write_cost)
        assert leakage == 0.0


class TestParetoProperties:
    points_strategy = st.lists(
        st.tuples(st.floats(min_value=1e-9, max_value=1e-3),
                  st.floats(min_value=1.0, max_value=1e4)),
        min_size=1, max_size=25)

    #: Energy per frame and power density, both minimized.
    goals = ("min", "min")

    @settings(max_examples=40)
    @given(raw=points_strategy)
    def test_front_plus_dominated_is_everything(self, raw):
        ranks = dominance_ranks(raw, self.goals)
        front = pareto_indices(raw, self.goals)
        dominated = [index for index, rank in enumerate(ranks) if rank]
        assert len(front) + len(dominated) == len(raw)

    @settings(max_examples=40)
    @given(raw=points_strategy)
    def test_no_front_point_dominated_by_any_point(self, raw):
        for index in pareto_indices(raw, self.goals):
            assert not any(dominates(other, raw[index], self.goals)
                           for other in raw)

    @settings(max_examples=40)
    @given(raw=points_strategy)
    def test_global_minimum_energy_always_on_front(self, raw):
        cheapest = min(range(len(raw)), key=lambda index: raw[index])
        assert cheapest in pareto_indices(raw, self.goals)


class TestComponentProperties:
    @settings(max_examples=30)
    @given(shared=st.sampled_from([1, 4, 9, 16]),
           delay=st.floats(min_value=1e-6, max_value=1e-2))
    def test_shared_pixels_scale_pd_energy(self, shared, delay):
        single = ActivePixelSensor(num_shared_pixels=1)
        binned = ActivePixelSensor(num_shared_pixels=shared)
        # The PD+FD (dynamic, per-photodiode) part scales with sharing;
        # the shared SF does not.  Energy difference equals (n-1) extra
        # PD+FD firings.
        pd_fd = sum(u.cell.energy(delay) for u in single.cell_usages
                    if u.cell.name in ("PD", "FD"))
        expected_extra = (shared - 1) * pd_fd
        delta = (binned.energy_per_access(delay)
                 - single.energy_per_access(delay))
        assert delta == pytest.approx(expected_extra, rel=1e-6)

    @settings(max_examples=30)
    @given(taps=st.integers(min_value=1, max_value=64),
           delay=st.floats(min_value=1e-7, max_value=1e-3))
    def test_passive_matmul_exact_cv2(self, taps, delay):
        matmul = PassiveMatrixMultiplier(rows=taps, cols=1,
                                         unit_capacitance=5 * units.fF,
                                         voltage_swing=1.0)
        assert matmul.energy_per_access(delay) == pytest.approx(
            taps * 5e-15)

    @settings(max_examples=30)
    @given(spatial=st.integers(min_value=1, max_value=32),
           temporal=st.integers(min_value=1, max_value=8))
    def test_dynamic_cell_usage_scales_linearly(self, spatial, temporal):
        from repro.hw.analog.components import AnalogComponent
        from repro.hw.analog.domain import SignalDomain
        cell = DynamicCell("c", [(10 * units.fF, 1.0)])
        single = AnalogComponent("one", SignalDomain.VOLTAGE,
                                 SignalDomain.VOLTAGE, [CellUsage(cell)])
        multi = AnalogComponent("many", SignalDomain.VOLTAGE,
                                SignalDomain.VOLTAGE,
                                [CellUsage(cell, spatial=spatial,
                                           temporal=temporal)])
        assert multi.energy_per_access(1e-5) == pytest.approx(
            spatial * temporal * single.energy_per_access(1e-5))


class TestSurveyProperties:
    @settings(max_examples=20)
    @given(year=st.integers(min_value=2000, max_value=2022))
    def test_irds_monotone_non_increasing(self, year):
        from repro.survey import irds_node
        assert irds_node(year) >= irds_node(2022)
        if year > 2000:
            assert irds_node(year) <= irds_node(2000)
