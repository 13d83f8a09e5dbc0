"""Tests for the vectorized structure-of-arrays explore fast path.

The vector engine promises *bit-identical* results to the per-point
object path wherever the scalar pipeline is pure float arithmetic, so
these tests compare whole serialized exploration documents — params,
metrics, failures, bottlenecks — with plain equality, never tolerances.
"""

import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import repro.api.simulator as simulator_module
from repro.api import Design, SimOptions, Simulator, build_usecase
from repro.api.registry import available_usecases
from repro.api.result import OptionColumns, ResultBlock
from repro.energy.report import Category
from repro.exceptions import ConfigurationError, SerializationError
from repro.explore import (
    ENGINE_COUNTERS,
    ExplorationResult,
    ExplorationSpec,
    Metric,
    choice,
    exploration_spec_from_dict,
    explore,
    grid,
    linspace,
    product,
    register_metric,
    zipped,
)
from repro.explore.metrics import _REGISTRY, available_metrics
from repro.explore.vector import VECTOR_MIN_POINTS, vector_support_error
from repro.hw.analog import SingleSlopeADC
from repro.hw.analog.cells import NonLinearCell
from repro.hw.analog.components import AnalogComponent
from repro.hw.digital.memory import LineBuffer
from repro.usecases.fig5 import (FIG5_MAPPING, build_fig5_stages,
                                 build_fig5_system)

#: Design-parameter axes of each registered usecase builder.
_DESIGN_AXES = {
    "fig5": {},
    "edgaze": {"placement": ["2D-In", "2D-Off", "3D-In", "3D-In-STT"],
               "cis_node": [130, 65]},
    "edgaze_mixed": {"cis_node": [130, 65]},
    "rhythmic": {"placement": ["2D-In", "2D-Off", "3D-In", "3D-In-STT"],
                 "cis_node": [130, 65]},
    "threelayer": {"burst_fps": [480.0, 960.0, 1920.0]},
}


def _documents(space, usecase, objectives, annotate=True):
    """Serialized object-path and vector-path results, engines stripped."""
    document_object = explore(space, usecase, objectives=objectives,
                              annotate=annotate,
                              engine="object").to_dict()
    document_vector = explore(space, usecase, objectives=objectives,
                              annotate=annotate,
                              engine="vector").to_dict()
    engines = document_vector.pop("engines")
    document_object.pop("engines")
    return document_object, document_vector, engines


def _sampled_space(usecase, rng, count):
    """``count`` random points: design axes and frame rate per point.

    Zipped axes give every point its own (design, rate) pair, so the
    run exercises the per-design grouping, not just one big batch.  A
    tail of absurd frame rates lands in TimingError territory, covering
    the infeasible-point path.
    """
    rates = [round(rng.uniform(5.0, 400.0), 3) for _ in range(count)]
    for index in rng.sample(range(count), count // 10):
        rates[index] = round(rng.uniform(1e5, 1e7), 1)
    axes = [choice("options.frame_rate", rates)]
    for name, values in _DESIGN_AXES[usecase].items():
        axes.append(choice(name, [rng.choice(values) for _ in range(count)]))
    return zipped(*axes) if len(axes) > 1 else axes[0]


class TestEquivalence:
    """Vector output is indistinguishable from the object path."""

    @pytest.mark.parametrize("usecase", sorted(_DESIGN_AXES))
    def test_sampled_designs_match_exactly(self, usecase):
        rng = random.Random(f"vector-{usecase}")
        space = _sampled_space(usecase, rng, count=100)
        document_object, document_vector, engines = _documents(
            space, usecase,
            objectives=("energy_per_frame", "power_density", "latency"))
        assert engines["vectorized"] == len(space)
        assert engines["fallback"] == 0
        assert json.dumps(document_vector, sort_keys=True) \
            == json.dumps(document_object, sort_keys=True)

    def test_every_builtin_metric_matches_exactly(self):
        rates = [9.0, 15.0, 30.0, 60.0, 120.0, 240.0, 2.0e6]
        # A 2D design, a stacked one (power density is the per-layer
        # maximum), and a three-layer stack.
        for usecase, design_axes in (("edgaze", {}),
                                     ("edgaze", {"placement": ["3D-In"]}),
                                     ("threelayer", {})):
            space = grid(**{"options.frame_rate": rates}, **design_axes)
            document_object, document_vector, engines = _documents(
                space, usecase, objectives=tuple(available_metrics()))
            assert engines["vectorized"] == len(space), usecase
            assert json.dumps(document_vector, sort_keys=True) \
                == json.dumps(document_object, sort_keys=True), usecase

    def test_exposure_slots_axis_matches_exactly(self):
        space = grid(**{"options.frame_rate": [30.0, 60.0],
                        "options.exposure_slots": [1, 2, 4]})
        document_object, document_vector, engines = _documents(
            space, "fig5", objectives=("energy_per_frame", "frame_slack"))
        assert engines["vectorized"] == len(space)
        assert document_vector == document_object


class TestThroughput:
    """The vector engine's reason to exist: >= 10x the object path."""

    @staticmethod
    def _edgaze_grid(nodes, rates):
        # Every Ed-Gaze design fits its pipeline below ~509 FPS, so each
        # point lands in a feasible same-design vector group.
        return product(
            choice("placement", ["2D-In", "2D-Off", "3D-In", "3D-In-STT"]),
            choice("cis_node", nodes),
            linspace("options.frame_rate", 15.0, 480.0, rates))

    @staticmethod
    def _cold(space, engine):
        objectives = ("energy_per_frame", "power_density", "latency")
        with Simulator() as simulator:
            started = time.perf_counter()
            result = explore(space, "edgaze", objectives=objectives,
                             simulator=simulator, engine=engine)
            return result, time.perf_counter() - started

    def test_ten_thousand_points_outrun_the_object_engine(self):
        space = self._edgaze_grid([130, 65], 1250)
        # Warm imports and the lowering cache: time the engine, not
        # one-time setup.  Best of five cold passes.
        self._cold(self._edgaze_grid([65], 4), "auto")
        runs = [self._cold(space, "auto") for _ in range(5)]
        vector = runs[-1][0]
        vector_rate = len(space) / min(wall_s for _, wall_s in runs)
        assert vector.engines == {"vectorized": len(space), "fallback": 0}
        assert len(vector.feasible_points) == len(space)

        sample = self._edgaze_grid([130, 65], 25)
        object_result, object_s = self._cold(sample, "object")
        vector_sample, _ = self._cold(sample, "vector")
        document_object = object_result.to_dict()
        document_vector = vector_sample.to_dict()
        document_object.pop("engines")
        document_vector.pop("engines")
        assert document_vector == document_object
        assert vector_rate / (len(sample) / object_s) >= 10.0


class _FlooredComponent(AnalogComponent):
    """Charges at least 1 fJ per access: a branch only floats can take."""

    def energy_per_access(self, component_delay):
        energy = super().energy_per_access(component_delay)
        return energy if energy > 1e-15 else 1e-15


class _GatedLineBuffer(LineBuffer):
    """Power-gated at slow frames: a branch only floats can take."""

    def leakage_energy(self, frame_time):
        return 0.0 if frame_time > 0.05 else super().leakage_energy(
            frame_time)


def _single_slope_adc(system):
    adc = system.analog_arrays[1].components[0][0]
    for usage in adc.cell_usages:
        if type(usage.cell) is NonLinearCell:
            usage.cell = SingleSlopeADC().cell_usages[0].cell


def _floored_pixel(system):
    system.analog_arrays[0].components[0][0].__class__ = _FlooredComponent


def _gated_line_buffer(system):
    system.memories[0].__class__ = _GatedLineBuffer


class TestRouting:
    """Which points the auto engine routes where, and the counters."""

    @pytest.mark.parametrize("edit", [_single_slope_adc, _floored_pixel,
                                      _gated_line_buffer])
    def test_custom_models_fall_back_to_the_object_path(self, edit):
        # Custom models may not accept a column of delays: the screen
        # sends their groups to the object path, with the same results.
        def build():
            system = build_fig5_system()
            edit(system)
            return Design(build_fig5_stages(), system, dict(FIG5_MAPPING),
                          name="Fig5")

        space = grid(**{"options.frame_rate":
                        [float(10 + 10 * step) for step in range(8)]})
        objectives = ("energy_per_frame", "latency")
        auto = explore(space, build, objectives=objectives).to_dict()
        reference = explore(space, build, objectives=objectives,
                            engine="object").to_dict()
        assert auto.pop("engines") == {"vectorized": 0, "fallback": 8}
        reference.pop("engines")
        assert auto == reference

    def test_auto_vectorizes_groups_at_threshold(self):
        rates = [float(15 + 5 * step) for step in range(VECTOR_MIN_POINTS)]
        result = explore(grid(**{"options.frame_rate": rates}), "fig5",
                         objectives=("energy_per_frame",))
        assert result.engines == {"vectorized": len(rates), "fallback": 0}

    def test_auto_leaves_small_groups_on_object_path(self):
        rates = [float(15 + 5 * step)
                 for step in range(VECTOR_MIN_POINTS - 1)]
        result = explore(grid(**{"options.frame_rate": rates}), "fig5",
                         objectives=("energy_per_frame",))
        assert result.engines == {"vectorized": 0, "fallback": len(rates)}

    def test_object_engine_routes_nothing(self):
        result = explore(
            grid(**{"options.frame_rate": [15.0, 30.0, 60.0, 120.0]}),
            "fig5", objectives=("energy_per_frame",), engine="object")
        assert result.engines == dict.fromkeys(ENGINE_COUNTERS, 0)

    def test_mixed_group_sizes_split_between_engines(self):
        # 5 points on one design, 2 on another: the big group vectorizes
        # under auto, the small one falls back — in one exploration.
        rates = [20.0, 30.0, 40.0, 50.0, 60.0, 30.0, 60.0]
        nodes = [65, 65, 65, 65, 65, 130, 130]
        space = zipped(choice("options.frame_rate", rates),
                       choice("cis_node", nodes))
        result = explore(space, "edgaze_mixed",
                         objectives=("energy_per_frame",))
        assert result.engines == {"vectorized": 5, "fallback": 2}
        assert len(result.feasible_points) == len(rates)

    def test_cycle_accurate_points_fall_back(self):
        space = grid(**{"options.frame_rate": [20.0, 30.0, 40.0, 50.0],
                        "options.cycle_accurate": [False, True]})
        result = explore(space, "fig5", objectives=("energy_per_frame",))
        assert result.engines == {"vectorized": 4, "fallback": 4}

    def test_vector_engine_takes_singleton_groups(self):
        result = explore(grid(**{"options.frame_rate": [33.0]}), "fig5",
                         objectives=("energy_per_frame",), engine="vector")
        assert result.engines == {"vectorized": 1, "fallback": 0}

    def test_unknown_engine_is_rejected(self):
        with pytest.raises(ConfigurationError, match="engine must be one"):
            explore(grid(**{"options.frame_rate": [30.0]}), "fig5",
                    objectives=("energy_per_frame",), engine="simd")

    def test_custom_metric_without_vector_falls_back_under_auto(self):
        name = "test-vector-scalar-only"
        register_metric(Metric(
            name, unit="J",
            extract=lambda design, report: report.total_energy))
        try:
            result = explore(
                grid(**{"options.frame_rate": [20.0, 30.0, 40.0, 50.0]}),
                "fig5", objectives=(name,))
            assert result.engines == {"vectorized": 0, "fallback": 4}
            # The object path carries full reports, which scalar-only
            # metrics (and their callers) may rely on.
            assert all(point.report is not None
                       for point in result.feasible_points)
        finally:
            _REGISTRY.pop(name, None)

    def test_custom_elementwise_metric_is_vectorized(self):
        name = "test-vector-elementwise"
        register_metric(Metric(
            name, unit="FPS/W", goal="max",
            extract=lambda design, report:
                report.frame_rate / report.total_power
                + report.category_energy(Category.MEM_D),
            elementwise=True))
        try:
            space = grid(**{"options.frame_rate":
                            [20.0, 30.0, 40.0, 50.0, 3.0e6]})
            document_object, document_vector, engines = _documents(
                space, "edgaze", objectives=(name, "share:MEM-D"))
            assert engines == {"vectorized": len(space), "fallback": 0}
            assert json.dumps(document_vector, sort_keys=True) \
                == json.dumps(document_object, sort_keys=True)
        finally:
            _REGISTRY.pop(name, None)

    def test_vector_engine_rejects_scalar_only_metrics(self):
        name = "test-vector-scalar-only"
        register_metric(Metric(
            name, unit="J",
            extract=lambda design, report: report.total_energy))
        try:
            support_error = vector_support_error(
                [_REGISTRY[name], _REGISTRY["latency"]])
            assert name in support_error
            with pytest.raises(ConfigurationError,
                               match="engine 'vector' is unavailable"):
                explore(grid(**{"options.frame_rate": [30.0]}), "fig5",
                        objectives=(name,), engine="vector")
        finally:
            _REGISTRY.pop(name, None)


class TestCacheIntegration:
    """Vector results land in the same two-tier result cache."""

    _RATES = [21.0, 34.0, 55.0, 89.0, 3.0e6]

    def _space(self):
        return grid(**{"options.frame_rate": self._RATES})

    def test_object_rerun_is_served_from_vector_run(self):
        simulator = Simulator()
        cold = explore(self._space(), "edgaze",
                       objectives=("energy_per_frame", "latency"),
                       simulator=simulator, engine="vector")
        assert simulator.cache_info().hits == 0
        warm = explore(self._space(), "edgaze",
                       objectives=("energy_per_frame", "latency"),
                       simulator=simulator, engine="object")
        info = simulator.cache_info()
        assert info.hits == len(self._RATES)
        assert info.misses == len(self._RATES)
        document_cold = cold.to_dict()
        document_warm = warm.to_dict()
        document_cold.pop("engines")
        document_warm.pop("engines")
        assert document_warm == document_cold

    def test_vector_rerun_probes_the_cache(self):
        simulator = Simulator()
        for _ in range(2):
            result = explore(self._space(), "edgaze",
                             objectives=("energy_per_frame",),
                             simulator=simulator, engine="vector")
        assert simulator.cache_info().hits == len(self._RATES)
        assert result.engines["vectorized"] == len(self._RATES)

    def test_clear_cache_drops_pending_backfill(self):
        simulator = Simulator()
        explore(self._space(), "edgaze",
                objectives=("energy_per_frame",),
                simulator=simulator, engine="vector")
        simulator.clear_cache()
        explore(self._space(), "edgaze",
                objectives=("energy_per_frame",),
                simulator=simulator, engine="vector")
        assert simulator.cache_info().hits == 0


class TestBlockCache:
    """Vector groups are cached as column blocks and replayed from them."""

    _OBJECTIVES = ("energy_per_frame", "power_density", "latency")
    _RATES = [15.0, 24.0, 30.0, 60.0, 90.0, 120.0]

    @pytest.fixture
    def materialized(self, monkeypatch):
        """Counts the block rows turned into full SimResults."""
        calls = []
        original = ResultBlock.result

        def counting(block, row):
            calls.append(row)
            return original(block, row)
        monkeypatch.setattr(ResultBlock, "result", counting)
        return calls

    def _space(self, rates):
        return product(choice("placement", ["2D-In", "3D-In-STT"]),
                       choice("options.frame_rate", rates))

    def _explore(self, simulator, rates):
        return explore(self._space(rates), "edgaze",
                       objectives=self._OBJECTIVES, simulator=simulator,
                       engine="vector")

    @staticmethod
    def _document(result):
        document = result.to_dict()
        document.pop("engines")
        return document

    def test_warm_replay_reads_rows_not_results(self, materialized):
        simulator = Simulator()
        cold = self._explore(simulator, self._RATES)
        before = simulator.cache_info()
        warm = self._explore(simulator, self._RATES)
        after = simulator.cache_info()
        assert materialized == []
        assert after.hits - before.hits == len(cold.points)
        assert after.misses == before.misses
        assert warm.points == cold.points
        assert self._document(warm) == self._document(cold)
        assert warm.engines["vectorized"] == len(cold.points)

    @pytest.mark.parametrize("disk", [False, True])
    def test_exact_replay_is_served_whole_from_each_block(
            self, materialized, tmp_path, disk):
        """A group equal to its design's newest block is that block
        whole: no row index, and a row is materialized only for its
        first write to a disk tier."""
        simulator = Simulator(cache_dir=tmp_path if disk else None)
        cold = self._explore(simulator, self._RATES)
        assert materialized == []
        before = simulator.cache_info()
        for replay in range(2):
            warm = self._explore(simulator, self._RATES)
            after = simulator.cache_info()
            assert after.hits - before.hits \
                == (replay + 1) * len(cold.points)
            assert after.misses == before.misses
            assert self._document(warm) == self._document(cold)
        blocks = list(simulator._blocks)
        assert len(blocks) == 2
        assert all("rows" not in vars(block) for block in blocks)
        if disk:
            assert sorted(materialized) \
                == sorted(2 * list(range(len(self._RATES))))
            assert after.disk_entries == len(cold.points)
        else:
            assert materialized == []
        for block in blocks:
            served, singles, pending = simulator.probe_results(
                block.options, block.design_hash)
            assert served == [(block, list(range(len(block))), None)]
            assert (singles, pending) == ({}, [])

    def test_superset_replay_hits_old_rows_and_misses_new(self,
                                                          materialized):
        simulator = Simulator()
        self._explore(simulator, self._RATES)
        before = simulator.cache_info()
        new_rates = [45.0, 75.0, 150.0]
        superset = self._explore(simulator, self._RATES + new_rates)
        after = simulator.cache_info()
        assert materialized == []
        assert after.hits - before.hits == 2 * len(self._RATES)
        assert after.misses - before.misses == 2 * len(new_rates)
        fresh = self._explore(Simulator(), self._RATES + new_rates)
        assert superset.points == fresh.points
        assert self._document(superset) == self._document(fresh)
        # Replayed again, each design has two blocks and the newest holds
        # only the new rates: each point is served by the block with its
        # key, old rows first in the group and new ones after them.
        again = self._explore(simulator, self._RATES + new_rates)
        final = simulator.cache_info()
        assert materialized == []
        assert final.hits - after.hits == len(superset.points)
        assert final.misses == after.misses
        assert self._document(again) == self._document(fresh)
        old, new = simulator._blocks_by_hash[superset.points[0].design_hash]
        served, singles, pending = simulator.probe_results(
            OptionColumns(SimOptions(), {"frame_rate": [
                *old.options.values("frame_rate"),
                *new.options.values("frame_rate")]}, len(old) + len(new)),
            old.design_hash)
        assert served == [(old, list(range(len(old))), None),
                          (new, list(range(len(old), len(old) + len(new))),
                           None)]
        assert (singles, pending) == ({}, [])

    def test_infeasible_rate_is_served_as_a_cached_failure(self):
        rates = self._RATES + [3.0e6]
        simulator = Simulator()
        cold = self._explore(simulator, rates)
        before = simulator.cache_info()
        warm = self._explore(simulator, rates)
        after = simulator.cache_info()
        # Each design's group is its block plus the recorded failure:
        # served whole, with no per-key row index.
        assert all("rows" not in vars(block) for block in simulator._blocks)
        assert after.hits - before.hits == len(cold.points)
        assert after.misses == before.misses
        assert self._document(warm) == self._document(cold)
        failed = [point for point in warm.points if not point.feasible]
        assert len(failed) == 2
        assert all(point.failure_type == "TimingError" for point in failed)
        assert warm.points == cold.points
        design = build_usecase("edgaze", placement="2D-In")
        result = simulator.run(design, SimOptions(frame_rate=3.0e6))
        assert result.cached and result.error_type == "TimingError"
        assert result.failure == next(point.failure for point in failed)
        # The failure is a single result beside the design's block.
        [block] = simulator._blocks_by_hash[result.design_hash]
        served, singles, pending = simulator.probe_results(
            OptionColumns(SimOptions(), {"frame_rate": rates}, len(rates)),
            result.design_hash)
        assert served == [(block, list(range(len(self._RATES))), None)]
        assert list(singles) == [len(self._RATES)]
        assert singles[len(self._RATES)].failure == result.failure
        assert pending == []

    def test_row_bound_evicts_the_oldest_whole_block(self, monkeypatch):
        # One design, three disjoint rate sets: three blocks of 4 rows.
        monkeypatch.setattr(simulator_module, "_BLOCK_ROW_LIMIT", 10)
        simulator = Simulator()
        sets = [[20.0, 21.0, 22.0, 23.0], [30.0, 31.0, 32.0, 33.0],
                [40.0, 41.0, 42.0, 43.0]]
        for rates in sets:
            explore(grid(**{"options.frame_rate": rates}), "edgaze",
                    objectives=("energy_per_frame",), simulator=simulator,
                    engine="vector")
        # 12 rows > 10: the first block went, whole; the others stay.
        assert simulator.cache_info().size == 8
        # Newest first: replaying the evicted set publishes it again.
        for rates, expected_hits in zip(sets[::-1], (4, 4, 0)):
            before = simulator.cache_info()
            explore(grid(**{"options.frame_rate": rates}), "edgaze",
                    objectives=("energy_per_frame",), simulator=simulator,
                    engine="vector")
            assert simulator.cache_info().hits - before.hits \
                == expected_hits
        assert simulator.cache_info().size == 8

    def test_scalar_run_materializes_one_bit_identical_row(self,
                                                           materialized):
        simulator = Simulator()
        self._explore(simulator, self._RATES)
        design = build_usecase("edgaze", placement="3D-In-STT")
        options = SimOptions(frame_rate=60.0)
        hit = simulator.run(design, options)
        assert hit.cached and len(materialized) == 1
        scalar = Simulator(cache=False).run(design, options)
        assert hit.to_dict()["report"] == scalar.to_dict()["report"]
        assert hit.design_hash == scalar.design_hash

    def test_disk_tier_gets_each_row_on_its_first_serve(self, tmp_path):
        rates = [21.0, 34.0, 55.0, 89.0, 3.0e6]
        simulator = Simulator(cache_dir=tmp_path)
        space = grid(**{"options.frame_rate": rates})
        for _ in range(2):
            cold = explore(space, "edgaze",
                           objectives=("energy_per_frame", "latency"),
                           simulator=simulator, engine="vector")
        design = build_usecase("edgaze")
        assert simulator.run(design, SimOptions(frame_rate=21.0)).cached
        info = simulator.cache_info()
        assert (info.hits, info.misses) == (len(rates) + 1, len(rates))
        assert info.disk_entries == len(rates)
        # Every entry is the object engine's result, bit for bit.
        reader = Simulator(cache_dir=tmp_path)
        scalar = Simulator(cache=False)
        for rate in rates:
            options = SimOptions(frame_rate=rate)
            stored = reader.run(design, options)
            assert stored.cached
            expected = scalar.run(design, options)
            assert stored.to_dict()["report"] == \
                expected.to_dict()["report"]
            assert stored.failure == expected.failure
        assert reader.cache_info().disk_hits == len(rates)
        assert len(cold.points) == len(rates)


class TestSerialization:
    """Engine tallies in documents and specs, with old-document defaults."""

    def _result(self):
        return explore(
            grid(**{"options.frame_rate": [20.0, 30.0, 40.0, 50.0]}),
            "fig5", objectives=("energy_per_frame",))

    def test_engines_round_trip(self):
        result = self._result()
        document = result.to_dict()
        assert document["engines"] == {"vectorized": 4, "fallback": 0}
        restored = ExplorationResult.from_dict(document)
        assert restored.engines == result.engines
        assert restored.to_dict() == document

    def test_old_documents_default_to_zero_counters(self):
        document = self._result().to_dict()
        del document["engines"]
        restored = ExplorationResult.from_dict(document)
        assert restored.engines == dict.fromkeys(ENGINE_COUNTERS, 0)

    def test_spec_engine_round_trips(self):
        payload = {
            "schema": "repro.explore-spec/1",
            "usecase": "fig5",
            "space": {"name": "options.frame_rate", "values": [30.0]},
            "engine": "vector",
        }
        spec = exploration_spec_from_dict(payload)
        assert spec.engine == "vector"
        assert spec.to_dict()["engine"] == "vector"
        # The default engine stays out of the serialized form.
        default = exploration_spec_from_dict(
            {key: value for key, value in payload.items()
             if key != "engine"})
        assert default.engine == "auto"
        assert "engine" not in default.to_dict()

    def test_spec_rejects_unknown_engine(self):
        with pytest.raises(SerializationError, match="spec engine"):
            ExplorationSpec(
                usecase="fig5",
                space=grid(**{"options.frame_rate": [30.0]}),
                engine="simd")


class TestServeIntegration:
    """The daemon runs vector explorations and reports engine totals."""

    def test_stats_surface_engine_totals(self):
        from repro.serve import BackgroundServer

        spec = {
            "schema": "repro.explore-spec/1",
            "usecase": "fig5",
            "space": {"name": "options.frame_rate",
                      "values": [18.0, 27.0, 36.0, 45.0, 54.0, 63.0]},
            "objectives": ["energy_per_frame", "latency"],
            "engine": "vector",
        }
        with BackgroundServer(workers=1, chunk_size=8) as background:
            client = background.client()
            job = client.submit(spec)
            done = client.wait(job["id"], timeout=120.0)
            assert done["state"] == "done"
            document = client.result(job["id"])["result"]
            assert document["engines"] == {"vectorized": 6, "fallback": 0}
            stats = client.stats()
            assert stats["engines"]["vectorized"] >= 6
            assert set(stats["engines"]) == set(ENGINE_COUNTERS)


class TestNumpyBoundary:
    """Only the vector path needs NumPy; the scalar engine never loads it."""

    @staticmethod
    def _numpy_loaded(code):
        """``"True"`` if running ``code`` in a fresh interpreter imports
        NumPy, else ``"False"``."""
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path
                   else os.pathsep.join([src, path]))
        code += "; print('numpy' in sys.modules)"
        output = subprocess.run([sys.executable, "-c", code], check=True,
                                capture_output=True, text=True,
                                env=env).stdout
        return output.strip()

    def test_scalar_modules_do_not_import_numpy(self):
        assert self._numpy_loaded(
            "import sys, repro, repro.energy.report, repro.area.model, "
            "repro.explore.metrics") == "False"

    def test_scalar_run_does_not_import_numpy(self):
        # fig5's ADC takes the Walden lookup: a float rate must not
        # reach the batched column lookup.
        assert self._numpy_loaded(
            "import sys; from repro.api import Simulator, build_usecase; "
            "Simulator(cache=False).run(build_usecase('fig5')).report"
            ".total_energy") == "False"
