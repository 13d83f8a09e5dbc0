"""Tests for the unified design-space exploration engine."""

import itertools
import json
import time
from itertools import count

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import Design, SimOptions, Simulator, build_usecase
from repro.energy.report import Category
from repro.exceptions import ConfigurationError, SerializationError
from repro.explore import (
    ExplorationResult,
    Metric,
    available_metrics,
    choice,
    dominance_ranks,
    dominates,
    explore,
    explore_stream,
    exploration_spec_from_dict,
    grid,
    linspace,
    metric,
    pareto_indices,
    product,
    register_metric,
    resolve_metrics,
    space_from_dict,
    zipped,
)
from repro.explore.annotate import Bottleneck
from repro.explore.block import PointBlock
from repro.explore.engine import ExplorationPoint
from repro.explore.space import FilteredSpace, ProductSpace, SpaceColumns, \
    ZipSpace
from repro.hw.digital.memory import LineBuffer
from repro.usecases.fig5 import (FIG5_MAPPING, build_fig5_design,
                                 build_fig5_stages, build_fig5_system)


class TestSpaces:
    def test_choice_axis(self):
        axis = choice("node", [130, 65, 28])
        assert len(axis) == 3
        assert axis.names == ("node",)
        assert list(axis) == [{"node": 130}, {"node": 65}, {"node": 28}]

    def test_choice_allows_non_numeric_values(self):
        axis = choice("memory", ["sram", "stt-ram"])
        assert [p["memory"] for p in axis] == ["sram", "stt-ram"]

    def test_linspace_hits_endpoints(self):
        axis = linspace("fps", 15.0, 120.0, 4)
        values = [p["fps"] for p in axis]
        assert values[0] == 15.0 and values[-1] == 120.0
        assert len(values) == 4
        assert values == sorted(values)

    def test_linspace_single_point(self):
        assert [p["fps"] for p in linspace("fps", 30, 60, 1)] == [30.0]

    def test_product_order_last_axis_fastest(self):
        space = product(choice("a", [1, 2]), choice("b", ["x", "y"]))
        assert len(space) == 4
        assert list(space) == [{"a": 1, "b": "x"}, {"a": 1, "b": "y"},
                               {"a": 2, "b": "x"}, {"a": 2, "b": "y"}]

    def test_grid_shorthand(self):
        space = grid(a=[1, 2], b=[3, 4, 5])
        assert len(space) == 6
        assert space.names == ("a", "b")

    def test_mul_operator_is_product(self):
        space = choice("a", [1, 2]) * choice("b", [3])
        assert list(space) == [{"a": 1, "b": 3}, {"a": 2, "b": 3}]

    def test_zip_lockstep(self):
        space = zipped(choice("a", [1, 2]), choice("b", ["x", "y"]))
        assert len(space) == 2
        assert list(space) == [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]

    def test_zip_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            zipped(choice("a", [1, 2]), choice("b", [1, 2, 3]))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            product(choice("a", [1]), choice("a", [2]))

    def test_filter_subspace(self):
        space = grid(a=[1, 2, 3], b=[1, 2, 3]).filter(
            lambda p: p["a"] + p["b"] <= 3)
        assert len(space) == 3
        assert all(p["a"] + p["b"] <= 3 for p in space)

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            choice("a", [])

    def test_lazy_enumeration(self):
        """A huge product costs nothing to make."""
        space = grid(a=list(range(1000)), b=list(range(1000)))
        assert len(space) == 1_000_000
        first = next(iter(space))
        assert first == {"a": 0, "b": 0}


_VALUE = st.one_of(st.integers(-3, 3), st.sampled_from(["x", "y", ""]),
                   st.lists(st.integers(0, 2), max_size=2))


def _values(draw, size):
    return [draw(_VALUE) for _ in range(size)]


def _sized_space(draw, names, size, depth):
    """A random space of exactly ``size`` points."""
    kind = draw(st.sampled_from(["axis", "zip", "product", "filter"])
                if depth else st.just("axis"))
    if kind == "zip":
        return zipped(*[_sized_space(draw, names, size, depth - 1)
                        for _ in range(draw(st.integers(1, 2)))])
    if kind == "product":
        spaces = [_sized_space(draw, names, size, depth - 1),
                  _sized_space(draw, names, 1, depth - 1)]
        return ProductSpace(draw(st.permutations(spaces)))
    if kind == "filter":
        return _sized_space(draw, names, size, depth - 1).filter(
            lambda params: True)
    return choice(next(names), _values(draw, size))


@st.composite
def _spaces(draw, names=None, depth=3):
    """Random nested Axis/Product/Zip/Filter trees, disjointly named."""
    names = names if names is not None else (f"p{i}" for i in count())
    kind = draw(st.sampled_from(["axis", "zip", "product", "filter"])
                if depth else st.just("axis"))
    if kind == "zip":
        return _sized_space(draw, names, draw(st.integers(1, 3)), depth)
    if kind == "product":
        return ProductSpace([draw(_spaces(names, depth - 1))
                             for _ in range(draw(st.integers(1, 3)))])
    if kind == "filter":
        salt = draw(st.integers(0, 2))
        return draw(_spaces(names, depth - 1)).filter(
            lambda params: (len(repr(params)) + salt) % 3 != 0)
    return choice(next(names), _values(draw, draw(st.integers(1, 3))))


def _reference_points(space):
    """Point-wise enumeration of a space tree: the merged-dict formula."""
    def merged(parts):
        point = {}
        for part in parts:
            point.update(part)
        return point

    if isinstance(space, FilteredSpace):
        return [point for point in _reference_points(space.base)
                if space.predicate(dict(point))]
    if isinstance(space, ProductSpace):
        return [merged(parts) for parts in itertools.product(
            *map(_reference_points, space.spaces))]
    if isinstance(space, ZipSpace):
        return [merged(parts)
                for parts in zip(*map(_reference_points, space.spaces))]
    return [{space.name: value} for value in space.values]


class TestSpaceColumns:
    @settings(max_examples=200, deadline=None)
    @given(_spaces())
    def test_columns_are_the_points(self, space):
        columns = space.columns()
        points = list(space.points())
        assert len(columns) == len(space.names)
        assert all(len(column) == len(space) for column in columns)
        assert [dict(zip(space.names, row))
                for row in zip(*columns)] == points
        assert points == _reference_points(space)
        assert all(tuple(point) == space.names for point in points)

    def test_an_empty_filter_empties_a_product(self):
        space = product(choice("a", [1, 2]),
                        choice("b", [3]).filter(lambda params: False))
        assert len(space) == 0
        assert space.columns() == [[], []]
        assert list(space) == []


class TestSpaceSerialization:
    def test_round_trip_product(self):
        space = product(choice("placement", ["2D-In", "3D-In"]),
                        linspace("fps", 15, 120, 4))
        payload = space.to_dict()
        again = space_from_dict(payload)
        assert list(again) == list(space)
        assert again.to_dict() == payload

    def test_round_trip_zip(self):
        space = zipped(choice("a", [1, 2]), choice("b", [3, 4]))
        assert list(space_from_dict(space.to_dict())) == list(space)

    def test_bare_list_is_product(self):
        space = space_from_dict([{"name": "a", "values": [1, 2]},
                                 {"name": "b", "values": [3]}])
        assert list(space) == [{"a": 1, "b": 3}, {"a": 2, "b": 3}]

    def test_filtered_space_has_no_json_form(self):
        space = choice("a", [1, 2]).filter(lambda p: True)
        with pytest.raises(SerializationError):
            space.to_dict()

    def test_malformed_specs_rejected(self):
        for payload in ("nope", {"axes": []}, {"product": []},
                        {"name": "a"}, {"name": "a", "values": 3},
                        {"name": "a", "values": [1], "weird": True},
                        {"name": "a", "linspace": {"start": 1}}):
            with pytest.raises(SerializationError):
                space_from_dict(payload)


class TestMetrics:
    def test_builtins_registered(self):
        names = available_metrics()
        for expected in ("energy_per_frame", "power_density", "latency",
                         "area", "energy:MEM-D", "share:SEN"):
            assert expected in names

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigurationError):
            metric("definitely_not_registered")

    def test_duplicate_objectives_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_metrics(["latency", "latency"])

    def test_empty_objectives_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_metrics([])

    def test_bad_goal_rejected(self):
        with pytest.raises(ConfigurationError):
            Metric("m", unit="x", extract=lambda d, r: 0.0, goal="upward")

    def test_custom_metric_usable_as_objective(self):
        from repro.explore import metrics as metrics_module
        register_metric(Metric(
            "test_total_nj", unit="nJ",
            extract=lambda design, report: report.total_energy * 1e9))
        try:
            result = explore(choice("options.frame_rate", [30.0]),
                             build_fig5_design,
                             objectives=("test_total_nj",), annotate=False)
        finally:
            metrics_module._REGISTRY.pop("test_total_nj", None)
        point = result.points[0]
        assert point.metrics["test_total_nj"] == pytest.approx(
            point.report.total_energy * 1e9)


class TestDominance:
    GOALS = ("min", "min")

    def test_strict_dominance(self):
        assert dominates((1.0, 1.0), (2.0, 2.0), self.GOALS)
        assert not dominates((2.0, 2.0), (1.0, 1.0), self.GOALS)

    def test_tie_dominates_neither_way(self):
        assert not dominates((1.0, 1.0), (1.0, 1.0), self.GOALS)

    def test_partial_tie_dominates(self):
        assert dominates((1.0, 2.0), (1.0, 3.0), self.GOALS)

    def test_trade_off_incomparable(self):
        assert not dominates((1.0, 3.0), (3.0, 1.0), self.GOALS)
        assert not dominates((3.0, 1.0), (1.0, 3.0), self.GOALS)

    def test_max_goal_flips_direction(self):
        assert dominates((1.0, 5.0), (1.0, 4.0), ("min", "max"))
        assert not dominates((1.0, 4.0), (1.0, 5.0), ("min", "max"))

    def test_nan_incomparable(self):
        nan = float("nan")
        assert not dominates((nan, 0.0), (1.0, 1.0), self.GOALS)
        assert not dominates((1.0, 1.0), (nan, 0.0), self.GOALS)

    def test_vector_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            dominates((1.0,), (1.0, 2.0), self.GOALS)

    def test_unknown_goal_rejected(self):
        for goals in (("MAX", "min"), ("maximize", "min"), ("", "min")):
            with pytest.raises(ConfigurationError):
                dominates((1.0, 1.0), (2.0, 2.0), goals)

    def test_single_point_is_the_frontier(self):
        assert pareto_indices([(1.0, 1.0)], self.GOALS) == [0]
        assert dominance_ranks([(1.0, 1.0)], self.GOALS) == [0]

    def test_all_dominated_by_one(self):
        vectors = [(5.0, 5.0), (1.0, 1.0), (3.0, 4.0)]
        assert pareto_indices(vectors, self.GOALS) == [1]
        assert dominance_ranks(vectors, self.GOALS) == [2, 0, 1]

    def test_value_ties_all_kept_on_frontier(self):
        vectors = [(1.0, 2.0), (1.0, 2.0), (2.0, 1.0)]
        assert pareto_indices(vectors, self.GOALS) == [0, 1, 2]

    def test_three_objective_frontier(self):
        vectors = [(1, 2, 3), (2, 1, 3), (3, 2, 1), (3, 3, 3)]
        front = pareto_indices(vectors, ("min", "min", "min"))
        assert front == sorted(front, key=lambda i: (vectors[i], i))
        assert set(front) == {0, 1, 2}

    def test_frontier_order_stable_under_permutation(self):
        vectors = [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0), (4.0, 4.0)]
        front_a = [vectors[i] for i in pareto_indices(vectors, self.GOALS)]
        shuffled = [vectors[2], vectors[3], vectors[0], vectors[1]]
        front_b = [shuffled[i] for i in pareto_indices(shuffled, self.GOALS)]
        assert front_a == front_b

    def test_nan_vector_never_on_frontier(self):
        vectors = [(float("nan"), 0.0), (1.0, 1.0)]
        assert pareto_indices(vectors, self.GOALS) == [1]
        assert dominance_ranks(vectors, self.GOALS) == [None, 0]


class TestEngine:
    def test_options_axis_marks_infeasible_points(self):
        """Absurd FPS targets come back as typed points, not exceptions."""
        result = explore(choice("options.frame_rate", [30.0, 1e7]),
                         build_fig5_design,
                         objectives=("energy_per_frame",), annotate=False)
        ok, bad = result.points
        assert ok.feasible and not bad.feasible
        assert bad.failure_type == "TimingError"
        assert "re-design" in bad.failure
        assert bad.metrics == {}
        assert result.feasible_points == [ok]
        assert result.infeasible_points == [bad]

    def test_option_axis_builds_design_once(self):
        calls = []

        def builder():
            calls.append(1)
            return build_fig5_design()

        explore(choice("options.frame_rate", [15.0, 30.0, 60.0]),
                lambda **_: builder(), objectives=("energy_per_frame",),
                annotate=False)
        assert len(calls) == 1

    def test_builder_failure_marks_the_point(self):
        def builder(value):
            if value == 2:
                raise ConfigurationError("value 2 is unbuildable")
            return build_fig5_design()

        result = explore(choice("value", [1, 2, 3]),
                         lambda value: builder(value),
                         objectives=("energy_per_frame",), annotate=False)
        assert [p.feasible for p in result.points] == [True, False, True]
        failed = result.points[1]
        assert failed.failure_type == "ConfigurationError"
        assert "unbuildable" in failed.failure
        assert failed.params == {"value": 2}

    def test_metric_failure_marks_the_point(self):
        from repro.explore import metrics as metrics_module
        register_metric(Metric(
            "test_always_fails", unit="x",
            extract=lambda design, report: (_ for _ in ()).throw(
                ConfigurationError("cannot compute"))))
        try:
            result = explore(choice("options.frame_rate", [30.0]),
                             build_fig5_design,
                             objectives=("test_always_fails",),
                             annotate=False)
        finally:
            metrics_module._REGISTRY.pop("test_always_fails", None)
        point = result.points[0]
        assert not point.feasible
        assert "test_always_fails" in point.failure
        # The report survives for debugging even though the point failed.
        assert point.report is not None

    def test_unknown_options_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            explore(choice("options.warp_factor", [9]),
                    build_fig5_design, objectives=("energy_per_frame",))

    def test_non_design_builder_results_are_infeasible(self):
        """None, a pair or the parts as a tuple: each point is a typed
        ConfigurationError naming the builder and the returned type."""
        parts = (build_fig5_stages(), build_fig5_system(),
                 dict(FIG5_MAPPING))
        for built, type_name in ((None, "NoneType"), (parts[:2], "tuple"),
                                 (parts, "tuple")):
            def returns_no_design(**_):
                return built

            result = explore(choice("x", [1, 2]), returns_no_design,
                             objectives=("energy_per_frame",),
                             annotate=False)
            assert [p.feasible for p in result.points] == [False, False]
            for point in result.points:
                assert point.failure_type == "ConfigurationError"
                assert "returns_no_design" in point.failure
                assert f"returned {type_name}" in point.failure

    def test_usecase_name_as_builder(self):
        result = explore(grid(placement=["2D-In"], cis_node=[65]),
                         "edgaze", objectives=("energy_per_frame",),
                         annotate=False)
        assert result.name == "edgaze"
        assert result.points[0].feasible

    def test_shared_session_dedups_across_explorations(self):
        simulator = Simulator()
        explore(choice("options.frame_rate", [30.0, 60.0]),
                build_fig5_design, objectives=("energy_per_frame",),
                simulator=simulator, annotate=False)
        explore(choice("options.frame_rate", [30.0, 60.0]),
                build_fig5_design, objectives=("energy_per_frame",),
                simulator=simulator, annotate=False)
        assert simulator.cache_info().hits >= 2

    def test_warm_object_explore_is_cache_served(self):
        """A 256-point Ed-Gaze replay on one session: the same document,
        every unique key a hit, no pool touched, and no slower than the
        cold pass beyond 0.25 s of noise.  The object engine keeps this
        on the per-point path."""
        space = product(
            choice("placement", ["2D-In", "2D-Off", "3D-In", "3D-In-STT"]),
            choice("cis_node", [130, 65]),
            # Every Ed-Gaze design fits its pipeline below ~509 FPS.
            linspace("options.frame_rate", 15.0, 480.0, 32))
        objectives = ("energy_per_frame", "power_density", "latency")
        with Simulator() as simulator:
            started = time.perf_counter()
            cold = explore(space, "edgaze", objectives=objectives,
                           simulator=simulator, engine="object")
            cold_s = time.perf_counter() - started
            started = time.perf_counter()
            warm = explore(space, "edgaze", objectives=objectives,
                           simulator=simulator, engine="object")
            warm_s = time.perf_counter() - started
            warm_stats = simulator.last_batch_stats

        assert len(cold.points) == len(space)
        assert len(cold.feasible_points) == len(space)
        assert len(cold.frontier()) >= 1
        assert all(point.bottleneck is not None
                   for point in cold.feasible_points)
        assert warm.to_json() == cold.to_json()
        assert warm_stats.cache_hits == warm_stats.unique
        assert warm_stats.workers_used == 0
        assert warm_s <= cold_s + 0.25

    def test_annotation_attaches_bottleneck(self):
        result = explore(choice("options.frame_rate", [30.0]),
                         build_fig5_design,
                         objectives=("energy_per_frame",))
        bottleneck = result.points[0].bottleneck
        assert bottleneck is not None
        assert bottleneck.share > 0
        assert bottleneck.hint

    def test_three_objective_edgaze_frontier(self):
        """Acceptance: >=2 axes, >=3 objectives, frontier extracted."""
        from repro.usecases import edgaze_space

        result = explore(edgaze_space(), "edgaze",
                         objectives=("energy_per_frame", "power_density",
                                     "latency"))
        assert len(result.points) == 8
        assert len(result.objectives) == 3
        frontier = result.frontier()
        assert 1 <= len(frontier) < len(result.points)
        labels = {(p.params["placement"], p.params["cis_node"])
                  for p in frontier}
        # 3D stacking trades energy against density, so STT lands on the
        # frontier while plain 2D-In at 65 nm is strictly dominated.
        assert ("3D-In-STT", 65) in labels
        assert ("2D-In", 65) not in labels
        ranks = result.dominance_ranks()
        assert all(rank is not None for rank in ranks)
        assert sorted(set(ranks))[0] == 0


class TestResultSerialization:
    @staticmethod
    def _result():
        return explore(
            choice("options.frame_rate", [30.0, 1e7]),
            build_fig5_design,
            objectives=("energy_per_frame", "power_density", "latency"))

    def test_json_round_trip_bit_identical(self):
        """Acceptance: the full result re-serializes bit-identically."""
        result = self._result()
        document = result.to_json()
        again = ExplorationResult.from_json(document)
        assert again.to_json() == document

    def test_round_trip_preserves_analysis(self):
        result = self._result()
        again = ExplorationResult.from_json(result.to_json())
        assert again.frontier_indices() == result.frontier_indices()
        assert again.dominance_ranks() == result.dominance_ranks()
        assert [p.feasible for p in again.points] \
            == [p.feasible for p in result.points]
        assert again.points[1].failure_type == "TimingError"

    def test_schema_tag_present_and_checked(self):
        payload = self._result().to_dict()
        assert payload["schema"] == "repro.explore/1"
        payload["schema"] = "repro.explore/999"
        with pytest.raises(SerializationError):
            ExplorationResult.from_dict(payload)

    def test_save_load(self, tmp_path):
        result = self._result()
        path = tmp_path / "exploration.json"
        result.save(path)
        assert ExplorationResult.load(path).to_json() == result.to_json()

    def test_deserialized_metrics_reattach_extractors(self):
        again = ExplorationResult.from_json(self._result().to_json())
        design = build_fig5_design()
        report = Simulator().run(design).report
        value = again.objectives[0].value(design, report)
        assert value == pytest.approx(report.total_energy)

    def test_infeasible_round_trip_keeps_failure(self):
        again = ExplorationResult.from_json(self._result().to_json())
        bad = again.points[1]
        assert not bad.feasible
        assert bad.metrics == {}
        assert "re-design" in bad.failure

    def test_to_table_marks_frontier_and_infeasible(self):
        table = self._result().to_table()
        assert "infeasible" in table
        assert "*" in table
        assert "rank" in table


class TestSpec:
    SPEC = {
        "schema": "repro.explore-spec/1",
        "usecase": "edgaze",
        "space": {"product": [
            {"name": "placement", "values": ["2D-In", "2D-Off"]},
            {"name": "cis_node", "values": [130, 65]},
        ]},
        "objectives": ["energy_per_frame", "power_density", "latency"],
        "options": {"frame_rate": 30.0},
    }

    def test_spec_runs(self):
        spec = exploration_spec_from_dict(self.SPEC)
        result = spec.run()
        assert len(result.points) == 4
        assert all(point.feasible for point in result.points)
        assert result.to_dict()["schema"] == "repro.explore/1"

    def test_spec_round_trip(self):
        spec = exploration_spec_from_dict(self.SPEC)
        assert exploration_spec_from_dict(spec.to_dict()).to_dict() \
            == spec.to_dict()

    def test_missing_pieces_rejected(self):
        for broken in ({"usecase": "edgaze"},
                       {"space": self.SPEC["space"]},
                       {**self.SPEC, "schema": "bogus/1"},
                       {**self.SPEC, "objectives": []},
                       {**self.SPEC, "objectives": "energy_per_frame"},
                       {**self.SPEC, "surprise": 1}):
            with pytest.raises(SerializationError):
                exploration_spec_from_dict(broken)


class TestCliExplore:
    def _write(self, tmp_path, payload):
        path = tmp_path / "explore.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_explore_command(self, tmp_path, capsys):
        """Acceptance: repro explore runs a 2-axis, 3-objective space."""
        from repro.__main__ import main

        spec = self._write(tmp_path, TestSpec.SPEC)
        assert main(["explore", spec]) == 0
        out = capsys.readouterr().out
        assert "frontier" in out and "objectives:" in out

    def test_explore_command_json(self, tmp_path, capsys):
        from repro.__main__ import main

        spec = self._write(tmp_path, TestSpec.SPEC)
        assert main(["explore", spec, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.explore/1"
        assert len(payload["points"]) == 4
        assert len(payload["objectives"]) == 3
        assert payload["frontier"]

    def test_explore_writes_result_file(self, tmp_path, capsys):
        from repro.__main__ import main

        spec = self._write(tmp_path, TestSpec.SPEC)
        out_path = tmp_path / "result.json"
        assert main(["explore", spec, "-o", str(out_path)]) == 0
        saved = ExplorationResult.load(out_path)
        assert len(saved.points) == 4

    def test_explore_all_infeasible_exits_nonzero(self, tmp_path, capsys):
        from repro.__main__ import main

        spec = self._write(tmp_path, {
            "usecase": "fig5",
            "space": [{"name": "options.frame_rate", "values": [1e7]}],
            "objectives": ["energy_per_frame"],
        })
        assert main(["explore", spec]) == 1
        assert "TimingError" in capsys.readouterr().out

    def test_explore_missing_spec_fails_cleanly(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["explore", str(tmp_path / "absent.json")]) == 1
        assert "cannot load spec" in capsys.readouterr().err


class TestShims:
    """The laws the retired one-axis sweep and two-objective Pareto
    helpers promised, checked on the engine that carried them."""

    def test_sweep_parameter_non_numeric_values(self):
        """A builder axis accepts non-numeric values."""
        from repro.usecases import UseCaseConfig, build_edgaze

        result = explore(
            choice("placement", ["2D-In", "3D-In", "3D-In-STT"]),
            lambda placement: build_edgaze(UseCaseConfig(placement, 65)),
            objectives=("energy_per_frame",), annotate=False,
            engine="object")
        assert [p.params["placement"] for p in result.points] \
            == ["2D-In", "3D-In", "3D-In-STT"]
        assert all(p.feasible for p in result.points)

    def test_design_point_tie_semantics(self):
        goals = ("min", "min")
        assert not dominates((1.0, 1.0), (1.0, 1.0), goals)
        nan = (float("nan"), 1.0)
        assert not dominates(nan, (1.0, 1.0), goals)
        assert not dominates((1.0, 1.0), nan, goals)

    def test_pareto_front_deterministic_with_duplicates(self):
        goals = ("min", "min")
        labels = ["b", "a", "c", "d"]
        vectors = [(1.0, 2.0), (1.0, 2.0), (2.0, 1.0), (3.0, 3.0)]
        ordered = [(1.0, 2.0), (1.0, 2.0), (2.0, 1.0)]
        for order in (labels, labels[::-1]):
            # Both duplicates stay on the front, in objective order,
            # whatever the input order.
            inputs = [vectors[labels.index(label)] for label in order]
            front = pareto_indices(inputs, goals)
            assert [inputs[i] for i in front] == ordered
            assert {order[i] for i in front} == {"a", "b", "c"}
        assert [labels[i] for i, rank
                in enumerate(dominance_ranks(vectors, goals)) if rank] \
            == ["d"]

    def test_nan_design_points_neither_front_nor_dominated(self):
        goals = ("min", "min")
        vectors = [(1.0, 2.0), (float("nan"), 1.0)]
        assert pareto_indices(vectors, goals) == [0]
        assert dominance_ranks(vectors, goals) == [0, None]

    def test_usecase_spaces_match_config_grids(self):
        from repro.usecases import (edgaze_configs, edgaze_space,
                                    rhythmic_configs, rhythmic_space)

        assert [(c.placement, c.cis_node) for c in edgaze_configs()] \
            == [(p["placement"], p["cis_node"]) for p in edgaze_space()]
        assert [(c.placement, c.cis_node) for c in rhythmic_configs()] \
            == [(p["placement"], p["cis_node"]) for p in rhythmic_space()]

    def test_bottleneck_shim_path(self):
        """repro.analysis keeps the bottleneck names the engine uses."""
        import repro.analysis as analysis
        from repro.explore import annotate

        for name in ("Bottleneck", "identify_bottlenecks",
                     "dominant_category"):
            assert getattr(analysis, name) is getattr(annotate, name)


# --- the document writer against json.dumps -------------------------------

#: Text that stresses the writer: format directives, quotes, escapes,
#: NUL (the row templates' hole marker starts with it), hole-like text,
#: non-ASCII and line separators.
_TRICKY = st.sampled_from(["%", "%s", "%%d", '"', "\\", "\x00", "\x000",
                           "\x0012", '"\\u00001"', "é", "☃", " ",
                           "\n", "a", "b"])
_TEXT = st.one_of(st.lists(_TRICKY, max_size=3).map("".join),
                  st.text(max_size=5))
_NAME = _TEXT.filter(bool)
_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_SCALAR = st.one_of(st.booleans(), st.integers(-10 ** 20, 10 ** 20), _FLOAT,
                    _TEXT, st.none())
#: A list-valued param forces its row onto the json.dumps fallback.
_PARAM = st.one_of(_SCALAR, _SCALAR, _SCALAR,
                   st.lists(_SCALAR, min_size=1, max_size=2))


def _oracle(result, indent):
    """The document formula the writer replaces."""
    return json.dumps(result.to_dict(), indent=indent, sort_keys=True)


@st.composite
def _bottlenecks(draw):
    return Bottleneck(name=draw(_TEXT),
                      category=draw(st.sampled_from(list(Category))),
                      energy=draw(_FLOAT), share=draw(_FLOAT),
                      hint=draw(_TEXT))


@st.composite
def _segments(draw, names, keys):
    """A vector block, a feasible object-path point or an infeasible one;
    params mostly share ``keys``, a point's sometimes with a key of its
    own.  A block's rows are some rows of its param columns: a slice
    (a ``range``) or picked out one by one."""
    def params():
        row = {key: draw(_PARAM) for key in keys}
        if draw(st.integers(0, 5)) == 0:
            row[draw(_TEXT)] = draw(_PARAM)
        return row

    kind = draw(st.sampled_from(["block", "point", "infeasible"]))
    design = draw(_TEXT)
    design_hash = draw(st.one_of(st.none(), _TEXT))
    if kind == "block":
        size = draw(st.integers(1, 4))
        height = size + draw(st.integers(0, 3))
        space = SpaceColumns(keys, [[draw(_PARAM) for _ in range(height)]
                                    for _ in keys])
        if draw(st.booleans()):
            first = draw(st.integers(0, height - size))
            rows = range(first, first + size)
        else:
            rows = draw(st.lists(st.integers(0, height - 1),
                                 min_size=size, max_size=size))
        causes = [(draw(_TEXT), draw(st.sampled_from(list(Category))),
                   draw(_TEXT)) for _ in range(draw(st.integers(1, 2)))]
        annotated = draw(st.booleans())
        return PointBlock(
            space, rows, design, design_hash,
            tuple(names),
            [[draw(_FLOAT) for _ in range(size)] for _ in names],
            causes if annotated else (),
            [draw(st.one_of(st.none(), st.integers(0, len(causes) - 1)))
             for _ in range(size)] if annotated else None,
            [draw(_FLOAT) for _ in range(size)] if annotated else None,
            [draw(_FLOAT) for _ in range(size)] if annotated else None)
    if kind == "point":
        return ExplorationPoint(
            params=params(), metrics={name: draw(_FLOAT) for name in names},
            design_name=design, design_hash=design_hash,
            bottleneck=draw(st.one_of(st.none(), _bottlenecks())))
    return ExplorationPoint(
        params=params(), design_name=draw(st.one_of(st.none(), _TEXT)),
        design_hash=design_hash, failure_type=draw(st.one_of(st.none(),
                                                             _TEXT)),
        failure=draw(_TEXT))


@st.composite
def _results(draw):
    names = draw(st.lists(_NAME, max_size=3, unique=True))
    keys = draw(st.lists(_TEXT, max_size=3, unique=True))
    objectives = [Metric(name=name, unit=draw(_TEXT),
                         extract=lambda design, report: 0.0,
                         goal=draw(st.sampled_from(["min", "max"])))
                  for name in names]
    segments = draw(st.lists(_segments(names, keys), max_size=5))
    return ExplorationResult(
        name=draw(_TEXT), objectives=objectives,
        options=SimOptions(frame_rate=draw(st.floats(1.0, 1e6))),
        segments=segments,
        resilience={"retries": draw(st.integers(0, 3))},
        engines={"vectorized": draw(st.integers(0, 9))})


class TestDocumentWriter:
    """``to_json`` writes ``json.dumps(to_dict(), indent, sort_keys)``
    byte for byte, without calling it on the document."""

    INDENTS = (None, 0, 2, 4)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_results())
    def test_matches_json_dumps(self, result):
        for indent in self.INDENTS:
            assert result.to_json(indent) == _oracle(result, indent)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_results())
    def test_matches_json_dumps_after_a_round_trip(self, result):
        """Loaded documents (non-finite metrics as NaN/Infinity) are
        point segments; they write the same bytes as the blocks did."""
        document = result.to_json()
        again = ExplorationResult.from_json(document)
        assert again.to_json() == document
        for indent in self.INDENTS:
            assert again.to_json(indent) == _oracle(again, indent)

    def test_real_mixed_exploration(self):
        """Vector blocks cut by an outer frame-rate axis, frame-budget
        failures inside them, a builder failure, and an object-path
        group too small to vectorize."""
        def builder(placement):
            if placement == "bogus":
                raise ConfigurationError("no such placement")
            return build_usecase("edgaze", placement=placement,
                                 cis_node=65)

        space = product(choice("options.frame_rate",
                               [30.0, 240.0, 1e5, 1e7]),
                        choice("placement", ["2D-In", "bogus", "3D-In"]))
        small = choice("options.frame_rate", [30.0, 1e7])
        with Simulator() as sim:
            mixed = explore(space, builder, simulator=sim, name="mix%s")
            annotated_small = explore(small, build_fig5_design,
                                      simulator=sim)
            plain = explore(space, builder, simulator=sim, annotate=False)
        assert mixed.engines == {"vectorized": 8, "fallback": 0}
        for result in (mixed, annotated_small, plain):
            for indent in self.INDENTS:
                assert result.to_json(indent) == _oracle(result, indent)

    def test_hole_like_param_keys_fall_back(self):
        """A param key that reads as a hole marker keeps its rows on the
        json.dumps path — and the bytes right."""
        space = SpaceColumns(["\x000", "x"], [[1.5] * 2, ["y"] * 2])
        block = PointBlock(space, range(2), "d", None, ("m",), [[1.0, 2.0]])
        result = ExplorationResult(
            name="holes", objectives=[Metric("m", "", lambda d, r: 0.0)],
            options=SimOptions(), segments=[block])
        for indent in self.INDENTS:
            assert result.to_json(indent) == _oracle(result, indent)

    def test_points_build_lazily_and_match_segments(self):
        result = explore(
            product(choice("placement", ["2D-In", "3D-In"]),
                    linspace("options.frame_rate", 15.0, 120.0, 5)),
            "edgaze")
        assert result._points is None
        result.to_json()
        assert result._points is None
        points = result.points
        assert result.points is points and len(points) == 10
        assert [point.to_dict() for point in points] \
            == result.to_dict()["points"]


# --- malformed documents ----------------------------------------------------

def _malformed_documents():
    """Name -> a repro.explore/1 payload that must not load."""
    with Simulator() as sim:
        base = explore(choice("options.frame_rate", [30.0, 60.0]),
                       build_fig5_design, simulator=sim).to_dict()

    def edited(edit):
        payload = json.loads(json.dumps(base))
        edit(payload)
        return payload

    def drop_metric(payload):
        del payload["points"][0]["metrics"]["latency"]

    return {
        "points not a list": edited(
            lambda payload: payload.update(points=5)),
        "point not an object": edited(
            lambda payload: payload.update(points=[5])),
        "failure not an object": edited(
            lambda payload: payload["points"][0].update(failure="boom")),
        "objectives not a list": edited(
            lambda payload: payload.update(objectives=5)),
        "feasible point lacks an objective": edited(drop_metric),
        "metric not a number": edited(
            lambda payload: payload["points"][0]["metrics"].update(
                latency="fast")),
    }


_MALFORMED = _malformed_documents()


class TestMalformedDocuments:
    """Every loader raises SerializationError, never a bare TypeError,
    AttributeError or KeyError (now or at the next to_json)."""

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_from_dict(self, case):
        with pytest.raises(SerializationError):
            ExplorationResult.from_dict(_MALFORMED[case])

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_from_json(self, case):
        with pytest.raises(SerializationError):
            ExplorationResult.from_json(json.dumps(_MALFORMED[case]))

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_load(self, case, tmp_path):
        path = tmp_path / "exploration.json"
        path.write_text(json.dumps(_MALFORMED[case]))
        with pytest.raises(SerializationError):
            ExplorationResult.load(path)

    def test_infeasible_point_needs_no_metrics(self):
        payload = json.loads(json.dumps(_MALFORMED["points not a list"]))
        with Simulator() as sim:
            payload["points"] = explore(
                choice("options.frame_rate", [1e7]), build_fig5_design,
                simulator=sim).to_dict()["points"]
        again = ExplorationResult.from_dict(payload)
        assert not again.points[0].feasible
        assert again.to_json() == _oracle(again, 2)


class TestStreamedPoints:
    def test_progress_points_are_the_result_points(self):
        """Chunks built for on_progress are the result's points, not
        rebuilt, and its document is the same as without a callback."""
        space = product(choice("placement", ["2D-In", "3D-In"]),
                        linspace("options.frame_rate", 15.0, 120.0, 6))
        seen = []
        with Simulator() as sim:
            streamed = explore_stream(
                space, "edgaze", simulator=sim, chunk_size=6,
                on_progress=lambda points, *counts: seen.extend(points))
            plain = explore(space, "edgaze", simulator=sim)
        assert len(seen) == 12
        assert all(a is b for a, b in zip(streamed.points, seen))
        assert streamed.to_json() == plain.to_json()
        assert streamed.points == plain.points


# --- chunking and design groups ----------------------------------------------

class _GatedLineBuffer(LineBuffer):
    """Power-gated at slow frames: the vector screen rejects the design."""

    def leakage_energy(self, frame_time):
        return 0.0 if frame_time > 0.05 else super().leakage_energy(
            frame_time)


def _fig5_model(model, tag):
    """A Fig. 5 design per ``model``; ``tag`` (any value) is unused."""
    if model == "bogus":
        raise ConfigurationError("no such model")
    system = build_fig5_system()
    if model == "gated":
        system.memories[0].__class__ = _GatedLineBuffer
    return Design(build_fig5_stages(), system, dict(FIG5_MAPPING),
                  name="Fig5-" + model)


#: Builder failures, list-valued builder params (one design per point),
#: a screened-out design (object path) beside stock ones (vector path),
#: frame-budget failures, and bad frame rates: zero, a string, a list.
_MODELS = choice("model", ["stock", "bogus", "gated"])
_TAGS = choice("tag", ["a", [1, 2]])
_RATES = choice("options.frame_rate", [30.0, 1e7, 0.0, 60.0, "fast",
                                       [30.0], 45.0])
_MIXED_SPACES = {"rates last": product(_MODELS, _TAGS, _RATES),
                 "rates first": product(_RATES, _MODELS, _TAGS)}


class TestChunking:
    @pytest.mark.parametrize("order", sorted(_MIXED_SPACES))
    def test_chunk_size_changes_nothing(self, order):
        """Any chunking gives the document, engine counters and streamed
        points of one chunk."""
        space = _MIXED_SPACES[order]
        runs = {}
        for chunk_size in (1, 3, 7, None):
            seen = []
            with Simulator() as sim:
                result = explore_stream(
                    space, _fig5_model, simulator=sim, engine="vector",
                    chunk_size=chunk_size,
                    on_progress=lambda points, *counts: seen.append(
                        [point.to_dict() for point in points]))
            streamed = [point for chunk in seen for point in chunk]
            runs[chunk_size] = (result.to_json(), result.engines, streamed)
            assert len(seen) == (1 if chunk_size is None
                                 else -(-len(space) // chunk_size))
        document, engines, streamed = runs[None]
        assert engines["vectorized"] > 0 and engines["fallback"] > 0
        assert streamed == json.loads(document)["points"]
        assert all(run == runs[None] for run in runs.values())
        failures = {point["failure"]["type"] for point in streamed
                    if point["failure"] is not None}
        assert failures == {"ConfigurationError", "TimingError"}

    def test_unhashable_builder_values_build_per_point(self):
        calls = []

        def builder(model, tag):
            calls.append(tag)
            return _fig5_model(model, tag)

        space = product(choice("model", ["stock"]), _TAGS,
                        choice("options.frame_rate", [30.0, 60.0, 0.0]))
        result = explore(space, builder, engine="vector")
        # One build for the hashable tag, one per valid-rate list point.
        assert calls == ["a", [1, 2], [1, 2]]
        assert [point.params for point in result.points] == list(space)

    def test_builder_values_sharing_a_design_object_group_together(self):
        """Two builder values that return one design object make one
        group, which reaches the vector threshold neither reaches alone."""
        from repro.explore.vector import VECTOR_MIN_POINTS

        shared = build_fig5_design()
        rates = [20.0 + 10.0 * step for step in range(VECTOR_MIN_POINTS - 1)]
        space = product(choice("tag", ["a", "b"]),
                        choice("options.frame_rate", rates))
        result = explore(space, lambda tag: shared,
                         objectives=("energy_per_frame",))
        assert result.engines == {"vectorized": len(space), "fallback": 0}
        assert [point.params for point in result.points] == list(space)

    def test_bad_options_stay_typed_and_in_space_order(self):
        space = choice("options.frame_rate",
                       [30.0, "fast", 60.0, [1.0], -2.0, 45.0, 15.0])
        result = explore(space, build_fig5_design, engine="vector")
        assert [point.params for point in result.points] == list(space)
        assert [point.failure_type for point in result.points] == [
            None, "ConfigurationError", None, "ConfigurationError",
            "ConfigurationError", None, None]
        assert result.engines == {"vectorized": 4, "fallback": 0}


    def test_nan_frame_rate_is_one_typed_failure_on_both_engines(self):
        space = choice("options.frame_rate", [30, 60, float("nan"), 90])
        results = {engine: explore(space, build_fig5_design, engine=engine)
                   for engine in ("object", "vector")}
        assert results["vector"].engines == {"vectorized": 3, "fallback": 0}
        documents = []
        for result in results.values():
            assert [point.feasible for point in result.points] == [
                True, True, False, True]
            failed = result.points[2]
            assert failed.failure_type == "ConfigurationError"
            assert failed.failure == "frame rate must be positive, got nan"
            documents.append([json.dumps(point.to_dict())
                              for point in result.points])
        assert documents[0] == documents[1]


class TestDesignGroups:
    def test_a_product_explores_as_columns_grouped_by_design(
            self, monkeypatch):
        """4 x 2 x 1250 Ed-Gaze points: 8 builds, one vector group per
        design, and no per-point enumeration of the product."""
        space = product(
            choice("placement", ["2D-In", "2D-Off", "3D-In", "3D-In-STT"]),
            choice("cis_node", [130, 65]),
            linspace("options.frame_rate", 15.0, 480.0, 1250))
        builds = []

        def builder(**params):
            builds.append(params)
            return build_usecase("edgaze", **params)

        def enumerated(self):
            raise AssertionError("the engine enumerated the product")

        monkeypatch.setattr(ProductSpace, "points", enumerated)
        monkeypatch.setattr(ProductSpace, "__iter__", enumerated)
        with Simulator() as sim:
            result = explore(space, builder, simulator=sim,
                             objectives=("energy_per_frame", "latency"))
        assert len(builds) == 8
        assert result.engines == {"vectorized": 10000, "fallback": 0}
        assert len(result.feasible_points) == 10000

    def test_a_product_builds_no_options_or_params_per_point(
            self, monkeypatch):
        """The same 4 x 2 x 1250 product travels as columns: no
        SimOptions per point and no param dict until ``points`` is read."""
        space = product(
            choice("placement", ["2D-In", "2D-Off", "3D-In", "3D-In-STT"]),
            choice("cis_node", [130, 65]),
            linspace("options.frame_rate", 15.0, 480.0, 1250))
        build_usecase("edgaze")  # imports the use case and its constants
        default = SimOptions()
        options_built = []
        params_built = []
        check_options = SimOptions.__post_init__
        params = SpaceColumns.params

        def counting_options(options):
            options_built.append(options)
            check_options(options)

        def counting_params(columns, rows):
            params_built.append(len(rows))
            return params(columns, rows)

        monkeypatch.setattr(SimOptions, "__post_init__", counting_options)
        monkeypatch.setattr(SpaceColumns, "params", counting_params)
        with Simulator() as sim:
            result = explore(space, "edgaze", simulator=sim,
                             objectives=("energy_per_frame", "latency"))
            replay = explore(space, "edgaze", simulator=sim,
                             objectives=("energy_per_frame", "latency"))
            # The session's default options are the exploration's base.
            assert options_built == [default]
            assert sum(params_built) == 0
            # The document writer reads param columns: one prototype row
            # per design's block shapes the rows.
            assert result.to_json() == replay.to_json()
            assert sum(params_built) == 2 * 8
        assert result.engines == {"vectorized": 10000, "fallback": 0}
        assert len(result.points) == len(replay.points) == 10000
        assert sum(params_built) == 2 * 8 + 20000
        assert replay.points == result.points
        assert options_built == [default]
