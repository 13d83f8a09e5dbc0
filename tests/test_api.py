"""Tests for the first-class session API (Design / Simulator / specs)."""

import json

import pytest

from repro import simulate, units
from repro.api import (
    Design,
    SimOptions,
    Simulator,
    build_usecase,
    design_from_spec,
    load_scenario,
    run_design,
    scenario_from_spec,
)
from repro.exceptions import (
    ConfigurationError,
    MappingError,
    SerializationError,
    TimingError,
)
from repro.sw.stage import ProcessStage
from repro.usecases import UseCaseConfig, build_edgaze, build_rhythmic
from repro.usecases.fig5 import (
    FIG5_MAPPING,
    build_fig5_design,
    build_fig5_stages,
    build_fig5_system,
)

#: An FPS no digital pipeline in this repo can satisfy.
_IMPOSSIBLE_FPS = 1e7


class _CustomStage(ProcessStage):
    """A user-defined stage type the serializer doesn't know."""


def _unserializable_design() -> Design:
    """A working Fig. 5 variant whose custom stage defeats to_dict()."""
    stages = build_fig5_stages()
    custom = _CustomStage("EdgeDetection", input_size=(16, 16, 1),
                          kernel=(3, 3, 1), stride=(1, 1, 1),
                          padding="same")
    custom.set_input_stage(stages[1])
    return Design(stages[:2] + [custom], build_fig5_system(),
                  dict(FIG5_MAPPING))


class TestDesign:
    def test_bundles_the_three_parts(self):
        design = build_fig5_design()
        assert design.name == "Fig5"
        assert len(design.stages) == 3
        assert design.system.name == "Fig5"
        assert design.mapping.assignments == FIG5_MAPPING

    def test_frozen(self):
        design = build_fig5_design()
        with pytest.raises(AttributeError):
            design.system = None
        with pytest.raises(AttributeError):
            del design.name

    def test_invalid_mapping_fails_at_construction(self):
        with pytest.raises(MappingError):
            Design(build_fig5_stages(), build_fig5_system(),
                   {"Input": "PixelArray"})  # incomplete mapping

    def test_custom_stage_types_hash_by_identity(self):
        """Unserializable designs still simulate, compare, and hash."""
        design, twin = _unserializable_design(), _unserializable_design()
        with pytest.raises(SerializationError):
            design.to_dict()
        assert design == design
        assert design != twin  # identity fallback, not content
        assert len({design, twin}) == 2
        result = Simulator().run(design)
        assert result.ok and result.design_hash is None
        assert not Simulator().run(design).cached


class TestDesignSerialization:
    def test_json_round_trip_equality(self):
        design = build_fig5_design()
        clone = Design.from_json(design.to_json())
        assert clone == design
        assert clone.content_hash == design.content_hash

    def test_round_trip_preserves_total_energy_exactly(self):
        """Acceptance: round-tripped Fig. 5 matches direct simulate()."""
        design = build_fig5_design()
        clone = Design.from_dict(json.loads(json.dumps(design.to_dict())))
        direct = simulate(build_fig5_stages(), build_fig5_system(),
                          dict(FIG5_MAPPING), frame_rate=30.0)
        replayed = run_design(clone, frame_rate=30.0).unwrap()
        assert replayed.total_energy == direct.total_energy
        assert replayed.digital_latency == direct.digital_latency

    @pytest.mark.parametrize("builder", [
        lambda: build_rhythmic(UseCaseConfig("2D-In", 65)),
        lambda: build_edgaze(UseCaseConfig("3D-In-STT", 65)),
        lambda: build_usecase("edgaze_mixed", cis_node=65),
        lambda: build_usecase("threelayer"),
    ], ids=["rhythmic", "edgaze-stt", "edgaze-mixed", "threelayer"])
    def test_every_usecase_round_trips(self, builder):
        design = builder()
        clone = Design.from_json(design.to_json())
        assert clone.content_hash == design.content_hash
        original = run_design(design).unwrap()
        replayed = run_design(clone).unwrap()
        assert replayed.total_energy == original.total_energy

    def test_content_hash_stable_across_independent_builds(self):
        assert build_fig5_design().content_hash \
            == build_fig5_design().content_hash

    def test_content_hash_sensitive_to_parameters(self):
        base = build_rhythmic(UseCaseConfig("2D-In", 65))
        other = build_rhythmic(UseCaseConfig("2D-In", 130))
        assert base.content_hash != other.content_hash
        assert base != other

    def test_unknown_schema_rejected(self):
        payload = build_fig5_design().to_dict()
        payload["schema"] = "repro.design/99"
        with pytest.raises(SerializationError):
            Design.from_dict(payload)

    @pytest.mark.parametrize("path, value", [
        (("system", "memories"), [5]),
        (("system", "compute_units"), ["x"]),
        (("system", "analog_arrays"), [None]),
        (("system", "layers"), [1]),
        (("stages",), [3]),
        (("stages", 1, "kernel"), "abc"),
        (("system", "memories", 0, "size"), "zz"),
        (("system", "pixel_array"), 3),
        (("system", "offchip_interface"), []),
        (("system", "analog_arrays", 0, "components", 0, "component",
          "cells"), [1]),
        (("system", "memories", 0, "read_energy_per_word"), "x"),
    ], ids=["memories", "compute-units", "analog-arrays", "layers",
            "stages", "kernel", "memory-size", "pixel-array",
            "offchip-interface", "cells", "read-energy"])
    def test_malformed_nested_entries_rejected(self, path, value):
        payload = build_edgaze(UseCaseConfig("2D-In", 65)).to_dict()
        container = payload
        for step in path[:-1]:
            container = container[step]
        container[path[-1]] = value
        with pytest.raises(SerializationError,
                           match="malformed design payload"):
            Design.from_dict(payload)

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "fig5.json"
        design = build_fig5_design()
        design.save(path)
        assert Design.load(path) == design


class TestSimOptions:
    def test_defaults(self):
        options = SimOptions()
        assert options.frame_rate == 30.0
        assert not options.cycle_accurate

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SimOptions(frame_rate=0)
        with pytest.raises(ConfigurationError):
            SimOptions(exposure_slots=0)

    def test_nan_frame_rate_rejected_and_inf_over_budget(self):
        from repro import simulate

        with pytest.raises(ConfigurationError,
                           match="frame rate must be positive, got nan"):
            SimOptions(frame_rate=float("nan"))
        design = build_fig5_design()
        with pytest.raises(ConfigurationError,
                           match="frame rate must be positive, got nan"):
            simulate(design.graph, design.system, design.mapping,
                     frame_rate=float("nan"))
        result = Simulator().run(design, SimOptions(frame_rate=float("inf")))
        assert result.error_type == "TimingError"

    def test_round_trip(self):
        options = SimOptions(frame_rate=60.0, cycle_accurate=True)
        assert SimOptions.from_dict(options.to_dict()) == options

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigurationError):
            SimOptions.from_dict({"fps": 30})

    def test_wrong_types_rejected(self):
        """Spec files hand over raw JSON; strings must not slip through."""
        with pytest.raises(ConfigurationError):
            SimOptions(frame_rate="60")
        with pytest.raises(ConfigurationError):
            SimOptions(exposure_slots=1.5)
        with pytest.raises(ConfigurationError):
            SimOptions(cycle_accurate="yes")

    def test_usecase_bad_params_raise_framework_error(self):
        with pytest.raises(ConfigurationError):
            build_usecase("fig5", fps=60)

    def test_replace(self):
        assert SimOptions().replace(frame_rate=120.0).frame_rate == 120.0


class TestSimulatorRun:
    def test_success_result(self):
        result = Simulator().run(build_fig5_design())
        assert result.ok
        assert result.error is None
        assert result.design_hash == build_fig5_design().content_hash
        assert result.report.total_energy == pytest.approx(30.9 * units.nJ,
                                                           rel=0.05)

    def test_timing_failure_captured_not_raised(self):
        """Acceptance: failures come back typed, not as exceptions."""
        simulator = Simulator(SimOptions(frame_rate=_IMPOSSIBLE_FPS))
        result = simulator.run(build_fig5_design())
        assert not result.ok
        assert result.report is None
        assert result.error_type == "TimingError"
        assert "frame budget" in result.failure
        with pytest.raises(TimingError):
            result.unwrap()

    def test_rejects_legacy_triple(self):
        with pytest.raises(ConfigurationError):
            Simulator().run((build_fig5_stages(), build_fig5_system(),
                             dict(FIG5_MAPPING)))

    def test_matches_legacy_simulate_wrapper(self):
        design = build_fig5_design()
        direct = simulate(design.stages, design.system, design.mapping,
                          frame_rate=45.0)
        session = Simulator(SimOptions(frame_rate=45.0)) \
            .run(build_fig5_design()).unwrap()
        assert session.total_energy == direct.total_energy


class TestSimulatorCache:
    def test_second_run_is_a_cache_hit(self):
        simulator = Simulator()
        first = simulator.run(build_fig5_design())
        second = simulator.run(build_fig5_design())  # independent build
        assert not first.cached
        assert second.cached
        assert second.report.total_energy == first.report.total_energy
        info = simulator.cache_info()
        assert info.hits == 1 and info.misses == 1 and info.size == 1

    def test_options_are_part_of_the_key(self):
        simulator = Simulator()
        simulator.run(build_fig5_design())
        other = simulator.run(build_fig5_design(),
                              SimOptions(frame_rate=60.0))
        assert not other.cached
        assert simulator.cache_info().misses == 2

    def test_cache_disabled(self):
        simulator = Simulator(cache=False)
        simulator.run(build_fig5_design())
        repeat = simulator.run(build_fig5_design())
        assert not repeat.cached
        assert simulator.cache_info().size == 0

    def test_clear_cache(self):
        simulator = Simulator()
        simulator.run(build_fig5_design())
        simulator.clear_cache()
        assert simulator.cache_info().size == 0
        assert not simulator.run(build_fig5_design()).cached

    def test_failures_are_cached_too(self):
        simulator = Simulator(SimOptions(frame_rate=_IMPOSSIBLE_FPS))
        simulator.run(build_fig5_design())
        repeat = simulator.run(build_fig5_design())
        assert repeat.cached and repeat.error_type == "TimingError"


class TestRunMany:
    def _grid(self):
        return [build_rhythmic(UseCaseConfig(placement, node))
                for node in (130, 65)
                for placement in ("2D-In", "2D-Off", "3D-In")]

    def test_batch_of_eight_in_input_order(self):
        """Acceptance: >= 8 designs, one result each, input order."""
        designs = self._grid() + [build_fig5_design(),
                                  build_usecase("threelayer")]
        assert len(designs) >= 8
        simulator = Simulator()
        results = simulator.run_many(designs)
        assert [r.design_name for r in results] \
            == [d.name for d in designs]
        assert all(r.ok for r in results)
        stats = simulator.last_batch_stats
        assert stats.total == len(designs)
        assert stats.max_workers >= 2

    def test_batch_spreads_across_multiple_workers(self, monkeypatch):
        """Acceptance: a batch occupies several pool workers at once.

        The repo's designs simulate in microseconds — far faster than a
        pool thread spins up — so a GIL-releasing delay is injected to
        observe the scheduling property deterministically.
        """
        import time as time_module

        import repro.api.simulator as simulator_module
        real_engine = simulator_module._simulate_graph

        def slow_engine(*args, **kwargs):
            time_module.sleep(0.05)
            return real_engine(*args, **kwargs)

        monkeypatch.setattr(simulator_module, "_simulate_graph",
                            slow_engine)
        simulator = Simulator(max_workers=4)
        results = simulator.run_many(self._grid() + [build_fig5_design(),
                                                     build_usecase(
                                                         "threelayer")])
        assert all(r.ok for r in results)
        assert simulator.last_batch_stats.workers_used >= 2

    def test_duplicates_simulated_once(self):
        designs = self._grid()
        batch = designs + designs  # every scenario twice
        simulator = Simulator()
        results = simulator.run_many(batch)
        assert len(results) == len(batch)
        assert simulator.last_batch_stats.unique == len(designs)
        for first, second in zip(results[:len(designs)],
                                 results[len(designs):]):
            assert first.report.total_energy == second.report.total_energy

    def test_per_item_options_pairs(self):
        design = build_fig5_design()
        items = [(design, SimOptions(frame_rate=fps))
                 for fps in (15.0, 30.0, _IMPOSSIBLE_FPS)]
        results = Simulator().run_many(items)
        assert results[0].ok and results[1].ok
        assert results[2].error_type == "TimingError"
        assert [r.options.frame_rate for r in results] \
            == [15.0, 30.0, _IMPOSSIBLE_FPS]

    def test_empty_batch(self):
        assert Simulator().run_many([]) == []

    def test_malformed_item_rejected(self):
        with pytest.raises(ConfigurationError):
            Simulator().run_many([42])

    def test_unserializable_designs_still_fan_out(self):
        """Custom-typed designs go through the pool, just uncached."""
        simulator = Simulator()
        designs = [_unserializable_design() for _ in range(4)]
        results = simulator.run_many(designs)
        assert all(r.ok for r in results)
        assert all(r.design_hash is None for r in results)
        stats = simulator.last_batch_stats
        assert stats.unique == 4  # no dedup without a content hash
        assert stats.workers_used >= 1  # ran through the pool, not inline
        assert simulator.cache_info().size == 0

    def test_process_executor(self):
        """Designs ship to worker processes as serialized payloads."""
        designs = [build_fig5_design(),
                   build_rhythmic(UseCaseConfig("2D-In", 65))]
        simulator = Simulator(executor="process", max_workers=2)
        results = simulator.run_many(designs)
        assert [r.design_name for r in results] == [d.name for d in designs]
        assert all(r.ok for r in results)
        assert results[0].design_hash == designs[0].content_hash
        assert simulator.last_batch_stats.workers_used >= 1
        # Results entered the session cache: a repeat batch is all hits.
        repeat = simulator.run_many(designs)
        assert all(r.cached for r in repeat)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigurationError):
            Simulator(executor="rocket")


class TestSessionPools:
    def _grid(self):
        return [build_rhythmic(UseCaseConfig(placement, node))
                for node in (130, 65)
                for placement in ("2D-In", "2D-Off", "3D-In")]

    def test_thread_pool_reused_across_batches(self, slow_jobs):
        simulator = Simulator(cache=False)
        simulator.run_many(self._grid())
        first = simulator._executor._pool
        assert first is not None
        simulator.run_many(self._grid())
        assert simulator._executor._pool is first
        simulator.close()

    def test_pool_grows_for_wider_batches_and_never_shrinks(self,
                                                             slow_jobs):
        simulator = Simulator(cache=False)
        simulator.run_many(self._grid()[:2])
        narrow = simulator._executor._width
        simulator.run_many([(design, SimOptions(frame_rate=float(rate)))
                            for design in self._grid()
                            for rate in (20, 40, 60)])
        grown = simulator._executor._width
        assert grown >= narrow
        simulator.run_many(self._grid()[:2])
        assert simulator._executor._width == grown  # no shrink
        assert simulator.last_batch_stats.max_workers == grown
        simulator.close()

    def test_close_is_idempotent_and_session_recovers(self, slow_jobs):
        simulator = Simulator(cache=False)
        simulator.run_many(self._grid()[:3])
        simulator.close()
        assert simulator._executor._pool is None
        simulator.close()  # second close is a no-op
        # The session stays usable: pools are recreated lazily.
        results = simulator.run_many(self._grid()[:3])
        assert all(result.ok for result in results)
        assert simulator._executor._pool is not None
        simulator.close()

    def test_context_manager_closes_the_pools(self, slow_jobs):
        with Simulator(cache=False) as simulator:
            assert all(r.ok for r in simulator.run_many(self._grid()[:3]))
            assert simulator._executor._pool is not None
        assert simulator._executor._pool is None

    def test_cached_batches_never_create_a_pool(self):
        simulator = Simulator()
        designs = self._grid()[:3]
        simulator.run_many(designs)
        simulator.close()
        assert all(r.cached for r in simulator.run_many(designs))
        assert simulator._executor._pool is None  # warm batch: no pool

    def test_broken_process_pool_is_healed_within_the_batch(self):
        """A dead worker is healed in place: the batch still completes."""
        import os as os_module

        from concurrent.futures import BrokenExecutor

        designs = [build_fig5_design()]
        with Simulator(cache=False, executor="process",
                       max_workers=1) as simulator:
            assert all(r.ok for r in simulator.run_many(designs))
            poisoned = simulator._executor._pool
            # Kill the worker out from under the executor.
            with pytest.raises(BrokenExecutor):
                poisoned.submit(os_module._exit, 1).result()
            # The next batch inherits the corpse — and heals it: the
            # pool is rebuilt mid-batch and the jobs still complete.
            results = simulator.run_many(designs)
            assert all(r.ok for r in results)
            assert simulator.last_batch_stats.pool_rebuilds >= 1
            assert simulator._executor._pool is not poisoned

    def test_process_pool_reused_across_batches(self):
        with Simulator(cache=False, executor="process",
                       max_workers=2) as simulator:
            designs = [build_fig5_design(),
                       build_rhythmic(UseCaseConfig("2D-In", 65))]
            assert all(r.ok for r in simulator.run_many(designs))
            first = simulator._executor._pool
            assert first is not None
            assert all(r.ok for r in simulator.run_many(designs))
            assert simulator._executor._pool is first
        assert simulator._executor._pool is None


class TestBatchLocalHitCounts:
    def test_run_many_hits_are_batch_local(self):
        """Stats must not read deltas off the shared session counters."""
        simulator = Simulator()
        design = build_fig5_design()
        simulator.run(design)
        # A concurrent run() bumping session counters mid-batch must not
        # leak into the batch stats; simulate the race directly.
        simulator._cache_hits += 100
        results = simulator.run_many([design, design, design])
        assert all(result.cached for result in results)
        # One unique warm key: one batch-local hit, dedup covers the rest.
        assert simulator.last_batch_stats.cache_hits == 1

    def test_warm_batch_counts_every_unique_key(self):
        simulator = Simulator()
        designs = [build_fig5_design(),
                   build_rhythmic(UseCaseConfig("2D-In", 65))]
        simulator.run_many(designs)
        simulator.run_many(designs)
        assert simulator.last_batch_stats.cache_hits == len(designs)


class TestSpecs:
    def test_usecase_reference(self):
        design = design_from_spec({"usecase": "edgaze",
                                   "params": {"placement": "2D-In",
                                              "cis_node": 65}})
        assert design == build_edgaze(UseCaseConfig("2D-In", 65))

    def test_unknown_usecase(self):
        with pytest.raises(ConfigurationError):
            design_from_spec({"usecase": "warp-drive"})

    def test_structural_payload(self):
        design = build_fig5_design()
        assert design_from_spec(design.to_dict()) == design

    def test_scenario_with_options(self):
        payload = {"design": build_fig5_design().to_dict(),
                   "options": {"frame_rate": 60.0}}
        design, options = scenario_from_spec(payload)
        assert design == build_fig5_design()
        assert options.frame_rate == 60.0

    def test_bare_design_payload_gets_default_options(self):
        design, options = scenario_from_spec(build_fig5_design().to_dict())
        assert design == build_fig5_design()
        assert options == SimOptions()

    def test_load_scenario_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "design": {"usecase": "fig5"},
            "options": {"frame_rate": 90.0},
        }))
        design, options = load_scenario(path)
        assert design == build_fig5_design()
        assert options.frame_rate == 90.0

    def test_garbage_spec_rejected(self):
        with pytest.raises(SerializationError):
            design_from_spec({"nonsense": True})

    def test_builder_returning_no_design_rejected(self):
        """A registered builder must return a Design: anything else is
        a ConfigurationError naming the use case and the type."""
        from repro.api.registry import _REGISTRY, register_usecase

        parts = (build_fig5_stages(), build_fig5_system(),
                 dict(FIG5_MAPPING))
        try:
            for built, type_name in ((None, "NoneType"),
                                     (parts[:2], "tuple"), (parts, "tuple")):
                register_usecase("test_no_design", lambda: built)
                with pytest.raises(ConfigurationError,
                                   match=f"'test_no_design' returned "
                                         f"{type_name}"):
                    build_usecase("test_no_design")
        finally:
            _REGISTRY.pop("test_no_design", None)

    def test_non_object_params_rejected(self):
        with pytest.raises(SerializationError):
            design_from_spec({"usecase": "fig5", "params": [1, 2]})

    def test_non_object_options_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_from_spec({"design": {"usecase": "fig5"},
                                "options": 5})
        with pytest.raises(ConfigurationError):
            scenario_from_spec({"design": {"usecase": "fig5"},
                                "options": None})


class TestSessionConcurrency:
    """The shared-session guarantees the serve daemon builds on."""

    def _grid(self):
        return [build_rhythmic(UseCaseConfig(placement, node))
                for node in (130, 65)
                for placement in ("2D-In", "2D-Off", "3D-In")]

    def test_concurrent_batches_share_one_pool(self, monkeypatch,
                                               slow_jobs):
        """Overlapping run_many calls must not race pool creation."""
        import threading

        import repro.exec.local as local_module

        created = []
        real_pool = local_module.ThreadPoolExecutor

        class CountingPool(real_pool):
            def __init__(self, *args, **kwargs):
                created.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(local_module, "ThreadPoolExecutor",
                            CountingPool)
        simulator = Simulator(cache=False)
        designs = self._grid()
        barrier = threading.Barrier(4)
        errors = []

        def batch():
            barrier.wait()
            try:
                results = simulator.run_many(designs)
                assert all(result.ok for result in results)
            except BaseException as error:
                errors.append(error)

        threads = [threading.Thread(target=batch) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not errors
        # Same batch width from every thread: exactly one pool, reused.
        assert len(created) == 1
        simulator.close()

    def test_concurrent_close_is_safe_and_idempotent(self):
        import threading

        simulator = Simulator(cache=False)
        simulator.run_many(self._grid()[:3])
        barrier = threading.Barrier(8)
        errors = []

        def close():
            barrier.wait()
            try:
                simulator.close()
            except BaseException as error:
                errors.append(error)

        threads = [threading.Thread(target=close) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        assert simulator._executor._pool is None

    def test_terminal_close_blocks_batches_but_not_run(self):
        simulator = Simulator(cache=False)
        designs = self._grid()[:2]
        assert all(result.ok for result in simulator.run_many(designs))
        simulator.close(terminal=True)
        assert simulator.closed
        with pytest.raises(ConfigurationError):
            simulator.run_many(designs)  # pools must not resurrect
        # run() never touches a pool; it keeps working either way.
        assert simulator.run(build_fig5_design()).ok

    def test_terminal_close_still_serves_cached_batches(self):
        simulator = Simulator()
        designs = self._grid()[:3]
        simulator.run_many(designs)
        simulator.close(terminal=True)
        results = simulator.run_many(designs)  # warm: no pool needed
        assert all(result.cached for result in results)

    def test_non_terminal_close_keeps_session_usable(self):
        simulator = Simulator(cache=False)
        simulator.run_many(self._grid()[:2])
        simulator.close(cancel_pending=True)
        assert not simulator.closed
        assert all(result.ok
                   for result in simulator.run_many(self._grid()[:2]))
        simulator.close()

    def test_pool_info_tracks_lifecycle(self, slow_jobs):
        simulator = Simulator(cache=False, max_workers=3)
        info = simulator.pool_info()
        assert info == {"executor": "thread", "max_workers": 3,
                        "thread_pool_width": 0, "process_pool_width": 0,
                        "terminal": False}
        simulator.run_many(self._grid()[:3])
        assert simulator.pool_info()["thread_pool_width"] == 3
        simulator.close(terminal=True)
        info = simulator.pool_info()
        assert info["thread_pool_width"] == 0
        assert info["terminal"] is True
