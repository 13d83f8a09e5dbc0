"""The statistical robustness subsystem: variation, ensembles, explore.

Covers the deterministic seed-addressed variation model (pure draws,
truncation, payload perturbation), the four ensemble runners and their
``repro.robust/1`` documents, the robust exploration reduction with its
zero-variation bit-identity guarantee, spec files, the CLI subcommand,
and the serve daemon's ``robust`` job kind.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import threading
import time
from collections import OrderedDict

import pytest

from repro.api.design import Design
from repro.api.registry import build_usecase
from repro.api.serialize import encode_cell
from repro.api.simulator import Simulator
from repro.exceptions import (ConfigurationError, SerializationError,
                              SimulationError)
from repro.explore import explore
from repro.hw.analog import SingleSlopeADC
from repro.robust import (CORNER_SETS, DEFAULT_METRICS, SAMPLE_AXIS,
                          Corner, Distribution, RobustResult, RobustSpec,
                          VariationModel, corner_from_pvt, corner_set,
                          corners, default_variation, explore_robust,
                          load_robust_spec, monte_carlo, perturb_design,
                          perturb_payload, quantile, robust_spec_from_dict,
                          sensitivity, standard_draw, worst_case)
from repro.robust import variation as variation_module
from repro.robust.variation import PARAMETER_GROUPS
from repro.tech.corners import PvtPoint, standard_pvt_points
from repro.usecases.edgaze import edgaze_configs, edgaze_space
from repro.validation import ALL_CHIPS


@pytest.fixture(scope="module")
def fig5_design():
    return build_usecase("fig5")


@pytest.fixture(scope="module")
def edgaze_design():
    return build_usecase("edgaze", placement="2D-In", cis_node=65)


SMALL_VARIATION = VariationModel(sigma={
    "memory.write_energy_per_word": 0.05,
    "memory.read_energy_per_word": 0.05,
    "memory.leakage_power": 0.10,
    "compute.energy_per_cycle": 0.05,
    "compute.energy_per_mac": 0.05,
    "compute.clock_hz": 0.02,
    "interface.energy_per_byte": 0.05,
    "analog.load_capacitance": 0.05,
    "analog.node_capacitance": 0.05,
})


# --- satellite: chaos env never leaks into unit tests ----------------------

def test_conftest_scrubs_chaos_environment():
    for variable in ("REPRO_FAULTS", "REPRO_RETRY_MAX_ATTEMPTS",
                     "REPRO_RETRY_BASE_DELAY_S", "REPRO_TASK_TIMEOUT_S",
                     "REPRO_CACHE_DIR"):
        assert variable not in os.environ


# --- variation model -------------------------------------------------------

class TestDraws:
    def test_pure_function_of_seed_sample_param(self):
        first = standard_draw(7, 3, "memory.leakage_power")
        second = standard_draw(7, 3, "memory.leakage_power")
        assert first == second

    def test_distinct_addresses_decorrelate(self):
        draws = {standard_draw(seed, sample, param)
                 for seed in (0, 1) for sample in (1, 2, 3)
                 for param in ("memory.leakage_power",
                               "compute.clock_hz")}
        assert len(draws) == 12

    def test_normal_truncation(self):
        for sample in range(1, 400):
            z = standard_draw(0, sample, "analog.vdda", cutoff=2.0)
            assert abs(z) <= 2.0

    def test_uniform_bounds(self):
        width = math.sqrt(3.0)
        for sample in range(1, 200):
            z = standard_draw(0, sample, "analog.vdda", dist="uniform")
            assert -width <= z <= width

    def test_normal_draws_roughly_standard(self):
        draws = [standard_draw(1, sample, "memory.leakage_power")
                 for sample in range(1, 2001)]
        mean = sum(draws) / len(draws)
        var = sum((d - mean) ** 2 for d in draws) / len(draws)
        assert abs(mean) < 0.1
        assert 0.8 < var < 1.2


class TestVariationModel:
    def test_nominal_sample_is_exactly_one(self):
        model = default_variation()
        assert all(factor == 1.0
                   for factor in model.factors(5, 0).values())

    def test_zero_sigma_is_exactly_one(self):
        model = VariationModel(sigma={"memory.leakage_power": 0.0})
        assert model.factor(1, 9, "memory.leakage_power") == 1.0
        assert model.is_zero

    def test_factors_deterministic(self):
        model = default_variation()
        assert model.factors(3, 11) == model.factors(3, 11)
        assert model.factors(3, 11) != model.factors(4, 11)

    def test_unknown_parameter_group_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            VariationModel(sigma={"memory.nonsense": 0.1})

    def test_excessive_sigma_rejected(self):
        with pytest.raises(ConfigurationError, match="factor <= 0"):
            VariationModel(sigma={"memory.leakage_power": 0.5}, cutoff=3.0)

    def test_nan_sigma_rejected(self):
        # NaN slips past "< 0" and the extent bound, then draws NaN
        # factors for every sample.
        with pytest.raises(ConfigurationError, match=">= 0"):
            VariationModel(sigma={"memory.leakage_power": math.nan})

    def test_bad_dist_rejected(self):
        with pytest.raises(ConfigurationError, match="dist"):
            VariationModel(sigma={}, dist="cauchy")

    def test_round_trip(self):
        model = VariationModel(sigma={"analog.vdda": 0.02},
                               dist="uniform", cutoff=2.5)
        assert VariationModel.from_dict(model.to_dict()) == model

    def test_extreme_corners_span_cutoff(self):
        model = VariationModel(sigma={"memory.leakage_power": 0.1},
                               cutoff=3.0)
        low, high = model.extreme_corners()
        assert low.factors["memory.leakage_power"] == pytest.approx(0.7)
        assert high.factors["memory.leakage_power"] == pytest.approx(1.3)


class TestPerturbation:
    def test_payload_fields_scale(self, fig5_design):
        payload = fig5_design.to_dict()
        doubled = perturb_payload(payload, {"memory.leakage_power": 2.0})
        for before, after in zip(payload["system"]["memories"],
                                 doubled["system"]["memories"]):
            assert after["leakage_power"] == 2.0 * before["leakage_power"]
            assert after["write_energy_per_word"] == \
                before["write_energy_per_word"]

    def test_interface_and_compute_scale(self, fig5_design):
        payload = fig5_design.to_dict()
        scaled = perturb_payload(payload, {"interface.energy_per_byte": 1.5,
                                           "compute.clock_hz": 0.5})
        assert scaled["system"]["offchip_interface"]["energy_per_byte"] == \
            1.5 * payload["system"]["offchip_interface"]["energy_per_byte"]
        for before, after in zip(payload["system"]["compute_units"],
                                 scaled["system"]["compute_units"]):
            assert after["clock_hz"] == 0.5 * before["clock_hz"]

    def test_original_payload_untouched(self, fig5_design):
        payload = fig5_design.to_dict()
        snapshot = json.dumps(payload, sort_keys=True)
        perturb_payload(payload, {"memory.leakage_power": 3.0})
        assert json.dumps(payload, sort_keys=True) == snapshot

    def test_all_ones_returns_identical_object(self, fig5_design):
        model = default_variation(0.0)
        assert perturb_design(fig5_design,
                              model.factors(0, 5)) is fig5_design

    def test_perturbed_design_changes_hash(self, fig5_design):
        perturbed = perturb_design(fig5_design,
                                   {"memory.write_energy_per_word": 1.01})
        assert isinstance(perturbed, Design)
        assert perturbed.content_hash != fig5_design.content_hash

    @pytest.mark.parametrize("factor", [math.inf, -math.inf, math.nan])
    def test_non_finite_factor_rejected(self, fig5_design, factor):
        factors = {"memory.leakage_power": factor}
        with pytest.raises(ConfigurationError, match="finite"):
            perturb_payload(fig5_design.to_dict(), factors)
        with pytest.raises(ConfigurationError, match="finite"):
            perturb_design(fig5_design, factors)

    def test_missing_groups_are_noops(self, fig5_design):
        # fig5 has no single-slope ADC; the draw applies to nothing.
        perturbed = perturb_payload(fig5_design.to_dict(),
                                    {"analog.comparator_bias": 2.0})
        assert perturbed == fig5_design.to_dict()


# --- copy-on-write perturbation ---------------------------------------------

def _round_trip_perturb(design, factors):
    """Oracle: the full-payload path perturb_design replaces — a JSON
    round trip of ``design.to_dict()``, the appliers, and a full
    :meth:`Design.from_dict` decode of stages, system and mapping."""
    payload = json.loads(json.dumps(design.to_dict()))
    for param in sorted(factors):
        if factors[param] != 1.0:
            PARAMETER_GROUPS[param](payload["system"], factors[param])
    return Design.from_dict(payload)


#: Every built-in use-case builder, each Ed-Gaze placement x node.
USECASE_BUILDS = (
    [("fig5", {})]
    + [("edgaze", {"placement": config.placement,
                   "cis_node": config.cis_node})
       for config in edgaze_configs()]
    + [("rhythmic", {}), ("threelayer", {}), ("edgaze_mixed", {})])

#: Each parameter group alone, a few stock Monte Carlo draws, and every
#: PVT corner.
FACTOR_SETS = (
    [{param: 1.1} for param in sorted(PARAMETER_GROUPS)]
    + [default_variation().factors(seed, sample)
       for seed, sample in ((0, 1), (7, 2), (123, 64))]
    + [dict(corner.factors) for corner in corner_set("pvt")])


def _single_slope_fig5():
    """fig5 with its Walden-FoM ADC cell swapped for the analytical
    single-slope model — no built-in design carries that cell type."""
    payload = build_usecase("fig5").to_dict()
    converter = encode_cell(SingleSlopeADC().cell_usages[0].cell)
    for array in payload["system"]["analog_arrays"]:
        for entry in array["components"]:
            for usage in entry["component"]["cells"]:
                if usage["cell"]["type"] == "nonlinear":
                    usage["cell"] = converter
    return Design.from_dict(payload)


#: Use cases, the validation chips (set ADC energies) and the
#: single-slope variant: together they give every group a field.
DESIGN_BUILDS = (
    [(f"{name}-{'-'.join(map(str, params.values()))}".rstrip("-"),
      lambda name=name, params=params: build_usecase(name, **params))
     for name, params in USECASE_BUILDS]
    + [(chip.name, lambda chip=chip: Design(*chip.build(), name=chip.name))
       for chip in ALL_CHIPS]
    + [("fig5-single-slope", _single_slope_fig5)])


class TestCopyOnWritePerturbation:
    @pytest.mark.parametrize("build", [build for _, build in DESIGN_BUILDS],
                             ids=[label for label, _ in DESIGN_BUILDS])
    def test_matches_round_trip_oracle(self, build):
        design = build()
        for factors in FACTOR_SETS:
            fast = perturb_design(design, factors)
            oracle = _round_trip_perturb(design, factors)
            assert fast.content_hash == oracle.content_hash, factors
            assert fast.to_dict() == oracle.to_dict(), factors

    def test_every_group_moves_some_design(self):
        # The oracle comparison above is vacuous for a group no design
        # has a field for; every group must change at least one hash.
        designs = [build() for _, build in DESIGN_BUILDS]
        for param in PARAMETER_GROUPS:
            assert any(perturb_design(design, {param: 1.1}).content_hash
                       != design.content_hash for design in designs), param

    def test_samples_never_alias(self):
        design = build_usecase("edgaze", placement="3D-In", cis_node=130)
        nominal = design.to_json()
        every_group = {param: 1.0 + 0.01 * (rank + 1) for rank, param
                       in enumerate(sorted(PARAMETER_GROUPS))}
        first = perturb_design(design, every_group)
        first_payload = first.to_json()
        memoized = variation_module._nominal_payload(design,
                                                     design.content_hash)
        assert json.dumps(memoized, sort_keys=True, indent=2) == nominal
        for scale in (0.5, 2.0, 3.0):
            perturb_design(design, {param: factor * scale for param, factor
                                    in every_group.items()})
        assert first.to_json() == first_payload
        assert design.to_json() == nominal
        assert json.dumps(memoized, sort_keys=True, indent=2) == nominal

    def test_shares_graph_and_mapping(self):
        design = build_usecase("rhythmic")
        perturbed = perturb_design(design, {"memory.leakage_power": 1.2345})
        assert perturbed is not design
        assert perturbed.graph is design.graph
        assert perturbed.mapping is design.mapping
        assert perturbed.name == design.name
        assert perturbed.system is not design.system

    def test_concurrent_perturbation_matches_oracle(self):
        # Threads race on the shared nominal-payload memo; every sample
        # must still equal its round-trip oracle and the memo stay clean.
        design = build_usecase("threelayer")
        nominal = design.to_dict()
        work = [default_variation().factors(424_243, sample)
                for sample in range(1, 49)]
        expected = [_round_trip_perturb(design, factors).content_hash
                    for factors in work]
        results = [None] * len(work)

        def perturb(worker):
            for index in range(worker, len(work), 8):
                results[index] = perturb_design(design, work[index])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=perturb, args=(worker,))
                       for worker in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [result.content_hash for result in results] == expected
        assert variation_module._nominal_payload(
            design, design.content_hash) == nominal

    def test_cold_study_runs_every_design_pass_once(self):
        # Mirrors the benchmark's cold guard: a fresh nominal and a
        # never-seen seed must run each memoized pass once per design
        # (64 samples + the nominal) with no cache hit — perturbed
        # designs sharing the stage graph must not share pass memos.
        design = build_usecase("edgaze", placement="2D-In", cis_node=65)
        with Simulator() as sim:
            result = monte_carlo(design, default_variation(), samples=64,
                                 seed=731_591, simulator=sim)
            passes, info = sim.pass_info(), sim.cache_info()
        assert result.accounting == {"total": 64, "ok": 64, "failed": 0}
        assert info.hits == 0
        for name in ("timeline", "analog_usage", "comm_energy"):
            assert passes[name] == 65, (name, passes)


    def test_sample_hashes_never_re_encode_the_sample(self, monkeypatch):
        # A sample's hash comes from the nominal's canonical template; a
        # fall-back to Design.to_dict() for any sample fails here.
        design = build_usecase("edgaze", placement="2D-In", cis_node=65)
        work = [default_variation().factors(605_177, sample)
                for sample in range(1, 65)]
        expected = [_round_trip_perturb(design, factors).content_hash
                    for factors in work]
        variation_module._nominal_payload(design, design.content_hash)

        def refuse(self):
            raise AssertionError("a perturbed sample re-encoded itself")
        monkeypatch.setattr(Design, "to_dict", refuse)
        assert [perturb_design(design, factors).content_hash
                for factors in work] == expected

    @pytest.mark.parametrize("build", [build for _, build in DESIGN_BUILDS],
                             ids=[label for label, _ in DESIGN_BUILDS])
    def test_template_reproduces_the_nominal_hash(self, build):
        design = build()
        template = variation_module._compile_template(
            variation_module._nominal_payload(design, design.content_hash))
        assert variation_module._template_hash(template, {}) == \
            design.content_hash

    def test_leaf_scaled_by_two_groups(self, monkeypatch):
        # No stock leaf belongs to two groups.  An extra group that
        # re-scales memory leakage must put both on one hole and
        # multiply them in sorted-parameter order, like the appliers;
        # an int factor keeps the encoder's number formatting honest.
        monkeypatch.setitem(
            PARAMETER_GROUPS, "memory.leakage_power_again",
            lambda system, factor: variation_module._memories(
                system, "leakage_power", factor))
        monkeypatch.setattr(variation_module, "_templates", OrderedDict())
        monkeypatch.setattr(variation_module, "_perturbed_cache",
                            OrderedDict())
        design = build_usecase("rhythmic")
        leakage = design.to_dict()["system"]["memories"][0]["leakage_power"]
        assert leakage * 1.07 * 1.13 != leakage * 1.13 * 1.07  # order shows
        for factors in ({"memory.leakage_power": 1.07,
                         "memory.leakage_power_again": 1.13},
                        {"memory.leakage_power_again": 3},
                        {"memory.leakage_power": 1.3,
                         "compute.clock_hz": 2}):
            assert perturb_design(design, factors).content_hash == \
                _round_trip_perturb(design, factors).content_hash, factors

    def test_overflowing_leaf_hashes_like_the_encoder(self):
        # Finite factors can still overflow a leaf to inf, which JSON
        # writes as "Infinity", not float.__repr__'s "inf".
        design = build_usecase("rhythmic")
        factors = {"compute.clock_hz": 1e300}
        assert "Infinity" in perturb_design(design, factors).to_json()
        assert perturb_design(design, factors).content_hash == \
            _round_trip_perturb(design, factors).content_hash

    def test_hole_lookalike_strings_fall_back_to_encoding(self):
        # A payload string that reads like a template hole cannot be
        # told apart from one; such a nominal compiles to no template
        # and its samples hash by encoding.
        fig5 = build_usecase("fig5")
        design = Design(fig5.stages, fig5.system, fig5.mapping, name="\x000")
        factors = {"memory.leakage_power": 1.1}
        assert variation_module._compile_template(design.to_dict()) is None
        assert perturb_design(design, factors).content_hash == \
            _round_trip_perturb(design, factors).content_hash

    def test_template_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(variation_module, "_templates", OrderedDict())
        limit = variation_module._NOMINAL_LIMIT
        base = build_usecase("fig5")
        designs = [Design(base.graph, base.system, base.mapping,
                          name=f"fig5-{index}")
                   for index in range(limit + 4)]
        for design in designs:
            perturb_design(design, {"memory.leakage_power": 1.01})
        memo = variation_module._templates
        assert len(memo) == limit
        assert list(memo) == [design.content_hash
                              for design in designs[-limit:]]
        assert len(variation_module._nominal_payloads) <= limit


# --- corners ---------------------------------------------------------------

class TestCorners:
    def test_standard_pvt_set(self):
        resolved = corner_set("pvt")
        names = [corner.name for corner in resolved]
        assert names[0] == "TT"
        assert len(names) == 5 == len(set(names))

    def test_tt_corner_is_near_nominal(self):
        tt = corner_from_pvt(PvtPoint("TT"))
        assert all(factor == pytest.approx(1.0)
                   for factor in tt.factors.values())

    def test_hot_corner_raises_leakage(self):
        hot = corner_from_pvt(PvtPoint("hot", "ff", 1.1, 125.0))
        cold = corner_from_pvt(PvtPoint("cold", "ff", 1.1, -40.0))
        assert hot.factors["memory.leakage_power"] > 2.0
        assert cold.factors["memory.leakage_power"] < \
            hot.factors["memory.leakage_power"]

    def test_vmin_lowers_dynamic_energy(self):
        vmin = corner_from_pvt(PvtPoint("vmin", "tt", 0.9, 25.0))
        assert vmin.factors["compute.energy_per_mac"] == pytest.approx(0.81)

    def test_unknown_set_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown corner set"):
            corner_set("ptv")
        assert "pvt" in CORNER_SETS

    def test_corner_validation(self):
        with pytest.raises(ConfigurationError):
            Corner("bad", {"memory.leakage_power": 0.0})
        with pytest.raises(ConfigurationError):
            Corner("bad", {"memory.wat": 1.1})

    @pytest.mark.parametrize("factor", [math.inf, math.nan])
    def test_non_finite_corner_factor_rejected(self, factor):
        # An infinite corner used to come back "feasible" with an
        # infinite energy and a document json cannot write strictly.
        with pytest.raises(ConfigurationError, match="finite"):
            Corner("bad", {"memory.leakage_power": factor})


# --- distributions ---------------------------------------------------------

class TestDistribution:
    def test_quantile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert quantile(values, 0.5) == pytest.approx(2.5)
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 4.0

    def test_degenerate_sample_is_exact(self):
        dist = Distribution.from_values([0.125] * 9)
        assert dist.mean == 0.125 and dist.std == 0.0
        assert dist.quantiles["p95"] == 0.125

    def test_round_trip(self):
        dist = Distribution.from_values([1.0, 2.0, 5.0])
        assert Distribution.from_dict(dist.to_dict()) == dist


# --- ensemble runners ------------------------------------------------------

class TestMonteCarlo:
    def test_accounting_and_distributions(self, fig5_design):
        result = monte_carlo(fig5_design, SMALL_VARIATION,
                             samples=12, seed=1)
        assert result.accounting == {"total": 12, "ok": 12, "failed": 0}
        assert set(result.distributions) == set(DEFAULT_METRICS)
        dist = result.distributions["energy_per_frame"]
        assert dist.minimum <= dist.quantiles["p50"] <= dist.maximum

    def test_replays_bit_identically(self, fig5_design):
        first = monte_carlo(fig5_design, SMALL_VARIATION,
                            samples=10, seed=3)
        second = monte_carlo(fig5_design, SMALL_VARIATION,
                             samples=10, seed=3)
        assert first.to_json() == second.to_json()

    def test_thread_vs_process_executors_bit_identical(self, fig5_design):
        """Satellite: draws are pure in (seed, sample, param), so the
        executor fanning the ensemble out cannot change the document."""
        with Simulator(executor="thread") as threaded:
            first = monte_carlo(fig5_design, SMALL_VARIATION,
                                samples=6, seed=9, simulator=threaded)
        with Simulator(executor="process") as processed:
            second = monte_carlo(fig5_design, SMALL_VARIATION,
                                 samples=6, seed=9, simulator=processed)
        assert first.to_json() == second.to_json()

    def test_zero_variation_collapses_to_nominal(self, fig5_design):
        result = monte_carlo(fig5_design, default_variation(0.0),
                             samples=5, seed=2)
        for metric, dist in result.distributions.items():
            assert dist.std == 0.0
            assert dist.mean == result.nominal[metric]

    def test_warm_ensemble_hits_cache(self, fig5_design):
        with Simulator() as sim:
            monte_carlo(fig5_design, SMALL_VARIATION,
                        samples=6, seed=4, simulator=sim)
            cold_hits = sim.cache_info().hits
            monte_carlo(fig5_design, SMALL_VARIATION,
                        samples=6, seed=4, simulator=sim)
            assert sim.cache_info().hits >= cold_hits + 7

    def test_warm_replay_is_three_times_faster(self, edgaze_design):
        """A 256-sample Ed-Gaze study replayed on its session: every
        sample accounted for, every replay the same document with every
        unique key a hit, and the median of three replays >= 3x the cold
        throughput (one replay slowed by a busy host does not decide)."""

        def study(simulator):
            return monte_carlo(edgaze_design, default_variation(),
                               samples=256, seed=7,
                               metrics=["energy_per_frame",
                                        "power_density", "latency"],
                               simulator=simulator)

        warm_s = []
        with Simulator() as simulator:
            started = time.perf_counter()
            cold = study(simulator)
            cold_s = time.perf_counter() - started
            for _ in range(3):
                started = time.perf_counter()
                warm = study(simulator)
                warm_s.append(time.perf_counter() - started)
                warm_stats = simulator.last_batch_stats
                assert warm.to_json() == cold.to_json()
                assert warm_stats.cache_hits == warm_stats.unique

        assert cold.accounting == {"total": 256, "ok": 256, "failed": 0}
        assert cold.seed == 7 and cold.samples == 256
        assert cold_s / statistics.median(warm_s) >= 3.0

    def test_round_trip(self, fig5_design):
        result = monte_carlo(fig5_design, SMALL_VARIATION,
                             samples=4, seed=1)
        assert RobustResult.from_dict(result.to_dict()).to_json() == \
            result.to_json()

    def test_seed_changes_samples(self, fig5_design):
        first = monte_carlo(fig5_design, SMALL_VARIATION,
                            samples=8, seed=0)
        second = monte_carlo(fig5_design, SMALL_VARIATION,
                             samples=8, seed=1)
        assert first.distributions["energy_per_frame"] != \
            second.distributions["energy_per_frame"]

    def test_progress_and_cancel(self, fig5_design):
        calls = []
        monte_carlo(fig5_design, SMALL_VARIATION, samples=5, seed=1,
                    chunk_size=2,
                    on_progress=lambda *args: calls.append(args))
        assert calls[-1][0] == calls[-1][1] == 6
        from repro.explore import ExplorationInterrupted
        with pytest.raises(ExplorationInterrupted):
            monte_carlo(fig5_design, SMALL_VARIATION, samples=5, seed=1,
                        chunk_size=2, should_stop=lambda: True)


class TestCornersRunner:
    def test_bounds_name_responsible_corner(self, fig5_design):
        result = corners(fig5_design, "pvt")
        assert result.accounting["total"] == 5
        bound = result.bounds["energy_per_frame"]
        names = {outcome["corner"] for outcome in result.corners}
        assert bound["worst"]["corner"] in names | {"nominal"}
        assert bound["worst"]["value"] >= bound["best"]["value"]

    def test_explicit_corner_list(self, fig5_design):
        double = Corner("leaky", {"memory.leakage_power": 2.0})
        result = corners(fig5_design, [double])
        outcome = result.corners[0]
        assert outcome["corner"] == "leaky" and outcome["feasible"]

    def test_round_trip(self, fig5_design):
        result = corners(fig5_design, "pvt")
        assert RobustResult.from_dict(result.to_dict()).to_json() == \
            result.to_json()


class TestSensitivity:
    def test_leakage_raises_energy(self, edgaze_design):
        model = VariationModel(sigma={"memory.leakage_power": 0.1,
                                      "compute.clock_hz": 0.02})
        result = sensitivity(edgaze_design, model)
        rows = {row["param"]: row
                for row in result.sensitivities["energy_per_frame"]}
        assert rows["memory.leakage_power"]["elasticity"] > 0

    def test_rankings_stable_across_sessions(self, fig5_design):
        """Satellite: OAT excursions are seed-free central differences,
        so rankings cannot move between runs or (re)seedings."""
        first = sensitivity(fig5_design, SMALL_VARIATION)
        second = sensitivity(fig5_design, SMALL_VARIATION)
        assert first.to_json() == second.to_json()
        order = [row["param"]
                 for row in first.sensitivities["energy_per_frame"]]
        assert order == sorted(
            order,
            key=lambda param: -(abs(
                {r["param"]: r for r
                 in first.sensitivities["energy_per_frame"]}[param]
                ["elasticity"] or 0.0)))

    def test_ranks_are_one_based_and_dense(self, fig5_design):
        result = sensitivity(fig5_design, SMALL_VARIATION)
        for rows in result.sensitivities.values():
            assert [row["rank"] for row in rows] == \
                list(range(1, len(rows) + 1))


class TestWorstCase:
    def test_bounds_attach_synthetic_corners(self, fig5_design):
        result = worst_case(fig5_design, SMALL_VARIATION)
        bound = result.bounds["energy_per_frame"]
        assert bound["worst"]["corner"] == "worst:energy_per_frame"
        assert bound["worst"]["value"] >= result.nominal["energy_per_frame"]
        assert bound["best"]["value"] <= result.nominal["energy_per_frame"]
        factors = {outcome["corner"]: outcome["factors"]
                   for outcome in result.corners}
        assert "worst:energy_per_frame" in factors

    def test_nominal_failure_raises(self):
        # An absurd frame rate makes the nominal design infeasible.
        design = build_usecase("fig5")
        from repro.api.result import SimOptions
        with pytest.raises(SimulationError, match="infeasible"):
            monte_carlo(design, SMALL_VARIATION, samples=2,
                        options=SimOptions(frame_rate=1e9))


@pytest.mark.parametrize("usecase,params", [
    ("fig5", {}),
    ("edgaze", {"placement": "2D-In", "cis_node": 65}),
])
def test_worst_case_envelops_monte_carlo(usecase, params):
    """Satellite property: the directed worst/best bounds (evaluated at
    the truncation extremes) envelop any Monte Carlo ensemble of the
    same model on the standard usecases — the energy/latency models are
    monotone in every multiplicative parameter factor."""
    design = build_usecase(usecase, **params)
    with Simulator() as sim:
        bounds = worst_case(design, SMALL_VARIATION, simulator=sim)
        sampled = monte_carlo(design, SMALL_VARIATION, samples=48,
                              seed=17, simulator=sim)
        assert sampled.accounting["failed"] == 0
        for metric in DEFAULT_METRICS:
            dist = sampled.distributions[metric]
            worst = bounds.bounds[metric]["worst"]["value"]
            best = bounds.bounds[metric]["best"]["value"]
            lo, hi = sorted((worst, best))
            assert dist.maximum <= hi * (1 + 1e-9)
            assert dist.minimum >= lo * (1 - 1e-9)


def test_extreme_corners_envelop_monte_carlo():
    """Satellite property: the all-low/all-high box corners of the
    truncated model bound every sampled metric via ``corners()``."""
    design = build_usecase("edgaze", placement="2D-Off", cis_node=130)
    energy_only = VariationModel(sigma={
        param: sigma for param, sigma in SMALL_VARIATION.sigma.items()
        if param != "compute.clock_hz"})
    with Simulator() as sim:
        boxed = corners(design, energy_only.extreme_corners(),
                        metrics=["energy_per_frame"], simulator=sim)
        sampled = monte_carlo(design, energy_only, samples=32, seed=5,
                              metrics=["energy_per_frame"], simulator=sim)
        bound = boxed.bounds["energy_per_frame"]
        dist = sampled.distributions["energy_per_frame"]
        assert dist.maximum <= bound["worst"]["value"] * (1 + 1e-9)
        assert dist.minimum >= bound["best"]["value"] * (1 - 1e-9)


# --- robust exploration ----------------------------------------------------

class TestExploreRobust:
    def test_zero_variation_bit_identical_to_nominal(self):
        space = edgaze_space()
        metrics = ["energy_per_frame", "power_density", "latency"]
        with Simulator() as sim:
            for objectives, seed in (({}, 11), ({"objectives": metrics}, 7)):
                nominal = explore(space, "edgaze", simulator=sim,
                                  engine="object", **objectives)
                zero = explore_robust(space, "edgaze", **objectives,
                                      variation=default_variation(0.0),
                                      samples=3, seed=seed, simulator=sim,
                                      engine="object")
                assert nominal.to_json() == zero.to_json(), seed

    def test_statistics_shift_ranking_values(self):
        space = edgaze_space()
        with Simulator() as sim:
            robust = explore_robust(
                space, "edgaze",
                objectives=["energy_per_frame", "robust_yield"],
                variation=SMALL_VARIATION, samples=8, seed=2,
                statistic="p95", simulator=sim)
            nominal = explore(space, "edgaze",
                              objectives=["energy_per_frame"],
                              simulator=sim)
        by_params = {json.dumps(p.params, sort_keys=True): p
                     for p in nominal.points}
        for point in robust.points:
            key = json.dumps(point.params, sort_keys=True)
            assert point.metrics["robust_yield"] == 1.0
            # p95 of a spread ensemble sits above the sample median;
            # against the nominal it can go either way, but it must
            # stay within the truncated spread of it.
            assert point.metrics["energy_per_frame"] == pytest.approx(
                by_params[key].metrics["energy_per_frame"], rel=0.5)

    def test_worst_statistic_dominates_nominal(self):
        space = edgaze_space()
        with Simulator() as sim:
            worst = explore_robust(space, "edgaze",
                                   objectives=["energy_per_frame"],
                                   variation=SMALL_VARIATION, samples=6,
                                   seed=4, statistic="worst",
                                   simulator=sim)
            nom = explore(space, "edgaze",
                          objectives=["energy_per_frame"], simulator=sim)
        for robust_point, nominal_point in zip(worst.points, nom.points):
            assert robust_point.params == nominal_point.params
            assert robust_point.metrics["energy_per_frame"] >= \
                nominal_point.metrics["energy_per_frame"]

    def test_sample_axis_collision_rejected(self):
        from repro.explore.space import choice
        with pytest.raises(ConfigurationError, match="robust.sample"):
            explore_robust(choice(SAMPLE_AXIS, [1]), "fig5",
                           variation=default_variation())

    def test_builder_returning_no_design_is_infeasible(self):
        from repro.explore.space import choice

        def returns_none(**_):
            return None

        result = explore_robust(choice("x", [1]), returns_none,
                                objectives=["energy_per_frame"],
                                variation=default_variation(), samples=2)
        point, = result.points
        assert not point.feasible
        assert "builder" in point.failure and "returns_none" in point.failure
        assert "returned NoneType" in point.failure

    def test_bad_statistic_rejected(self):
        with pytest.raises(ConfigurationError, match="statistic"):
            explore_robust(edgaze_space(), "edgaze",
                           variation=default_variation(),
                           statistic="p999")

    def test_per_objective_statistics(self):
        space = edgaze_space()
        with Simulator() as sim:
            result = explore_robust(
                space, "edgaze",
                objectives=["energy_per_frame", "latency"],
                variation=SMALL_VARIATION, samples=5, seed=1,
                statistic={"latency": "worst"}, simulator=sim)
        assert all(point.feasible for point in result.points)


# --- specs, CLI, and the daemon -------------------------------------------

def _mc_spec_payload(samples=4):
    return {
        "schema": "repro.robust-spec/1",
        "kind": "monte_carlo",
        "usecase": "fig5",
        "variation": {"sigma": {"memory.leakage_power": 0.1}},
        "samples": samples,
        "seed": 2,
        "metrics": ["energy_per_frame"],
    }


class TestRobustSpec:
    def test_round_trip_all_kinds(self):
        specs = [
            _mc_spec_payload(),
            {"kind": "corners", "usecase": "fig5", "corners": "pvt"},
            {"kind": "sensitivity", "usecase": "fig5", "delta": 2.0,
             "variation": {"sigma": {"memory.leakage_power": 0.1}}},
            {"kind": "worst_case", "usecase": "fig5",
             "variation": {"sigma": {"memory.leakage_power": 0.1}}},
            {"kind": "explore", "usecase": "edgaze",
             "space": {"name": "cis_node", "values": [130, 65]},
             "variation": {"sigma": {"memory.leakage_power": 0.1}},
             "statistic": "p90", "samples": 3},
        ]
        for payload in specs:
            spec = robust_spec_from_dict(payload)
            again = robust_spec_from_dict(spec.to_dict())
            assert again.to_dict() == spec.to_dict()

    def test_unknown_keys_rejected(self):
        payload = _mc_spec_payload()
        payload["simga"] = {}
        with pytest.raises(SerializationError, match="unknown"):
            robust_spec_from_dict(payload)

    def test_usecase_xor_design(self):
        payload = _mc_spec_payload()
        del payload["usecase"]
        with pytest.raises(SerializationError, match="usecase"):
            robust_spec_from_dict(payload)

    def test_variation_required(self):
        payload = _mc_spec_payload()
        del payload["variation"]
        with pytest.raises(SerializationError, match="variation"):
            robust_spec_from_dict(payload)

    def test_infinite_corner_factor_rejected(self):
        payload = json.loads(
            '{"kind": "corners", "usecase": "fig5", "corners": [{"name": '
            '"x", "factors": {"memory.leakage_power": Infinity}}]}')
        with pytest.raises(ConfigurationError, match="finite"):
            robust_spec_from_dict(payload)

    def test_inline_design_payload(self, fig5_design):
        payload = _mc_spec_payload()
        del payload["usecase"]
        payload["design"] = fig5_design.to_dict()
        spec = robust_spec_from_dict(payload)
        assert spec.build_design().content_hash == fig5_design.content_hash

    def test_run_document_matches_runner(self, fig5_design):
        spec = robust_spec_from_dict(_mc_spec_payload())
        document = spec.run_document()
        direct = monte_carlo(
            fig5_design,
            VariationModel(sigma={"memory.leakage_power": 0.1}),
            samples=4, seed=2, metrics=["energy_per_frame"])
        assert document == direct.to_dict()

    def test_explore_kind_wraps_result(self):
        spec = robust_spec_from_dict({
            "kind": "explore", "usecase": "edgaze",
            "space": {"name": "cis_node", "values": [130, 65]},
            "variation": {"sigma": {"memory.leakage_power": 0.1}},
            "samples": 2, "seed": 1})
        document = spec.run_document()
        assert document["schema"] == "repro.robust/1"
        assert document["kind"] == "explore"
        assert document["result"]["schema"] == "repro.explore/1"
        assert len(document["result"]["points"]) == 2


class TestRobustCli:
    def test_cli_runs_spec(self, tmp_path, capsys):
        from repro.__main__ import main
        spec_path = tmp_path / "study.json"
        spec_path.write_text(json.dumps(_mc_spec_payload()))
        out_path = tmp_path / "result.json"
        code = main(["robust", str(spec_path), "-o", str(out_path),
                     "--samples", "3"])
        assert code == 0
        assert "monte_carlo study" in capsys.readouterr().out
        document = json.loads(out_path.read_text())
        assert document["schema"] == "repro.robust/1"
        assert document["accounting"] == {"total": 3, "ok": 3, "failed": 0}

    def test_cli_json_mode(self, tmp_path, capsys):
        from repro.__main__ import main
        spec_path = tmp_path / "study.json"
        spec_path.write_text(json.dumps(_mc_spec_payload(samples=2)))
        assert main(["robust", str(spec_path), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "monte_carlo"

    def test_cli_bad_spec(self, tmp_path, capsys):
        from repro.__main__ import main
        spec_path = tmp_path / "study.json"
        spec_path.write_text("{\"kind\": \"nope\"}")
        assert main(["robust", str(spec_path)]) == 1
        assert "cannot load spec" in capsys.readouterr().err

    def test_load_robust_spec(self, tmp_path):
        spec_path = tmp_path / "study.json"
        spec_path.write_text(json.dumps(_mc_spec_payload()))
        assert load_robust_spec(spec_path).kind == "monte_carlo"


class TestServeRobustJobs:
    def test_robust_job_kind_inferred_and_runs(self):
        from repro.serve.app import BackgroundServer
        with BackgroundServer(workers=1) as server:
            client = server.client()
            job = client.submit(_mc_spec_payload())
            assert job["kind"] == "robust"
            done = client.wait(job["id"])
            assert done["state"] == "done"
            assert done["progress"]["completed"] == \
                done["progress"]["total"] == 5
            result = client.result(job["id"])["result"]
            assert result["schema"] == "repro.robust/1"
            assert result["accounting"]["failed"] == 0

    def test_robust_envelope_kind(self):
        from repro.serve.app import BackgroundServer
        with BackgroundServer(workers=1) as server:
            client = server.client()
            job = client.submit(_mc_spec_payload(), kind="robust")
            assert client.wait(job["id"])["state"] == "done"

    def test_robust_job_replays_identically_across_restart(self, tmp_path):
        """Satellite: the journaled spec re-runs to a bit-identical
        document because every draw is seed-addressed."""
        from repro.serve.app import BackgroundServer
        journal = tmp_path / "journal"
        with BackgroundServer(workers=1,
                              journal_dir=str(journal)) as server:
            client = server.client()
            job = client.submit(_mc_spec_payload())
            client.wait(job["id"])
            first = client.result(job["id"])["result"]
        with BackgroundServer(workers=1,
                              journal_dir=str(journal)) as server:
            client = server.client()
            restored = client.result(job["id"])["result"]
            assert restored == first
            again = client.submit(_mc_spec_payload())
            client.wait(again["id"])
            assert client.result(again["id"])["result"] == first

    def test_bad_robust_spec_is_typed_400(self):
        from repro.serve.app import BackgroundServer
        from repro.serve.client import ServeError
        with BackgroundServer(workers=1) as server:
            client = server.client()
            bad = _mc_spec_payload()
            bad["variation"] = {"sigma": {"memory.wat": 0.1}}
            with pytest.raises(ServeError):
                client.submit(bad)

    def test_infinite_corner_factor_is_typed_400(self):
        from repro.serve.app import BackgroundServer
        from repro.serve.client import ServeError
        with BackgroundServer(workers=1) as server:
            client = server.client()
            with pytest.raises(ServeError) as excinfo:
                client.submit({"kind": "corners", "usecase": "fig5",
                               "corners": [{"name": "x", "factors": {
                                   "memory.leakage_power": math.inf}}]},
                              kind="robust")
            assert excinfo.value.status == 400
            assert excinfo.value.error_type == "ConfigurationError"
