"""Golden-number regression guard.

The headline quantities the README reports for the paper's results
(PAPER.md: Fig. 7 validation, Fig. 9/11 use-case totals), pinned with
tolerances.  A model change that silently shifts a reproduced result
beyond its band fails here before it corrupts the documented record.

The bands check agreement with the paper; ``golden_digests.json`` pins
the exact bits of every report (see :func:`test_report_digest`).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import units
from repro.api import Simulator, build_usecase
from repro.energy.report import Category
from repro.usecases import (
    UseCaseConfig,
    edgaze_configs,
    rhythmic_configs,
    run_edgaze,
    run_edgaze_mixed,
    run_rhythmic,
)
from repro.usecases.fig5 import run_fig5
from repro.validation import ALL_CHIPS, run_chip, run_validation

_DIGESTS = Path(__file__).with_name("golden_digests.json")


def _usecase_report(name, **params):
    with Simulator(cache=False) as simulator:
        return simulator.run(build_usecase(name, **params)).unwrap()


def _golden_reports():
    """Name -> runner of every registered usecase's paper configurations
    (Fig. 5 among them) and of the nine Table 2 chips' validation
    reports."""
    grids = {
        "fig5": [{}],
        "rhythmic": [{"placement": c.placement, "cis_node": c.cis_node}
                     for c in rhythmic_configs()],
        "edgaze": [{"placement": c.placement, "cis_node": c.cis_node}
                   for c in edgaze_configs()],
        "edgaze_mixed": [{"cis_node": 130}, {"cis_node": 65}],
        "threelayer": [{}],
    }
    reports = {}
    for name, grid in grids.items():
        for params in grid:
            label = " ".join([name] + [f"{key}={value}" for key, value
                                       in sorted(params.items())])
            reports[label] = (
                lambda name=name, params=params:
                    _usecase_report(name, **params))
    for chip in ALL_CHIPS:
        reports[f"chip {chip.name}"] = (
            lambda chip=chip: run_chip(chip).report)
    return reports


_REPORTS = _golden_reports()


@pytest.mark.parametrize("name", sorted(_REPORTS))
def test_report_digest(name):
    """SHA-256 of the report's canonical JSON (sorted keys, no spaces)
    equals the recorded digest: any change to any bit of any energy,
    delay or entry shows here.  Update ``golden_digests.json`` only in
    a change meant to alter model output, and say so."""
    canonical = json.dumps(_REPORTS[name]().to_dict(), sort_keys=True,
                           separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    assert digest == json.loads(_DIGESTS.read_text())[name], digest


class TestFig5Goldens:
    def test_total_energy(self):
        report = run_fig5()
        assert report.total_energy == pytest.approx(30.9 * units.nJ,
                                                    rel=0.05)

    def test_digital_latency(self):
        report = run_fig5()
        assert report.digital_latency == pytest.approx(2.57 * units.us,
                                                       rel=0.02)


class TestValidationGoldens:
    @pytest.fixture(scope="class")
    def summary(self):
        return run_validation()

    def test_mape_band(self, summary):
        assert summary.mean_absolute_percentage_error \
            == pytest.approx(0.044, abs=0.02)

    def test_pearson_band(self, summary):
        assert summary.pearson_correlation > 0.9995

    def test_isscc17_estimate(self, summary):
        result = [r for r in summary.results
                  if r.chip.name == "ISSCC'17"][0]
        assert result.estimated_energy_per_pixel == pytest.approx(
            7949 * units.pJ, rel=0.05)

    def test_park_estimate(self, summary):
        result = [r for r in summary.results
                  if r.chip.name == "JSSC'21-II"][0]
        assert result.estimated_energy_per_pixel == pytest.approx(
            51 * units.pJ, rel=0.05)


class TestUseCaseGoldens:
    def test_rhythmic_totals(self):
        expected = {
            "2D-In (130nm)": 92.1,
            "2D-Off (130nm)": 113.0,
            "3D-In (130nm)": 67.9,
            "2D-In (65nm)": 78.2,
        }
        for label, total_uj in expected.items():
            placement, node = label.split(" (")
            config = UseCaseConfig(placement, int(node[:-3]))
            report = run_rhythmic(config)
            assert report.total_energy == pytest.approx(
                total_uj * units.uJ, rel=0.05), label

    def test_edgaze_totals(self):
        expected = {
            "2D-In (65nm)": 235.5,
            "2D-Off (65nm)": 79.1,
            "3D-In (65nm)": 73.0,
            "3D-In-STT (65nm)": 34.1,
            "2D-In (130nm)": 167.6,
        }
        for label, total_uj in expected.items():
            placement, node = label.split(" (")
            config = UseCaseConfig(placement, int(node[:-3]))
            report = run_edgaze(config)
            assert report.total_energy == pytest.approx(
                total_uj * units.uJ, rel=0.05), label

    def test_edgaze_memory_share(self):
        report = run_edgaze(UseCaseConfig("2D-In", 65))
        share = report.category_energy(Category.MEM_D) / report.total_energy
        assert share == pytest.approx(0.734, abs=0.05)

    def test_mixed_totals(self):
        assert run_edgaze_mixed(65).total_energy == pytest.approx(
            115.2 * units.uJ, rel=0.05)
        assert run_edgaze_mixed(130).total_energy == pytest.approx(
            137.4 * units.uJ, rel=0.05)


# --- repro.explore/1 documents ----------------------------------------------

_OBJECTIVES = ("energy_per_frame", "power_density", "latency")


def _canary_document():
    """perfbench's explore canary: a 128-point grid on the vector path."""
    from repro.explore import choice, explore, linspace, product
    space = product(
        choice("placement", ["2D-In", "2D-Off", "3D-In", "3D-In-STT"]),
        choice("cis_node", [130, 65]),
        linspace("options.frame_rate", 15.0, 480.0, 16))
    with Simulator() as simulator:
        return explore(space, "edgaze", objectives=_OBJECTIVES,
                       simulator=simulator).to_json()


def _example_document():
    """``examples/explore_edgaze.json``: eight designs, object path."""
    from repro.explore import load_exploration_spec
    spec = load_exploration_spec(Path(__file__).parent.parent / "examples"
                                 / "explore_edgaze.json")
    with Simulator() as simulator:
        return spec.run(simulator).to_json()


def _mixed_document():
    """Vector groups whose fastest frame rates miss the frame budget,
    interleaved by the outer frame-rate axis, a builder failure, and no
    bottleneck annotation."""
    from repro.exceptions import ConfigurationError
    from repro.explore import choice, explore, product

    def builder(placement, cis_node):
        if placement == "bogus":
            raise ConfigurationError("no such placement: 'bogus'")
        return build_usecase("edgaze", placement=placement,
                             cis_node=cis_node)

    space = product(choice("options.frame_rate", [30.0, 240.0, 1e5, 1e7]),
                    choice("placement", ["2D-In", "bogus", "3D-In"]),
                    choice("cis_node", [65]))
    with Simulator() as simulator:
        return explore(space, builder, objectives=_OBJECTIVES,
                       simulator=simulator, name="mixed",
                       annotate=False).to_json()


def _robust_document():
    """The ``result`` of a robust explore spec (p90 over 3 samples)."""
    from repro.robust import robust_spec_from_dict
    spec = robust_spec_from_dict({
        "kind": "explore", "usecase": "edgaze",
        "space": {"product": [{"name": "placement",
                               "values": ["2D-In", "3D-In"]},
                              {"name": "cis_node", "values": [130, 65]}]},
        "variation": {"sigma": {"memory.leakage_power": 0.1,
                                "analog.vdda": 0.02}},
        "statistic": "p90", "samples": 3, "seed": 5})
    with Simulator() as simulator:
        return spec.run(simulator).to_json()


_EXPLORE_DOCUMENTS = {
    "explore canary": _canary_document,
    "explore example": _example_document,
    "explore mixed": _mixed_document,
    "explore robust": _robust_document,
}


@pytest.mark.parametrize("name", sorted(_EXPLORE_DOCUMENTS))
def test_explore_document_digest(name):
    """SHA-256 of a ``repro.explore/1`` document as ``to_json()`` writes
    it (indent 2, sorted keys): the writer's bytes are pinned, not just
    the values they encode."""
    document = _EXPLORE_DOCUMENTS[name]()
    digest = hashlib.sha256(document.encode("utf-8")).hexdigest()
    assert digest == json.loads(_DIGESTS.read_text())[name], digest
