"""The options checks, for one value or a column of them.

:class:`SimOptions` and :class:`OptionColumns` share one table of
checks: a column of option values fails each row exactly as
``SimOptions(...)`` of that row does, and a frame rate (or exposure
slot count) too large for a float is a typed error on every ingress.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.__main__ import main
from repro.api import SimOptions, Simulator, build_usecase
from repro.api.result import OptionColumns
from repro.exceptions import ConfigurationError
from repro.explore import choice, explore, product
from repro.serve import BackgroundServer, ServeError
from repro.usecases.fig5 import build_fig5_design

HUGE = 10 ** 400
HUGE_MESSAGE = ("frame rate must fit a float, got an integer of "
                f"{HUGE.bit_length()} bits")

_VALUES = {
    "frame_rate": [30.0, 60, "fast", [1.0], -2.0, math.nan, True, HUGE,
                   -HUGE, 0, math.inf, None, 2 ** 1024 - 1, 1e308],
    "exposure_slots": [1, 3, 0, 2.5, -3, True, HUGE, "2", None],
    "cycle_accurate": [False, True, "no", 0, None],
    "skip_checks": [False, True, "no", 1],
}


def _outcome(base, row):
    """What ``SimOptions`` makes of one row over ``base``."""
    try:
        SimOptions(**{**base.to_dict(), **row})
    except ConfigurationError as error:
        return str(error)
    return None


@st.composite
def _columns(draw):
    size = draw(st.integers(1, 6))
    names = draw(st.lists(st.sampled_from(sorted(_VALUES)), unique=True))
    return size, {name: draw(st.lists(st.sampled_from(_VALUES[name]),
                                      min_size=size, max_size=size))
                  for name in names}


class TestOneTableOfChecks:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_columns(), st.sampled_from([SimOptions(),
                                        SimOptions(frame_rate=60.0,
                                                   exposure_slots=2,
                                                   skip_checks=True)]))
    def test_a_column_fails_each_row_as_simoptions_does(self, drawn, base):
        size, columns = drawn
        errors = OptionColumns(base, columns, size).errors()
        for row in range(size):
            values = {name: column[row] for name, column in columns.items()}
            error = errors.get(row)
            assert (None if error is None else str(error)) \
                == _outcome(base, values), values
            assert error is None or type(error) is ConfigurationError

    def test_rows_build_their_options_on_demand(self):
        options = OptionColumns(SimOptions(skip_checks=True),
                                {"frame_rate": [15.0, 30.0, 60.0]}, 3)
        assert options[1] == SimOptions(frame_rate=30.0, skip_checks=True)
        assert options.values("exposure_slots") == [1, 1, 1]
        assert options.take(range(1, 3)) == OptionColumns(
            SimOptions(skip_checks=True), {"frame_rate": [30.0, 60.0]}, 2)
        assert options.take([2, 0]).values("frame_rate") == [60.0, 15.0]
        assert OptionColumns(SimOptions(), {}, 2)[1] == SimOptions()


class TestTooLargeForAFloat:
    """A rate (or slot count) past the float range is rejected by the
    options checks, never an ``OverflowError`` from the engine."""

    @pytest.mark.parametrize("build", [
        lambda: SimOptions(frame_rate=HUGE),
        lambda: SimOptions().replace(frame_rate=HUGE),
        lambda: SimOptions.from_dict({"frame_rate": HUGE}),
        lambda: Simulator().run(build_usecase("edgaze"),
                                SimOptions(frame_rate=HUGE)),
    ], ids=["init", "replace", "from_dict", "run"])
    def test_options_reject_it(self, build):
        with pytest.raises(ConfigurationError) as excinfo:
            build()
        assert str(excinfo.value) == HUGE_MESSAGE

    def test_exposure_slots_are_checked_too(self):
        with pytest.raises(ConfigurationError,
                           match="exposure slots must fit a float"):
            SimOptions(exposure_slots=HUGE)

    @pytest.mark.parametrize("fields, message", [
        ({"frame_rate": -HUGE}, f"frame rate must be positive, got {-HUGE}"),
        ({"exposure_slots": -HUGE},
         f"exposure slots must be >= 1, got {-HUGE}"),
        ({"frame_rate": HUGE, "exposure_slots": 0},
         "exposure slots must be >= 1, got 0"),
    ], ids=["negative-rate", "negative-slots", "huge-rate-zero-slots"])
    def test_a_value_the_sign_checks_reject_keeps_their_message(
            self, fields, message):
        """The range checks run last: only a huge value that passes the
        sign checks gets the range message."""
        with pytest.raises(ConfigurationError) as excinfo:
            SimOptions(**fields)
        assert str(excinfo.value) == message
        errors = OptionColumns(SimOptions(), {
            name: [value] for name, value in fields.items()}, 1).errors()
        assert str(errors[0]) == message

    def test_both_engines_make_it_one_infeasible_point(self):
        space = choice("options.frame_rate", [30.0, HUGE])
        documents = []
        for engine in ("vector", "object"):
            result = explore(space, "edgaze", engine=engine)
            assert [point.feasible for point in result.points] \
                == [True, False]
            failed = result.points[1]
            assert failed.failure_type == "ConfigurationError"
            assert failed.failure == HUGE_MESSAGE
            document = result.to_dict()
            document.pop("engines")
            documents.append(json.dumps(document, sort_keys=True))
        assert documents[0] == documents[1]

    def test_cli_run_prints_the_typed_message(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"design": {"usecase": "fig5"},
                                    "options": {"frame_rate": HUGE}}))
        assert len(str(HUGE)) == 401
        assert main(["run", str(spec)]) == 1
        err = capsys.readouterr().err
        assert "cannot load spec" in err and HUGE_MESSAGE in err
        assert "Traceback" not in err

    def test_serve_rejects_a_run_and_explores_past_it(self):
        with BackgroundServer(workers=1) as server, server.client() as client:
            with pytest.raises(ServeError) as excinfo:
                client.submit({"design": {"usecase": "fig5"},
                               "options": {"frame_rate": HUGE}})
            assert excinfo.value.status == 400
            assert excinfo.value.error_type == "ConfigurationError"
            assert HUGE_MESSAGE in excinfo.value.message
            job = client.submit({
                "schema": "repro.explore-spec/1", "usecase": "fig5",
                "space": {"name": "options.frame_rate",
                          "values": [30.0, HUGE]},
                "objectives": ["energy_per_frame"]})
            assert client.wait(job["id"], timeout=60.0)["state"] == "done"
            points = client.result(job["id"])["result"]["points"]
        assert [point["feasible"] for point in points] == [True, False]
        assert points[1]["failure"] == {"type": "ConfigurationError",
                                        "message": HUGE_MESSAGE}


class TestColumnsAgainstTheObjectEngine:
    def test_bad_option_columns_fail_as_object_points_do(self):
        """Each invalid row is one typed failure, the same on both
        engines; ``[1.0]`` is unhashable."""
        space = product(
            choice("options.frame_rate", [30.0, "fast", [1.0], -2.0,
                                          math.nan, True, HUGE, 60.0]),
            choice("options.exposure_slots", [1, 0, 2.5]),
            choice("options.skip_checks", [False, "no"]))
        results = {engine: explore(space, build_fig5_design, engine=engine)
                   for engine in ("vector", "object")}
        assert results["vector"].engines == {"vectorized": 2, "fallback": 0}
        outcomes = []
        documents = []
        for result in results.values():
            outcomes.append([(point.feasible, point.failure_type,
                              point.failure) for point in result.points])
            document = result.to_dict()
            document.pop("engines")
            documents.append(json.dumps(document, sort_keys=True))
        assert outcomes[0] == outcomes[1]
        assert documents[0] == documents[1]
        # Every row SimOptions rejects fails with its message.
        for point, (feasible, failure_type, failure) in zip(
                results["vector"].points, outcomes[0]):
            options = {name[len("options."):]: value
                       for name, value in point.params.items()}
            expected = _outcome(SimOptions(), options)
            assert failure == expected
            assert feasible == (expected is None)
            assert failure_type == (None if feasible
                                    else "ConfigurationError")
