"""One summation order on every supported Python.

CPython >= 3.12 compensates builtin ``sum`` over floats (Neumaier); 3.10
and 3.11 add left to right.  The model reduces through
``repro.columns.total``, a plain left fold (builtin ``sum`` before
3.12, where it is one), so a design has the same bits on every
interpreter.  These tests pin the fold, keep builtin
``sum`` out of the model packages, and check the scalar Monte Carlo
canary against the digest the benchmark recorded.
"""

import ast
import hashlib
import json
import pathlib
import random

import pytest

import repro.robust
from repro.api import Simulator, build_usecase
from repro.columns import _left_fold, total

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Packages holding the energy/area/timing model and its statistics.
#: Infrastructure (api, exec, explore, serve, resilience, the CLI) only
#: counts things and is not scanned.
MODEL_PACKAGES = ("area", "energy", "hw", "memlib", "noise", "robust", "sim",
                  "survey", "sw", "tech", "usecases", "validation")


@pytest.mark.parametrize("fold", [total, _left_fold],
                         ids=["total", "left_fold"])
class TestLeftFold:
    def test_adds_left_to_right_without_compensation(self, fold):
        # A compensated sum recovers the 1.0; a left fold loses it.
        assert fold([1e16, 1.0, -1e16]) == 0.0

    def test_empty_is_int_zero_like_builtin_sum(self, fold):
        assert fold([]) == 0 and type(fold([])) is int
        assert fold(iter(())) == 0

    def test_integer_sums_stay_integers(self, fold):
        assert fold(range(5)) == 10 and type(fold(range(5))) is int

    def test_matches_an_explicit_loop(self, fold):
        rng = random.Random(7)
        for _ in range(200):
            values = [rng.choice((1, -3, 2 ** 60)) if rng.random() < 0.1
                      else rng.uniform(-1, 1) * 10 ** rng.randint(-20, 20)
                      for _ in range(rng.randint(1, 30))]
            expected = 0
            for value in values:
                expected = expected + value
            assert fold(values) == expected


def _bare_sum_calls(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "sum"]


def test_model_packages_call_no_builtin_sum():
    files = [SRC / "columns.py", SRC / "units.py"]
    for package in MODEL_PACKAGES:
        files.extend(sorted((SRC / package).rglob("*.py")))
    offenders = {str(path.relative_to(SRC)): lines for path in files
                 for lines in [_bare_sum_calls(path)] if lines}
    assert not offenders, (
        f"builtin sum() in model code (use repro.columns.total): "
        f"{offenders}")


def test_scalar_robust_canary_matches_recorded_digest():
    """perfbench's ``robust`` canary: scalar engine only, no NumPy."""
    recorded = json.loads(
        (ROOT / "perfbench" / "digests.json").read_text())["robust"]
    design = build_usecase("edgaze", placement="2D-In", cis_node=65)
    with Simulator() as sim:
        document = repro.robust.monte_carlo(
            design, repro.robust.default_variation(), samples=64,
            seed=424242, simulator=sim).to_json()
    assert hashlib.sha256(document.encode("utf-8")).hexdigest() == recorded
