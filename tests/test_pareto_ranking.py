"""Non-dominated sorting: the sorted-pass ranking against a peel oracle.

:func:`repro.explore.engine.dominance_ranks` ranks in one sorted pass
with a binary search over the fronts.  The reference below is the
straightforward definition it replaced: peel the non-dominated layer off
with an all-pairs :func:`dominates` scan, repeat.  Both must agree bit
for bit — ranks, frontier membership and frontier order — including on
NaN, signed zeros, infinities, exact duplicates and mixed goals.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

import repro.explore.engine as engine
from repro.exceptions import ConfigurationError
from repro.explore import (
    choice,
    dominance_ranks,
    dominates,
    explore,
    pareto_indices,
)
from repro.usecases.fig5 import build_fig5_design


def _has_nan(vector):
    return any(math.isnan(value) for value in vector)


def peel_ranks(vectors, goals):
    """Reference ranks: rank ``k`` is the frontier left after peeling
    ranks ``0..k-1``; NaN-containing vectors get ``None``."""
    ranks = [None] * len(vectors)
    remaining = [index for index, vector in enumerate(vectors)
                 if not _has_nan(vector)]
    rank = 0
    while remaining:
        layer = [index for index in remaining
                 if not any(dominates(vectors[other], vectors[index], goals)
                            for other in remaining)]
        assert layer, "dominance is a strict partial order"
        for index in layer:
            ranks[index] = rank
        remaining = [index for index in remaining if index not in layer]
        rank += 1
    return ranks


def peel_pareto_indices(vectors, goals):
    """Reference frontier: all-pairs scan, ordered by goal-adjusted
    vector with the index as the final tie-break."""
    front = [index for index, vector in enumerate(vectors)
             if not _has_nan(vector)
             and not any(dominates(other, vector, goals)
                         for other in vectors)]
    return sorted(front, key=lambda index: (
        tuple(-value if goal == "max" else value
              for value, goal in zip(vectors[index], goals)), index))


#: Values that stress the ordering: ties, signed zeros, infinities, NaN.
_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, math.inf,
                            -math.inf, math.nan])
_VALUE = st.one_of(_SPECIAL, st.integers(-3, 3).map(float),
                   st.floats(-10.0, 10.0))


@st.composite
def ranking_inputs(draw):
    """0-60 vectors of 1-4 objectives with mixed goals; drawn from a small
    pool so exact duplicates are common."""
    width = draw(st.integers(1, 4))
    goals = tuple(draw(st.lists(st.sampled_from(("min", "max")),
                                min_size=width, max_size=width)))
    pool = draw(st.lists(st.tuples(*[_VALUE] * width),
                         min_size=1, max_size=25))
    vectors = draw(st.lists(st.sampled_from(pool), max_size=60))
    return vectors, goals


class TestAgainstPeelOracle:
    @settings(max_examples=300, deadline=None)
    @given(ranking_inputs())
    def test_ranks_and_frontier_match_peel(self, case):
        vectors, goals = case
        assert dominance_ranks(vectors, goals) == peel_ranks(vectors, goals)
        assert pareto_indices(vectors, goals) \
            == peel_pareto_indices(vectors, goals)

    @settings(max_examples=150, deadline=None)
    @given(ranking_inputs(), st.randoms(use_true_random=False))
    def test_ranks_invariant_under_permutation(self, case, random):
        vectors, goals = case
        order = list(range(len(vectors)))
        random.shuffle(order)
        ranks = dominance_ranks(vectors, goals)
        shuffled = dominance_ranks([vectors[i] for i in order], goals)
        assert shuffled == [ranks[i] for i in order]

    def test_layered_example(self):
        vectors = [(3.0, 3.0), (1.0, 1.0), (2.0, 2.0), (1.0, 1.0),
                   (0.0, 4.0), (-0.0, 4.0), (math.inf, -math.inf)]
        goals = ("min", "min")
        assert dominance_ranks(vectors, goals) == [2, 0, 1, 0, 0, 0, 0]
        assert dominance_ranks(vectors, goals) == peel_ranks(vectors, goals)

    def test_max_goal_reverses_order(self):
        vectors = [(1.0,), (3.0,), (2.0,), (3.0,)]
        assert dominance_ranks(vectors, ("max",)) == [2, 0, 1, 0]
        assert pareto_indices(vectors, ("max",)) == [1, 3]


class TestRankingValidation:
    GOALS = ("min", "min")

    @pytest.mark.parametrize("goals", [("MAX", "min"), ("maximize", "min"),
                                       ("", "min")])
    def test_unknown_goal_rejected(self, goals):
        vectors = [(1.0, 1.0), (2.0, 2.0)]
        with pytest.raises(ConfigurationError):
            dominance_ranks(vectors, goals)
        with pytest.raises(ConfigurationError):
            pareto_indices(vectors, goals)

    @pytest.mark.parametrize("vectors", [[(1.0,)], [(1.0, 1.0), (1.0,)],
                                         [(1.0, 2.0, 3.0)],
                                         [(math.nan,), (1.0, 1.0)]])
    def test_length_mismatch_rejected(self, vectors):
        with pytest.raises(ConfigurationError):
            dominance_ranks(vectors, self.GOALS)
        with pytest.raises(ConfigurationError):
            pareto_indices(vectors, self.GOALS)


class TestDocumentRanksOnce:
    def test_to_dict_and_to_table_rank_once(self, monkeypatch):
        result = explore(
            choice("options.frame_rate", [15.0, 30.0, 60.0, 1e7]),
            build_fig5_design,
            objectives=("energy_per_frame", "power_density", "latency"))
        expected = result.to_dict()
        calls = []
        original = engine.dominance_ranks

        def counting(vectors, goals):
            calls.append(len(vectors))
            return original(vectors, goals)

        monkeypatch.setattr(engine, "dominance_ranks", counting)
        assert result.to_dict() == expected
        assert calls == [3]
        calls.clear()
        result.to_table()
        assert calls == [3]
        assert expected["frontier"] == result.frontier_indices()
