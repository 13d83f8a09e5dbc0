"""Exploration-engine benchmark: points/sec through ``run_many``.

Drives the Ed-Gaze product space (Fig. 9b), widened by a frame-rate
axis to a few hundred points, through :func:`repro.explore.explore`
twice against one simulator session — a cold pass that simulates every
distinct design and a warm pass that must be served entirely from the
content-hash result cache — and records exploration throughput plus
the cache hit rate as machine-readable ``BENCH_explore.json``.

The engine is pinned to ``"object"`` so this baseline keeps measuring
the per-point path as the space grows; ``bench_vector.py`` measures
the vectorized fast path against it.

The cold result's ``to_json()`` — Pareto frontier, dominance ranks and
the ``repro.explore/1`` encode — is timed as ``document_ms``.

``REPRO_BENCH_SMOKE=1`` shrinks the space to one CIS node and two
frame rates and drops the wall-clock assertions; cache-effectiveness
claims are asserted structurally in both modes.
"""

import time

from repro.api import Simulator
from repro.explore import choice, explore, linspace, product

#: The three objectives the Sec. 6 exploration trades off.
_OBJECTIVES = ("energy_per_frame", "power_density", "latency")


def _space(smoke: bool):
    nodes = [65] if smoke else [130, 65]
    # Every Ed-Gaze design fits its digital pipeline below ~509 FPS, so
    # the whole frame-rate axis stays feasible.
    rates = linspace("options.frame_rate", 15.0, 480.0,
                     2 if smoke else 32)
    return product(
        choice("placement", ["2D-In", "2D-Off", "3D-In", "3D-In-STT"]),
        choice("cis_node", nodes), rates)


def _explore_fresh(space):
    return explore(space, "edgaze", objectives=_OBJECTIVES,
                   engine="object")


def test_explore_throughput(benchmark, write_result, write_bench_json,
                            bench_smoke):
    space = _space(bench_smoke)
    simulator = Simulator()

    started = time.perf_counter()
    cold = explore(space, "edgaze", objectives=_OBJECTIVES,
                   simulator=simulator, engine="object")
    cold_s = time.perf_counter() - started

    started = time.perf_counter()
    warm = explore(space, "edgaze", objectives=_OBJECTIVES,
                   simulator=simulator, engine="object")
    warm_s = time.perf_counter() - started
    warm_stats = simulator.last_batch_stats

    # The benchmarked quantity: a cold exploration with a fresh session.
    benchmark.pedantic(_explore_fresh, args=(space,), rounds=3,
                       iterations=1)

    points = len(cold.points)
    assert points == len(space)
    assert len(cold.feasible_points) == points
    assert len(cold.frontier()) >= 1
    assert all(point.bottleneck is not None
               for point in cold.feasible_points)
    # Warm pass: identical result, entirely cache-served, no pool.  The
    # cold document build (Pareto frontier, ranks, JSON) is timed too.
    started = time.perf_counter()
    document = cold.to_json()
    document_s = time.perf_counter() - started
    assert warm.to_json() == document
    assert warm_stats.cache_hits == warm_stats.unique
    assert warm_stats.workers_used == 0

    cache = simulator.cache_info()
    hit_rate = cache.hits / (cache.hits + cache.misses)
    cold_rate = points / cold_s if cold_s else float("inf")
    warm_rate = points / warm_s if warm_s else float("inf")

    lines = ["Exploration engine — Ed-Gaze space through run_many",
             f"{'points':<28} {points}",
             f"{'objectives':<28} {len(_OBJECTIVES)}",
             f"{'frontier size':<28} {len(cold.frontier())}",
             f"{'cold wall-clock':<28} {cold_s * 1e3:8.2f} ms  "
             f"({cold_rate:.1f} points/s)",
             f"{'warm wall-clock':<28} {warm_s * 1e3:8.2f} ms  "
             f"({warm_rate:.1f} points/s)",
             f"{'document (to_json)':<28} {document_s * 1e3:8.2f} ms",
             f"{'cache hit rate':<28} {hit_rate:.2f}"]
    write_result("explore", "\n".join(lines))

    benchmark.extra_info["points_per_s_cold"] = round(cold_rate, 1)
    benchmark.extra_info["points_per_s_warm"] = round(warm_rate, 1)
    benchmark.extra_info["cache_hit_rate"] = round(hit_rate, 3)

    write_bench_json("explore", {
        "points": points,
        "objectives": list(_OBJECTIVES),
        "frontier_size": len(cold.frontier()),
        "infeasible_points": len(cold.infeasible_points),
        "cold_wall_s": cold_s,
        "warm_wall_s": warm_s,
        "document_ms": document_s * 1e3,
        "points_per_s_cold": cold_rate,
        "points_per_s_warm": warm_rate,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_hit_rate": hit_rate,
    })

    if not bench_smoke:  # smoke jobs never fail on wall-clock noise
        # A warm exploration re-simulates nothing; it must not be slower
        # than the cold pass by more than measurement noise.
        assert warm_s <= cold_s + 0.25
