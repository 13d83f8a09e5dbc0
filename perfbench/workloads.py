"""One benchmark workload, run in a fresh Python process.

``run.py`` starts this script once per run (and several more times with
``--setup-only`` to time set-up).  It prints one JSON line: the figures
of its timed rounds, the output checks it made, and, with ``--trace 1``,
the per-layer figures of its traced rounds.  See README.md for what each
workload loads.

    PYTHONPATH=src python3 perfbench/workloads.py --workload monte-carlo \
        --seed 1 --seconds 10 --trace 0
    PYTHONPATH=src python3 perfbench/workloads.py --record-digests
"""

import argparse
import gc
import hashlib
import http.client
import json
import os
import pathlib
import random
import resource
import statistics
import subprocess
import sys
import time

_started = time.perf_counter()
import repro  # noqa: E402
import repro.explore  # noqa: E402
import repro.explore.vector  # noqa: E402
import repro.robust  # noqa: E402
from repro.api import Design, SimOptions, Simulator, build_usecase  # noqa: E402
from repro.explore import choice, linspace, product  # noqa: E402
from repro.serve import ServeClient  # noqa: E402
from repro.serve.client import TERMINAL_STATE_NAMES  # noqa: E402
from repro.validation import run_validation  # noqa: E402
IMPORT_S = time.perf_counter() - _started

from hostref import normalized, reference_s  # noqa: E402
from run import stop  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
clock = time.perf_counter

OBJECTIVES = ("energy_per_frame", "power_density", "latency")
PLACEMENTS = ["2D-In", "2D-Off", "3D-In", "3D-In-STT"]
NODES = [130, 65]
#: Keys of a serve /result envelope that differ between identical runs.
VOLATILE = {"elapsed_s", "cached", "id"}


# --- output oracle ----------------------------------------------------------

def digest(document):
    """SHA-256 of a JSON value in canonical form (or of a JSON string)."""
    if not isinstance(document, str):
        document = json.dumps(document, sort_keys=True,
                              separators=(",", ":"))
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def strip_volatile(value):
    """``value`` without timing, cache-tier and job-id fields."""
    if isinstance(value, dict):
        return {key: strip_volatile(item) for key, item in value.items()
                if key not in VOLATILE}
    if isinstance(value, list):
        return [strip_volatile(item) for item in value]
    return value


def points_digest(result):
    return digest([point.to_dict() for point in result.points])


def explore_canary():
    """The ``repro.explore/1`` document of a fixed 128-point grid."""
    space = product(choice("placement", PLACEMENTS), choice("cis_node", NODES),
                    linspace("options.frame_rate", 15.0, 480.0, 16))
    with Simulator() as sim:
        return digest(repro.explore.explore(
            space, "edgaze", objectives=OBJECTIVES, simulator=sim).to_json())


def robust_canary():
    """The ``repro.robust/1`` document of a fixed 64-sample study."""
    design = build_usecase("edgaze", placement="2D-In", cis_node=65)
    with Simulator() as sim:
        return digest(repro.robust.monte_carlo(
            design, repro.robust.default_variation(), samples=64,
            seed=424242, simulator=sim).to_json())


def serve_canary_specs():
    design = build_usecase("edgaze", placement="3D-In", cis_node=65)
    return {"serve_run": {"design": design.to_dict(),
                          "options": {"frame_rate": 30.0}},
            "serve_explore": explore_spec(30.0)}


def explore_spec(frame_rate):
    """An explore-spec job shaped like examples/explore_edgaze.json."""
    return {"schema": "repro.explore-spec/1", "name": "edgaze-mix",
            "usecase": "edgaze",
            "space": {"product": [{"name": "placement", "values": PLACEMENTS},
                                  {"name": "cis_node", "values": NODES}]},
            "objectives": list(OBJECTIVES),
            "options": {"frame_rate": frame_rate}}


def recorded(name):
    return json.loads(DIGESTS.read_text())[name]


# --- shared measurement helpers --------------------------------------------

class Checks:
    """Operations attempted and failed (a wrong output is a failure)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, count, ok, note):
        self.attempted += count
        if not ok:
            self.fail(count, note)

    def fail(self, count, note):
        """Mark ``count`` operations already attempted as failed."""
        self.failed += count
        self.notes.append(note)


def timed(tracer, span_name, fn, /, *args):
    """``fn(*args)`` timed after a collection and a host-speed kernel run:
    (result, seconds, kernel seconds)."""
    gc.collect()
    reference = reference_s()
    started = clock()
    result = tracer.call(span_name, fn, *args)
    return result, clock() - started, reference


def percentile(values, level):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[level - 1]


def frame_rates(seed, count):
    """A seed-shifted frame-rate axis; every Ed-Gaze design meets it."""
    shift = random.Random(seed).uniform(0.0, 10.0)
    return linspace("options.frame_rate", 15.0 + shift, 470.0 + shift, count)


# --- explore-grid and explore-document ---------------------------------------

class ExploreWorkload:
    """Cold explore() passes on fresh sessions, then a warm replay."""

    def __init__(self, seed, rates, document, cold_passes):
        self.space = product(choice("placement", PLACEMENTS),
                             choice("cis_node", NODES),
                             frame_rates(seed, rates))
        self.items = len(self.space)
        self.document = document
        self.cold_passes = cold_passes
        build_usecase("edgaze", placement="2D-In", cis_node=65)
        self.reference = None
        self.cold_points = None
        self.last_document = None
        self.checks = Checks()

    def _pass(self, sim):
        result = repro.explore.explore(self.space, "edgaze",
                                       objectives=OBJECTIVES, simulator=sim)
        return result, (result.to_json() if self.document else None)

    def _same(self, result, document):
        """Whether a pass reproduced the first cold pass of this process."""
        if self.document:
            if self.reference is None:
                self.reference = self.last_document = document
            return document == self.reference
        if self.reference is None:
            self.reference = points_digest(result)
            self.cold_points = result.points
            return True
        # Equal points are the fast check; warm points also carry their
        # report, so they are compared by digest.
        return result.points == self.cold_points \
            or points_digest(result) == self.reference

    def sample(self, seconds, tracer):
        """One round: cold passes, the last one replayed warm.

        ``seconds`` is unused: a round is the unit of work.
        """
        cold_s, cold_ref = [], []
        lowered = repro.explore.vector._lowered_cache
        for _ in range(self.cold_passes):
            sim = Simulator()
            # The kernels lowered per design are memoized for the whole
            # process; a cold pass must lower its own.
            with repro.explore.vector._lowered_lock:
                lowered.clear()
            (cold, document), seconds, reference = timed(
                tracer, "op.cold", self._pass, sim)
            cold_s.append(seconds)
            cold_ref.append(reference)
            info = sim.cache_info()
            # Cold means no cache hit, every point on the vector engine,
            # and each of the 8 designs lowered in this pass.
            self.checks.add(self.items, info.hits == 0
                            and cold.engines["fallback"] == 0
                            and cold.engines["vectorized"] == self.items
                            and len(lowered) == len(PLACEMENTS) * len(NODES)
                            and self._same(cold, document),
                            f"cold pass: {info}, {cold.engines}, "
                            f"{len(lowered)} designs lowered")
            # Nothing of this pass may stay alive into the next one: live
            # objects make every collection inside the next pass slower.
            cold = document = None
            if len(cold_s) < self.cold_passes:
                sim.close()
        (warm, document), warm_s, warm_ref = timed(
            tracer, "op.warm", self._pass, sim)
        final = sim.cache_info()
        sim.close()
        self.checks.add(self.items, self._same(warm, document)
                        and final.hits - info.hits == self.items,
                        f"warm replay: {final}")
        return {"cold_s": cold_s, "cold_ref": cold_ref, "warm_s": [warm_s],
                "warm_ref": [warm_ref], "items": self.items,
                "hits": final.hits, "misses": final.misses}

    def warmup(self):
        """Check the canary document; it also loads every lazy part."""
        self.checks.add(1, explore_canary() == recorded("explore"),
                        "explore canary digest mismatch")

    def verify(self):
        if self.cold_points is None:
            return
        # The vector engine must return the object engine's bits: re-run
        # 8 of the 1250 frame rates on every design through the object path.
        by_params = {json.dumps(point.params, sort_keys=True): point
                     for point in self.cold_points}
        rates = sorted({point.params["options.frame_rate"]
                        for point in self.cold_points})[::156]
        space = product(choice("placement", PLACEMENTS),
                        choice("cis_node", NODES),
                        choice("options.frame_rate", rates))
        with Simulator() as sim:
            scalar = repro.explore.explore(space, "edgaze",
                                           objectives=OBJECTIVES,
                                           simulator=sim, engine="object")
        same = all(
            digest(point.to_dict()) == digest(
                by_params[json.dumps(point.params, sort_keys=True)].to_dict())
            for point in scalar.points)
        self.checks.add(len(scalar.points), same,
                        "vector points differ from the object engine")


# --- monte-carlo ---------------------------------------------------------------

class MonteCarloWorkload:
    """A 512-sample study under a never-seen seed, then warm replays."""

    SAMPLES = 512
    WARM_REPLAYS = 3
    MEMOIZED = ("timeline", "analog_usage", "comm_energy")

    def __init__(self, seed):
        self.variation = repro.robust.default_variation()
        self.next_seed = seed * 100003 + 1
        self.nominal = None
        self.checks = Checks()
        build_usecase("edgaze", placement="2D-In", cis_node=65)

    def _study(self, sim, design, seed):
        return repro.robust.monte_carlo(design, self.variation,
                                        samples=self.SAMPLES, seed=seed,
                                        simulator=sim)

    def sample(self, seconds, tracer):
        """One round: a cold study and three warm replays.

        ``seconds`` is unused: a round is the unit of work.
        """
        # A fresh nominal design and a fresh seed: no pass memo and no
        # perturbed design of an earlier study can be reused.
        design = build_usecase("edgaze", placement="2D-In", cis_node=65)
        seed, self.next_seed = self.next_seed, self.next_seed + 1
        sim = Simulator()
        cold, cold_s, cold_ref = timed(tracer, "op.cold", self._study,
                                       sim, design, seed)
        info, passes = sim.cache_info(), sim.pass_info()
        designs = self.SAMPLES + 1
        # Cold means no cache hit and each memoized pass run once for
        # every design: a reused process-level memo invalidates the round.
        self.checks.add(self.SAMPLES, info.hits == 0 and all(
            passes.get(name) == designs for name in self.MEMOIZED)
            and cold.accounting["total"] == self.SAMPLES
            and cold.nominal == (self.nominal or cold.nominal),
            f"cold study: {info}, {passes}")
        self.nominal = cold.nominal
        document = cold.to_json()
        warm_s, warm_ref = [], []
        for _ in range(self.WARM_REPLAYS):
            before = sim.cache_info().hits
            warm, seconds, reference = timed(tracer, "op.warm", self._study,
                                             sim, design, seed)
            warm_s.append(seconds)
            warm_ref.append(reference)
            self.checks.add(self.SAMPLES, warm.to_json() == document
                            and sim.cache_info().hits - before == designs,
                            "warm replay differs from the cold study")
        final = sim.cache_info()
        sim.close()
        return {"cold_s": [cold_s], "cold_ref": [cold_ref], "warm_s": warm_s,
                "warm_ref": warm_ref, "items": self.SAMPLES,
                "hits": final.hits, "misses": final.misses}

    def warmup(self):
        """Check the canary study; it also loads every lazy part."""
        self.checks.add(1, robust_canary() == recorded("robust"),
                        "robust canary digest mismatch")

    def verify(self):
        pass


# --- serve-mixed ---------------------------------------------------------------

#: Jobs are timed in windows of this many seconds, each opened by a
#: host-speed kernel run (a run before every ~5 ms job would dominate).
WINDOW_S = 0.25

#: The fixed job mix, repeated.  The proportions are a choice, not measured
#: traffic (see README.md): each cold run job is followed by one repeat of
#: an earlier one, and one job in nine is an explore spec.
MIX = ("cold", "warm") * 4 + ("explore",)


def start_daemon(out_dir):
    ready = out_dir / f"ready-{os.getpid()}.json"
    if ready.exists():
        ready.unlink()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--ready-file", str(ready)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 60.0
    while not ready.exists():
        if process.poll() is not None or time.monotonic() > deadline:
            stop(process)
            raise RuntimeError("the serve daemon did not become ready")
        time.sleep(0.002)
    for _ in range(100):
        try:
            address = json.loads(ready.read_text())
            break
        except ValueError:  # written but not yet complete
            time.sleep(0.002)
    ready.unlink()
    return process, address


def peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class ServeWorkload:
    """One closed-loop client: submit -> /stream until done -> /result."""

    #: The daemon's memory cache grows with every cold job, so its peak
    #: memory is read after a fixed number of timed jobs, not at the end:
    #: otherwise a faster daemon would read as a bigger one.
    RSS_AT_JOB = 400

    def __init__(self, seed, out_dir):
        self.rng = random.Random(seed)
        self.designs = [build_usecase("edgaze", placement=placement,
                                      cis_node=node).to_dict()
                        for placement in PLACEMENTS for node in NODES]
        self.daemon, address = start_daemon(out_dir)
        self.host, self.port = address["host"], address["port"]
        self.client = ServeClient(host=self.host, port=self.port)
        self.used_rates = set()
        self.checks = Checks()
        self.cold_jobs = []     # (design index, rate, stripped result)
        self.warm_jobs = []     # (cold job index, envelope)
        self.explore_jobs = []  # (rate, stripped result)
        self.jobs_done = 0
        self.rss_mb = None

    def close(self):
        stop(self.daemon)

    def _fresh_rate(self):
        while True:
            rate = round(self.rng.uniform(15.0, 240.0), 6)
            if rate not in self.used_rates:
                self.used_rates.add(rate)
                return rate

    def _fetch(self, path):
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        if response.status != 200:
            raise RuntimeError(f"GET {path}: HTTP {response.status}")
        return raw

    def _wait(self, job_id):
        """Poll the job's status until it is terminal, then read its
        ``/stream``, which by then replays every event and ends at once.

        Opening the stream first would race the job: a stream request
        that arrives before the job finishes sleeps for the daemon's
        next 50 ms poll, and how many jobs lose that race depends more
        on the host's speed than on the program (see README.md).
        """
        while self.client.job(job_id)["state"] not in TERMINAL_STATE_NAMES:
            pass
        for event in self.client.stream(job_id):
            if event.get("event") == "done":
                return event["job"]["state"]
        return "lost"

    def job(self, spec, tracer):
        """One job end to end; returns (state, raw /result bytes)."""
        document = tracer.call("serve.submit", self.client.submit, spec)
        state = tracer.call("serve.complete_wait", self._wait,
                            document["id"])
        raw = tracer.call("serve.result_fetch", self._fetch,
                          f"/jobs/{document['id']}/result")
        return state, raw

    def sample(self, seconds, tracer):
        """The closed loop for ``seconds``: per-job (kind, latency, bytes)
        and per-window (jobs, seconds, kernel seconds)."""
        before = self.client.stats()["cache"]
        jobs, windows = [], []
        started = clock()
        while clock() - started < seconds or not jobs:
            reference = reference_s()
            opened, count = clock(), 0
            while not count or (clock() - opened < WINDOW_S
                                and clock() - started < seconds):
                self._job(jobs, tracer)
                count += 1
            windows.append((count, clock() - opened, reference))
        after = self.client.stats()["cache"]
        return {"jobs": jobs, "windows": windows,
                "hits": after["hits"] - before["hits"],
                "misses": after["misses"] - before["misses"]}

    def _job(self, jobs, tracer):
        """The next job of the mix, appended to ``jobs`` once done."""
        kind = MIX[len(jobs) % len(MIX)]
        if kind == "cold":
            index, rate = self.rng.randrange(len(self.designs)), \
                self._fresh_rate()
            spec = {"design": self.designs[index],
                    "options": {"frame_rate": rate}}
        elif kind == "warm":
            cold_index = self.rng.randrange(len(self.cold_jobs))
            index, rate, _ = self.cold_jobs[cold_index]
            spec = {"design": self.designs[index],
                    "options": {"frame_rate": rate}}
        else:
            rate = self._fresh_rate()
            spec = explore_spec(rate)
        begun = clock()
        state, raw = tracer.call("op." + kind, self.job, spec, tracer)
        latency = clock() - begun
        envelope = json.loads(raw)
        if kind == "cold":
            self.cold_jobs.append((index, rate,
                                   strip_volatile(envelope)["result"]))
        elif kind == "warm":
            self.warm_jobs.append((cold_index, envelope))
        else:
            self.explore_jobs.append(
                (rate, strip_volatile(envelope)["result"]))
        self.checks.add(1, state == "done", f"{kind} job ended {state}")
        jobs.append((kind, latency, len(raw)))
        self.jobs_done += 1
        if self.jobs_done == self.RSS_AT_JOB:
            self.rss_mb = peak_rss_mb(self.daemon.pid)
        if tracer.active and len(jobs) % 25 == 0:
            depth = self.client.stats()["queue_depth"]
            tracer.counts["serve.queue_depth_max"] = max(
                tracer.counts["serve.queue_depth_max"], depth)

    def verify(self):
        # Cache-served runs must be cache hits with the cold job's bits.
        for cold_index, envelope in self.warm_jobs:
            expected = self.cold_jobs[cold_index][2]
            if envelope["result"]["cached"] is not True \
                    or strip_volatile(envelope)["result"] != expected:
                self.checks.fail(1, "warm job not served from cache")
        # Daemon results must match the library run in this process.
        with Simulator(cache=False) as sim:
            for index, rate, stripped in self.cold_jobs[::8][:64]:
                local = sim.run(Design.from_dict(self.designs[index]),
                                SimOptions(frame_rate=rate))
                if strip_volatile(local.to_dict()) != stripped:
                    self.checks.fail(1, "run job differs from library")
        spec = explore_spec(0.0)
        space = repro.explore.space_from_dict(spec["space"])
        for rate, stripped in self.explore_jobs[:4]:
            with Simulator() as sim:
                local = repro.explore.explore(
                    space, "edgaze", objectives=OBJECTIVES,
                    options=SimOptions(frame_rate=rate), simulator=sim,
                    name=spec["name"])
            if strip_volatile(local.to_dict()) != stripped:
                self.checks.fail(1, "explore job differs from library")

    def canary_digests(self):
        """Digests of the canary jobs' /result envelopes (None: not done)."""
        digests = {}
        for name, spec in serve_canary_specs().items():
            state, raw = self.job(spec, Tracer0())
            digests[name] = digest(strip_volatile(json.loads(raw))) \
                if state == "done" else None
        return digests

    def warmup(self):
        """Check the canary jobs; they also load every lazy part."""
        for name, found in self.canary_digests().items():
            self.checks.add(1, found == recorded(name),
                            f"{name} canary digest mismatch")


class Tracer0:
    """The do-nothing tracer of untraced phases."""

    active = False

    @staticmethod
    def call(span_name, fn, /, *args, **kwargs):
        return fn(*args, **kwargs)


# --- metrics -------------------------------------------------------------------

def summarize(records):
    """End-to-end figures of the records of one phase.

    The gated figures are medians of per-operation times in reference
    seconds (see hostref.py); the wall-clock ones are kept as ``raw_*``.
    """
    if "jobs" in records[0]:
        return serve_figures(records)

    def pairs(kind):
        return [pair for record in records for pair in
                zip(record[kind + "_s"], record[kind + "_ref"])]
    cold, warm = pairs("cold"), pairs("warm")
    items = records[0]["items"]
    cold_s = statistics.median(normalized(*pair) for pair in cold)
    raw_cold_s = statistics.median(seconds for seconds, _ in cold)
    figures = cache_ratio(records)
    figures.update(
        items_per_s=items / cold_s,
        warm_items_per_s=items / statistics.median(
            normalized(*pair) for pair in warm),
        latency_p50_ms=1e3 * cold_s,
        latency_p95_ms=1e3 * percentile([s for s, _ in cold], 95),
        raw_items_per_s=items / raw_cold_s,
        raw_warm_items_per_s=items / statistics.median(
            seconds for seconds, _ in warm),
        raw_latency_p50_ms=1e3 * raw_cold_s,
        reference_ms=1e3 * statistics.median(
            reference for _, reference in cold + warm),
        jobs=len(cold),
        samples=len(cold))
    return figures


def serve_figures(records):
    """End-to-end figures of serve-mixed records.

    The medians are scaled by the *mean* kernel time of the phase, not
    by each window's own kernel run: the host flips between speed states
    within a second, so one 25 ms run is a noisy sample of the state a
    window of jobs saw, while the mean over the ~80 windows of a run
    tracks the run's host speed (see README.md).
    """
    jobs = [job for record in records for job in record["jobs"]]
    windows = [window for record in records for window in record["windows"]]
    # Latency is taken over the cold run jobs only: over all jobs the
    # median would sit between the cache-served mode and the cold one.
    cold = [latency for kind, latency, _ in jobs if kind == "cold"]
    warm = [latency for kind, latency, _ in jobs if kind == "warm"]
    rate = statistics.median(count / seconds for count, seconds, _ in windows)
    host = statistics.mean(reference for _, _, reference in windows)
    figures = cache_ratio(records)
    figures.update(
        items_per_s=1.0 / normalized(1.0 / rate, host),
        warm_items_per_s=1.0 / normalized(statistics.median(warm), host),
        latency_p50_ms=1e3 * normalized(statistics.median(cold), host),
        latency_p95_ms=1e3 * percentile([job[1] for job in jobs], 95),
        raw_items_per_s=rate,
        raw_warm_items_per_s=1.0 / statistics.median(warm),
        raw_latency_p50_ms=1e3 * statistics.median(cold),
        reference_ms=1e3 * host,
        jobs=len(jobs),
        samples=len(cold))
    return figures


def cache_ratio(records):
    hits = sum(record["hits"] for record in records)
    lookups = hits + sum(record["misses"] for record in records)
    return {"cache_hit_ratio": hits / lookups if lookups else 0.0}


def layer_metrics(tracer, rounds, extra):
    """Per-layer figures of the traced phase (see README.md).

    ``rounds`` is the number of traced rounds (serve-mixed: jobs).
    """
    import repro.sim.simulator as sim

    totals = tracer.self_times()
    counts = tracer.counts

    def self_s(name):
        return totals.get(name, (0.0, 0, 0.0))[0]

    def per_call_us(name, calls=None):
        found = totals.get(name, (0.0, 0, 0.0))
        calls = found[1] if calls is None else calls
        return 1e6 * found[0] / calls if calls else 0.0

    def per_round_ms(name):
        return 1e3 * self_s(name) / rounds

    def ratio(part, whole):
        return part / whole if whole else 0.0

    metrics = {
        "api.design_decode_us": per_call_us("api.design_decode"),
        "api.content_hash_us": per_call_us("api.content_hash"),
        "api.run_many_self_ms": per_round_ms("api.run_many"),
        "api.cache_probe_us": per_call_us("api.cache_probe",
                                          counts["api.cache_probe"]),
        "api.cache_offer_us": per_call_us("api.cache_offer",
                                          counts["api.cache_offer"]),
        "exec.run_pending_ms": per_round_ms("exec.run_pending"),
        "exec.tasks": counts["exec.run_pending"] / rounds,
    }
    pass_runs = 0
    for spec in sim.SIM_PASSES:
        name = "sim.pass." + spec.name
        metrics[name + "_us"] = per_call_us(name)
        runs = totals.get(name, (0.0, 0, 0.0))[1]
        metrics[name + ".runs"] = runs / rounds
        if spec.design_only:
            pass_runs += runs
    lookups = counts["sim.memo_lookups"]
    metrics["sim.pass_memo_hit_ratio"] = ratio(lookups - pass_runs, lookups)
    metrics.update({
        "explore.space_iter_ms": per_round_ms("explore.space_iter"),
        "explore.vector_eval_ms": per_round_ms("explore.vector_eval"),
        "explore.vectorized_share": ratio(counts["explore.vectorized"],
                                          counts["explore.points"]),
        "explore.assemble_ms": per_round_ms("explore.explore"),
        "explore.frontier_ms": per_round_ms("explore.frontier"),
        "explore.ranks_ms": per_round_ms("explore.ranks"),
        "explore.to_dict_ms": per_round_ms("explore.to_dict"),
        "explore.json_encode_ms": per_round_ms("explore.to_json"),
        "robust.draw_us": per_call_us("robust.draw"),
        "robust.perturb_us": per_call_us("robust.perturb"),
        "robust.reduce_ms": per_round_ms("robust.monte_carlo"),
        "serve.submit_ms": per_round_ms("serve.submit"),
        "serve.complete_wait_ms": per_round_ms("serve.complete_wait"),
        "serve.result_fetch_ms": per_round_ms("serve.result_fetch"),
        "serve.queue_depth_max": counts["serve.queue_depth_max"],
        "serve.response_bytes": 0,
        "serve.cache_hit_ratio": 0.0,
    })
    ops = [found for name, found in totals.items() if name.startswith("op.")]
    metrics["trace.unattributed_pct"] = 100.0 * ratio(
        sum(found[0] for found in ops), sum(found[2] for found in ops))
    metrics.update(extra)
    return metrics


# --- entry points --------------------------------------------------------------

def make_workload(name, seed, out_dir):
    if name == "explore-grid":
        return ExploreWorkload(seed, 1250, document=False, cold_passes=6)
    if name == "explore-document":
        return ExploreWorkload(seed, 32, document=True, cold_passes=1)
    if name == "monte-carlo":
        return MonteCarloWorkload(seed)
    if name == "serve-mixed":
        return ServeWorkload(seed, out_dir)
    raise SystemExit(f"unknown workload {name!r}")


def measure(workload, seconds, tracers):
    """Sample until ``seconds`` pass, cycling through ``tracers``.

    Returns one record list per tracer.  With two tracers (untraced and
    traced) the phases alternate, so both see the same session age.
    """
    records = [[] for _ in tracers]
    # Serve samples for a given time; four of each kind when alternating.
    slice_s = seconds if len(tracers) == 1 else seconds / (4 * len(tracers))
    started = clock()
    while True:
        for tracer, kept in zip(tracers, records):
            tracer.active = not isinstance(tracer, Tracer0)
            kept.append(workload.sample(slice_s, tracer))
            tracer.active = False
        elapsed = clock() - started
        if elapsed + elapsed / len(records[0]) > seconds:
            return records


def profile(tracer):
    """Per kind of timed operation: its mean wall time and the largest
    self times under it, in ms per operation."""
    kinds = sorted({record[0] for record in tracer.spans
                    if record[3] is None and record[0].startswith("op.")})
    result = {}
    for kind in kinds:
        totals = tracer.self_times(root=kind)
        _, count, duration = totals[kind]
        ranked = sorted(((name, round(1e3 * found[0] / count, 3))
                         for name, found in totals.items()),
                        key=lambda item: -item[1])
        result[kind] = {"ops": count, "op_ms": round(1e3 * duration / count, 3),
                        "top_self_ms": ranked[:6]}
    return result


def document_layers(workload):
    """Rank layers and size of the last document the workload built."""
    document = getattr(workload, "last_document", None)
    if document is None:
        return {"explore.rank_layers": 0, "explore.document_bytes": 0}
    ranks = [rank for rank in json.loads(document)["ranks"]
             if rank is not None]
    return {"explore.rank_layers": max(ranks) + 1,
            "explore.document_bytes": len(document.encode("utf-8"))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", default=".perfbench_out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.record_digests:
        digests = {"explore": explore_canary(), "robust": robust_canary()}
        serve = ServeWorkload(0, out_dir)
        try:
            digests.update(serve.canary_digests())
        finally:
            serve.close()
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True)
                           + "\n")
        return 0

    if args.workload == "serve-mixed" and args.setup_only:
        raise SystemExit("serve-mixed set-up is timed on the daemon itself")
    workload = make_workload(args.workload, args.seed, out_dir)
    if args.setup_only:
        print(json.dumps({"import_s": IMPORT_S}), flush=True)
        return 0
    try:
        output = {"import_s": IMPORT_S}
        workload.warmup()
        if args.trace:
            from tracing import Tracer, install

            tracer = Tracer()
            install(tracer)
            plain, traced = measure(workload, args.seconds,
                                    [Tracer0(), tracer])
            untraced, figures = summarize(plain), summarize(traced)
            # Per-round figures: serve-mixed's round is one job.
            ops = figures["jobs"] if isinstance(workload, ServeWorkload) \
                else len(traced)
            extra = document_layers(workload)
            extra.update({
                "api.cache_hit_ratio": figures["cache_hit_ratio"],
                "trace.items_per_s_untraced": untraced["items_per_s"],
                "trace.items_per_s_traced": figures["items_per_s"],
                "trace.overhead_pct": 100.0 * (
                    untraced["items_per_s"] - figures["items_per_s"])
                / untraced["items_per_s"],
            })
            if isinstance(workload, ServeWorkload):
                jobs = [job for record in traced for job in record["jobs"]]
                extra["serve.response_bytes"] = statistics.mean(
                    size for _, _, size in jobs)
                extra["serve.cache_hit_ratio"] = figures["cache_hit_ratio"]
            output["layers"] = layer_metrics(tracer, ops, extra)
            output["profile"] = profile(tracer)
        else:
            (records,) = measure(workload, args.seconds, [Tracer0()])
            output["end_to_end"] = summarize(records)
        workload.verify()
        if isinstance(workload, ServeWorkload):
            output["peak_rss_mb"] = workload.rss_mb \
                or peak_rss_mb(workload.daemon.pid)
    finally:
        if isinstance(workload, ServeWorkload):
            workload.close()
    if not args.trace:
        started = clock()
        output["validation_mape_pct"] = \
            100.0 * run_validation().mean_absolute_percentage_error
        output["validation_s"] = clock() - started
    output.setdefault("peak_rss_mb", resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    checks = workload.checks
    output.update(attempted=checks.attempted, failed=checks.failed,
                  notes=checks.notes[:5])
    print(json.dumps(output), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
