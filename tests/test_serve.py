"""Tests for the ``repro serve`` daemon: queue, HTTP API, client, shutdown."""

import asyncio
import http.client
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import SimOptions, Simulator, build_usecase
from repro.api.registry import register_usecase
from repro.explore import ExplorationResult, explore, space_from_dict
from repro.serve import (
    BackgroundServer,
    JobQueue,
    QueueClosed,
    ServeClient,
    ServeError,
    ServeTimeout,
    StreamBuffer,
)
from repro.serve import app as app_module, handlers as handlers_module
from repro.serve.client import MAX_IDLE_S, POOL_SIZE

REPO_ROOT = Path(__file__).resolve().parent.parent


def _explore_spec(rates, usecase="fig5", name=None):
    """A one-axis options sweep: cheap, and every rate is a cache key."""
    spec = {
        "schema": "repro.explore-spec/1",
        "usecase": usecase,
        "space": {"name": "options.frame_rate",
                  "values": [float(rate) for rate in rates]},
        "objectives": ["energy_per_frame", "latency"],
    }
    if name is not None:
        spec["name"] = name
    return spec


def _run_spec(frame_rate):
    return {"design": {"usecase": "fig5"},
            "options": {"frame_rate": float(frame_rate)}}


# --- a builder the tests can hold hostage ----------------------------------

_GATE = threading.Event()
_GATE_ENTERED = threading.Event()


def _gated_fig5():
    """Blocks inside the build phase until the test releases the gate."""
    _GATE_ENTERED.set()
    if not _GATE.wait(timeout=30.0):
        raise RuntimeError("test gate was never released")
    return build_usecase("fig5")


@pytest.fixture
def gated_usecase():
    from repro.api import registry

    _GATE.clear()
    _GATE_ENTERED.clear()
    register_usecase("serve-test-gated", _gated_fig5)
    yield "serve-test-gated"
    registry._REGISTRY.pop("serve-test-gated", None)
    _GATE.set()  # release any straggler worker thread


# --- shared daemon for the read-mostly tests --------------------------------

@pytest.fixture(scope="module")
def server():
    with BackgroundServer(workers=2, chunk_size=2) as background:
        yield background


@pytest.fixture
def client(server):
    with server.client() as pooled:
        yield pooled


class TestStreamBuffer:
    def test_cursor_reads_and_close(self):
        buffer = StreamBuffer()
        buffer.append({"event": "a"})
        buffer.append({"event": "b"})
        events, cursor, closed = buffer.read_from(0)
        assert [event["event"] for event in events] == ["a", "b"]
        assert cursor == 2 and not closed
        events, cursor, closed = buffer.read_from(cursor)
        assert events == [] and cursor == 2
        buffer.append({"event": "c"})
        buffer.close()
        events, cursor, closed = buffer.read_from(cursor)
        assert [event["event"] for event in events] == ["c"]
        assert closed
        assert len(buffer) == 3

    def test_append_after_close_raises(self):
        buffer = StreamBuffer()
        buffer.close()
        buffer.close()  # idempotent
        with pytest.raises(RuntimeError):
            buffer.append({"event": "late"})

    def test_append_from_a_thread_wakes_a_parked_reader(self):
        buffer = StreamBuffer()
        buffer.append({"event": "a"})

        async def tail():
            await buffer.wait_beyond(0)  # an event is past 0: no wait
            parked = asyncio.ensure_future(buffer.wait_beyond(1))
            await asyncio.sleep(0)
            assert not parked.done()
            threading.Thread(target=buffer.append,
                             args=({"event": "b"},)).start()
            await asyncio.wait_for(parked, timeout=10.0)
            parked = asyncio.ensure_future(buffer.wait_beyond(2))
            await asyncio.sleep(0)
            threading.Thread(target=buffer.close).start()
            await asyncio.wait_for(parked, timeout=10.0)
            await buffer.wait_beyond(2)  # closed: returns at once

        asyncio.run(tail())


class TestQueueGuards:
    def test_unstarted_queue_rejects_submissions(self):
        queue = JobQueue(Simulator())
        spec = _explore_spec([30.0])
        from repro.explore.spec import exploration_spec_from_dict
        with pytest.raises(QueueClosed):
            queue.submit_explore(exploration_spec_from_dict(spec))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            JobQueue(Simulator(), workers=0)
        with pytest.raises(ValueError):
            JobQueue(Simulator(), chunk_size=0)


class TestHealthAndStats:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["uptime_s"] >= 0.0

    def test_stats_shape(self, client):
        stats = client.stats()
        assert stats["schema"] == "repro.serve-stats/1"
        assert stats["workers"] == 2
        assert stats["chunk_size"] == 2
        assert stats["queue_depth"] >= 0
        assert set(stats["jobs"]) == {"queued", "running", "done",
                                      "failed", "cancelled"}
        assert {"hits", "misses"} <= set(stats["cache"])
        assert stats["pools"]["executor"] == "thread"
        assert stats["pools"]["terminal"] is False
        assert stats["requests_served"] >= 1
        assert 1 <= stats["connections_served"] <= stats["requests_served"]


class TestRunJobs:
    def test_run_job_lifecycle_and_result(self, client):
        job = client.submit(_run_spec(47.0))
        assert job["schema"] == "repro.serve-job/1"
        assert job["kind"] == "run"
        assert job["state"] in ("queued", "running", "done")
        assert job["links"]["result"] == f"/jobs/{job['id']}/result"

        done = client.wait(job["id"], timeout=60.0)
        assert done["state"] == "done"
        assert done["progress"] == {"total": 1, "completed": 1,
                                    "cache_hits": 0}
        assert done["error"] is None
        assert done["finished_at"] >= done["started_at"] >= done["created_at"]

        envelope = client.result(job["id"])
        assert envelope["kind"] == "run"
        from repro.api import SimResult
        result = SimResult.from_dict(envelope["result"])
        direct = Simulator(cache=False).run(
            build_usecase("fig5"), SimOptions(frame_rate=47.0))
        assert result.ok
        assert result.report.total_energy \
            == pytest.approx(direct.report.total_energy)

    def test_warm_run_counts_a_cache_hit(self, client):
        spec = _run_spec(48.0)
        first = client.wait(client.submit(spec)["id"], timeout=60.0)
        assert first["progress"]["cache_hits"] == 0
        second = client.wait(client.submit(spec)["id"], timeout=60.0)
        assert second["state"] == "done"
        assert second["progress"]["cache_hits"] == 1

    def test_explicit_kind_envelope(self, client):
        job = client.submit(_run_spec(49.0), kind="run")
        assert job["kind"] == "run"
        assert client.wait(job["id"], timeout=60.0)["state"] == "done"


class TestBareRobustSpecs:
    """A bare spec with a ``kind`` key is a robust study, not a run."""

    def test_bare_corners_spec_runs_the_corners(self, client):
        spec = {"kind": "corners", "usecase": "fig5", "corners": "pvt"}
        job = client.submit(spec)
        assert job["kind"] == "robust"
        done = client.wait(job["id"], timeout=60.0)
        assert done["state"] == "done"
        result = client.result(job["id"])["result"]
        assert result["schema"] == "repro.robust/1"
        assert result["kind"] == "corners"
        from repro.robust import robust_spec_from_dict
        direct = robust_spec_from_dict(spec).run_document()
        assert result["corners"] == direct["corners"]
        assert result["nominal"] == direct["nominal"]

    def test_bare_spec_with_unknown_kind_is_typed_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit({"kind": "corner", "usecase": "fig5"})
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "SerializationError"


class TestExploreJobs:
    def test_explore_job_matches_direct_engine(self, client):
        rates = [31.0, 37.0, 41.0, 43.0]
        job = client.submit(_explore_spec(rates, name="serve-study"))
        assert job["kind"] == "explore"
        assert job["name"] == "serve-study"

        done = client.wait(job["id"], timeout=120.0)
        assert done["state"] == "done"
        assert done["progress"]["total"] == len(rates)
        assert done["progress"]["completed"] == len(rates)

        document = client.result(job["id"])["result"]
        served = ExplorationResult.from_dict(document)
        assert served.to_dict() == document  # exact JSON round-trip
        direct = explore(
            space_from_dict({"name": "options.frame_rate",
                             "values": rates}), "fig5",
            objectives=["energy_per_frame", "latency"])
        assert [point.params for point in served.points] \
            == [point.params for point in direct.points]
        assert [point.metrics for point in served.points] \
            == [point.metrics for point in direct.points]

    def test_identical_resubmit_is_all_cache_hits(self, client):
        spec = _explore_spec([53.0, 59.0, 61.0])
        cold = client.wait(client.submit(spec)["id"], timeout=120.0)
        assert cold["progress"]["cache_hits"] == 0
        warm = client.wait(client.submit(spec)["id"], timeout=120.0)
        assert warm["state"] == "done"
        assert warm["progress"]["cache_hits"] == 3
        assert warm["progress"]["completed"] == 3

    def test_jobs_listing_knows_the_job(self, client):
        job = client.submit(_explore_spec([67.0]))
        client.wait(job["id"], timeout=60.0)
        listed = {entry["id"]: entry for entry in client.jobs()}
        assert listed[job["id"]]["state"] == "done"


class TestStreaming:
    def test_jsonl_stream_replays_points_in_space_order(self, client):
        rates = [71.0, 73.0, 79.0]
        job = client.submit(_explore_spec(rates))
        events = list(client.stream(job["id"]))
        points = [event for event in events if event["event"] == "point"]
        assert [point["point"]["params"]["options.frame_rate"]
                for point in points] == rates
        assert events[-1]["event"] == "done"
        assert events[-1]["job"]["state"] == "done"

    def test_sse_stream_after_completion(self, client):
        job = client.submit(_explore_spec([83.0]))
        client.wait(job["id"], timeout=60.0)
        connection = http.client.HTTPConnection(*client_address(client),
                                                timeout=30.0)
        try:
            connection.request(
                "GET", f"/jobs/{job['id']}/stream?format=sse")
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "text/event-stream"
            body = response.read().decode("utf-8")
        finally:
            connection.close()
        assert "event: point\n" in body
        assert "event: done\n" in body
        assert "data: " in body

    def test_bad_stream_format_rejected(self, client):
        job = client.submit(_explore_spec([89.0]))
        client.wait(job["id"], timeout=60.0)
        with pytest.raises(ServeError) as excinfo:
            http_get_json(client, f"/jobs/{job['id']}/stream?format=xml")
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "BadFormat"


def client_address(client):
    return client.host, client.port


def http_get_json(client, path):
    """A raw GET that raises ServeError like the client does."""
    connection = http.client.HTTPConnection(*client_address(client),
                                            timeout=30.0)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        raw = response.read()
        if response.status >= 400:
            error = json.loads(raw)["error"]
            raise ServeError(response.status, error["type"],
                             error["message"])
        return json.loads(raw)
    finally:
        connection.close()


def http_post_raw(client, path, body, method="POST"):
    connection = http.client.HTTPConnection(*client_address(client),
                                            timeout=30.0)
    try:
        connection.request(method, path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestErrorResponses:
    def test_invalid_json_body(self, client):
        status, payload = http_post_raw(client, "/jobs", b"{not json")
        assert status == 400
        assert payload["error"]["type"] == "InvalidJSON"

    def test_non_object_spec(self, client):
        status, payload = http_post_raw(client, "/jobs", b"[1, 2, 3]")
        assert status == 400
        assert payload["error"]["type"] == "InvalidSpec"

    def test_bad_envelope_kind(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit(_run_spec(30.0), kind="dance")
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "InvalidSpec"

    def test_unknown_usecase_in_explore_spec(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit(_explore_spec([30.0], usecase="warp-drive"))
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "ConfigurationError"
        assert "warp-drive" in excinfo.value.message

    def test_malformed_explore_spec(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit({"usecase": "fig5", "space": {"bogus": True}})
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "SerializationError"

    @pytest.mark.parametrize("overrides", [
        None, {"stages": 5}, {"stages": "x"}, {"system": []},
        {"mapping": "x"}, {"name": 5}, {"name": []}],
        ids=["nonsense", "stages-int", "stages-str", "system-list",
             "mapping-str", "name-int", "name-list"])
    def test_malformed_run_spec(self, client, overrides):
        """A malformed ``repro.design/1`` body is a typed 400, not a 500."""
        spec = {"nonsense": True} if overrides is None else {
            **build_usecase("fig5").to_dict(), **overrides}
        with pytest.raises(ServeError) as excinfo:
            client.submit(spec)
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "SerializationError"

    def test_malformed_nested_design_entry(self, client):
        spec = build_usecase("fig5").to_dict()
        spec["system"]["memories"] = [5]
        with pytest.raises(ServeError) as excinfo:
            client.submit(spec)
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "SerializationError"
        assert "malformed design payload" in excinfo.value.message

    def test_bad_options_in_run_spec(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit({"design": {"usecase": "fig5"}, "options": 5})
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "ConfigurationError"

    def test_unknown_job_is_404_everywhere(self, client):
        for call in (client.job, client.result, client.cancel):
            with pytest.raises(ServeError) as excinfo:
                call("job-999999")
            assert excinfo.value.status == 404
            assert excinfo.value.error_type == "UnknownJob"

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            http_get_json(client, "/nope")
        assert excinfo.value.status == 404
        assert excinfo.value.error_type == "NotFound"

    def test_method_not_allowed(self, client):
        status, payload = http_post_raw(client, "/healthz", b"")
        assert status == 405
        assert payload["error"]["type"] == "MethodNotAllowed"
        status, payload = http_post_raw(client, "/jobs", b"{}",
                                        method="PUT")
        assert status == 405

    def test_oversized_body_rejected(self, client):
        connection = http.client.HTTPConnection(*client_address(client),
                                                timeout=30.0)
        try:
            connection.request(
                "POST", "/jobs", body=b"",
                headers={"Content-Length": str(64 * 1024 * 1024)})
            response = connection.getresponse()
            assert response.status == 413
            assert json.loads(response.read())["error"]["type"] \
                == "PayloadTooLarge"
        finally:
            connection.close()


class TestCancellation:
    def test_cancel_queued_job(self, gated_usecase):
        with BackgroundServer(workers=1) as background:
            client = background.client()
            hostage = client.submit(_explore_spec([30.0],
                                                  usecase=gated_usecase))
            assert _GATE_ENTERED.wait(timeout=30.0)
            queued = client.submit(_explore_spec([30.0, 60.0]))
            cancelled = client.cancel(queued["id"])
            assert cancelled["state"] == "cancelled"
            assert cancelled["cancel_requested"] is True
            assert cancelled["progress"]["completed"] == 0
            with pytest.raises(ServeError) as excinfo:
                client.result(queued["id"])
            assert excinfo.value.status == 409
            assert excinfo.value.error_type == "JobNotDone"
            # The cancelled job's stream seals with its terminal state.
            events = list(client.stream(queued["id"]))
            assert events[-1]["event"] == "done"
            assert events[-1]["job"]["state"] == "cancelled"
            _GATE.set()
            assert client.wait(hostage["id"], timeout=60.0)["state"] \
                == "done"

    def test_cancel_running_job_at_chunk_boundary(self, gated_usecase):
        with BackgroundServer(workers=1, chunk_size=1) as background:
            client = background.client()
            job = client.submit(_explore_spec(
                [30.0, 45.0, 60.0], usecase=gated_usecase))
            assert _GATE_ENTERED.wait(timeout=30.0)  # chunk 1 is building
            requested = client.cancel(job["id"])
            assert requested["cancel_requested"] is True
            assert requested["state"] == "running"
            _GATE.set()
            final = client.wait(job["id"], timeout=60.0)
            assert final["state"] == "cancelled"
            # Chunk 1 finished; the stop flag fired before chunk 2.
            assert final["progress"]["completed"] == 1
            assert final["progress"]["total"] == 3
            with pytest.raises(ServeError) as excinfo:
                client.result(job["id"])
            assert excinfo.value.status == 409

    def test_cancel_terminal_job_is_a_noop(self, client):
        job = client.submit(_run_spec(97.0))
        assert client.wait(job["id"], timeout=60.0)["state"] == "done"
        after = client.cancel(job["id"])
        assert after["state"] == "done"
        assert client.result(job["id"])["result"] is not None


class TestConcurrentClients:
    def test_submitters_share_one_cache(self):
        rates = [101.0, 103.0, 107.0, 109.0]
        spec = _explore_spec(rates)
        with BackgroundServer(workers=2) as background:
            cold = background.client()
            first = cold.wait(cold.submit(spec)["id"], timeout=120.0)
            assert first["state"] == "done"
            assert first["progress"]["cache_hits"] == 0

            outcomes = []
            errors = []

            def submit_and_wait():
                try:
                    mine = background.client()
                    job = mine.submit(spec)
                    outcomes.append(mine.wait(job["id"], timeout=120.0))
                except BaseException as error:  # surfaced via assert below
                    errors.append(error)

            threads = [threading.Thread(target=submit_and_wait)
                       for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not errors
            assert len(outcomes) == 2
            for outcome in outcomes:
                assert outcome["state"] == "done"
                # Every point was served from the shared warm cache.
                assert outcome["progress"]["cache_hits"] == len(rates)

            stats = background.client().stats()
            assert stats["cache"]["hits"] >= 2 * len(rates)
            assert stats["jobs"]["done"] == 3


class TestWarmSubmitSpeedup:
    def test_warm_submits_are_three_times_faster(self, streaming_builder):
        """The daemon's pitch, over real HTTP: a resubmitted cycle-exact
        exploration (4 designs x 3 rates) is served from the shared
        session cache, with the cold job's metrics, at >= 3x the cold
        submit-to-done time; so is every job of a 16-job warm burst."""
        from repro.api import registry

        spec = {
            "schema": "repro.explore-spec/1",
            "name": "serve-warm",
            "usecase": "serve-test-streaming",
            "space": {"product": [
                {"name": "size", "values": [32, 33, 34, 35]},
                {"name": "options.frame_rate",
                 "values": [10.0, 20.0, 30.0]},
            ]},
            "objectives": ["energy_per_frame"],
            "options": {"cycle_accurate": True},
        }
        total = 12
        register_usecase("serve-test-streaming", streaming_builder)
        try:
            with BackgroundServer(workers=2, chunk_size=4) as server, \
                    server.client(timeout=120.0) as client:

                def submit_and_wait():
                    started = time.perf_counter()
                    job = client.submit(spec)
                    # Fast polling: the warm side must measure cache
                    # latency, not poll lag.
                    done = client.wait(job["id"], timeout=600.0,
                                       poll_s=0.01)
                    assert done["state"] == "done", done
                    return done, time.perf_counter() - started

                cold, cold_s = submit_and_wait()
                assert cold["progress"] == {"total": total,
                                            "completed": total,
                                            "cache_hits": 0}
                warm, warm_s = submit_and_wait()
                assert warm["progress"]["cache_hits"] == total
                cold_points = client.result(cold["id"])["result"]["points"]
                warm_points = client.result(warm["id"])["result"]["points"]
                assert [point["metrics"] for point in warm_points] \
                    == [point["metrics"] for point in cold_points]
                for job_id in [client.submit(spec)["id"]
                               for _ in range(16)]:
                    done = client.wait(job_id, timeout=600.0, poll_s=0.01)
                    assert done["state"] == "done"
                    assert done["progress"]["cache_hits"] == total
        finally:
            registry._REGISTRY.pop("serve-test-streaming", None)
        assert cold_s / warm_s >= 3.0


class TestGracefulShutdown:
    def test_shutdown_flushes_jobs_to_terminal_states(self, gated_usecase):
        background = BackgroundServer(workers=1, chunk_size=1)
        background.__enter__()
        try:
            client = background.client()
            running = client.submit(_explore_spec(
                [30.0, 45.0, 60.0], usecase=gated_usecase))
            assert _GATE_ENTERED.wait(timeout=30.0)
            queued = client.submit(_explore_spec([113.0, 127.0]))

            shutdown = threading.Thread(
                target=background.__exit__, args=(None, None, None))
            shutdown.start()
            # Shutdown cancels every live job before the gate opens.
            queue = background.app.queue
            deadline = time.monotonic() + 30.0
            while not queue.get(running["id"]).cancel_requested:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            _GATE.set()
            shutdown.join(timeout=60.0)
            assert not shutdown.is_alive()
        finally:
            _GATE.set()

        states = {job.id: job.to_dict() for job in background.app.queue.jobs()}
        assert states[queued["id"]]["state"] == "cancelled"
        assert states[queued["id"]]["progress"]["completed"] == 0
        assert states[running["id"]]["state"] == "cancelled"
        assert background.app.simulator.closed
        # The socket is gone: new clients cannot connect.
        with pytest.raises(OSError):
            background.client(timeout=2.0).healthz()


class TestServeSubprocess:
    def test_cli_daemon_end_to_end(self, tmp_path):
        """Boot ``repro serve`` for real: ready file, one job, SIGTERM."""
        ready = tmp_path / "ready.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--ready-file", str(ready)],
            cwd=REPO_ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 30.0
            while not ready.exists():
                assert process.poll() is None, process.communicate()[1]
                assert time.monotonic() < deadline, "ready file never came"
                time.sleep(0.05)
            address = json.loads(ready.read_text())
            client = ServeClient.from_url(address["url"], timeout=30.0)
            assert client.healthz()["status"] == "ok"
            job = client.submit(_run_spec(50.0))
            assert client.wait(job["id"], timeout=120.0)["state"] == "done"
            process.send_signal(signal.SIGTERM)
            stdout, _stderr = process.communicate(timeout=60.0)
            assert process.returncode == 0
            assert "repro serve listening on" in stdout
            assert "shutting down" in stdout
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()


class TestWaitTimeout:
    def test_wait_raises_typed_timeout(self, gated_usecase):
        with BackgroundServer(workers=1) as background:
            client = background.client()
            job = client.submit(_explore_spec([30.0],
                                              usecase=gated_usecase))
            assert _GATE_ENTERED.wait(timeout=30.0)
            with pytest.raises(ServeTimeout):
                client.wait(job["id"], timeout=0.2, poll_s=0.05)
            _GATE.set()
            assert client.wait(job["id"], timeout=60.0)["state"] == "done"


# --- the persistent-connection transport -----------------------------------

def _raw_exchange(address, request):
    """Send raw request bytes; read until the daemon closes the socket.

    A connection the daemon keeps open makes the read time out.
    """
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(request)
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return received
            received += chunk


def _connections(server):
    return server.app.connections_served


class TestKeepAlive:
    def test_requests_share_one_raw_connection(self, server):
        before = _connections(server)
        connection = http.client.HTTPConnection(*server.address,
                                                timeout=30.0)
        try:
            for _ in range(3):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
            connection.request("POST", "/jobs",
                               body=json.dumps(_run_spec(131.0)))
            response = connection.getresponse()
            assert response.status == 202
            job_id = json.loads(response.read())["id"]
            connection.request("GET", f"/jobs/{job_id}/stream")
            response = connection.getresponse()
            assert response.getheader("Transfer-Encoding") == "chunked"
            events = [json.loads(line) for line
                      in response.read().splitlines()]
            assert events[-1]["event"] == "done"
            connection.request("GET", f"/jobs/{job_id}/result")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["result"] is not None
        finally:
            connection.close()
        assert _connections(server) - before == 1

    @pytest.mark.parametrize("request_head", [
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
    ], ids=["connection-close", "http-1.0"])
    def test_close_is_honoured(self, server, request_head):
        reply = _raw_exchange(server.address, request_head)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        assert b"Connection: close" in head
        assert json.loads(body)["status"] == "ok"

    @pytest.mark.parametrize("body_head, status, error_type", [
        (b"Content-Length: %d" % (64 * 1024 * 1024), b"413",
         "PayloadTooLarge"),
        (b"Transfer-Encoding: chunked", b"411", "LengthRequired"),
    ], ids=["oversized", "chunked"])
    def test_unread_body_closes_the_connection(self, server, body_head,
                                               status, error_type):
        reply = _raw_exchange(
            server.address,
            b"POST /jobs HTTP/1.1\r\nHost: x\r\n%s\r\n\r\n" % body_head)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 " + status)
        assert b"Connection: close" in head
        assert json.loads(body)["error"]["type"] == error_type

    def test_client_runs_a_job_over_one_connection(self, server):
        before = _connections(server)
        with server.client() as client:
            job = client.submit(_run_spec(137.0))
            assert client.wait(job["id"], timeout=60.0)["state"] == "done"
            assert list(client.stream(job["id"]))[-1]["event"] == "done"
            assert client.result(job["id"])["result"] is not None
        assert _connections(server) - before == 1

    def test_reconnects_once_the_daemon_closed_the_pooled_one(self, server):
        with server.client() as client:
            client.healthz()
            [(pooled, _)] = client._idle
            server._loop.call_soon_threadsafe(
                server.app.close_idle_connections)
            readable, _, _ = select.select([pooled.sock], [], [], 10.0)
            assert readable  # the daemon's close arrived
            jobs_before = len(server.app.queue.jobs())
            job = client.submit(_run_spec(139.0))
            assert len(server.app.queue.jobs()) == jobs_before + 1
            assert client.wait(job["id"], timeout=60.0)["state"] == "done"
            assert client._idle and client._idle[0][0] is not pooled

    def test_a_long_idle_connection_is_not_reused(self, server):
        with server.client() as client:
            client.healthz()
            [(pooled, _)] = client._idle
            client._idle[0] = (pooled, time.monotonic() - MAX_IDLE_S)
            before = _connections(server)
            assert client.healthz()["status"] == "ok"
            assert _connections(server) - before == 1
            assert pooled.sock is None  # closed, not reused

    def test_threads_share_one_client(self, server):
        """More threads than cores on one pool, switching often: no
        connection is handed to two threads, and none leaks."""
        errors = []
        before = _connections(server)
        client = server.client()

        def drive(offset):
            try:
                for step in range(5):
                    job = client.submit(_run_spec(150.0 + offset + step))
                    assert client.wait(job["id"], timeout=60.0)[
                        "state"] == "done"
                    assert client.healthz()["status"] == "ok"
            except BaseException as error:  # surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=drive, args=(10 * index,))
                       for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert 1 <= len(client._idle) <= POOL_SIZE
        # Each thread holds one connection at a time and returns it.
        assert _connections(server) - before <= len(threads)
        client.close()

    def test_abandoned_stream_closes_its_connection(self, server):
        with server.client() as client:
            job = client.submit(_run_spec(141.0))
            client.wait(job["id"], timeout=60.0)
            events = client.stream(job["id"])
            assert next(events)["event"] == "result"
            assert client._idle == []  # the stream holds the connection
            events.close()
            assert client._idle == []  # closed, not pooled
            assert list(client.stream(job["id"]))[-1]["event"] == "done"
            assert len(client._idle) == 1  # a finished stream is pooled


def _count_parks(background, job_id):
    """Record every time the job's stream handler parks; returns
    ``(parked event, list of parked cursors)``."""
    buffer = background.app.queue.get(job_id).stream
    parked = threading.Event()
    waits = []
    wait_beyond = buffer.wait_beyond

    async def counted_wait(cursor):
        waits.append(cursor)
        parked.set()
        await wait_beyond(cursor)

    buffer.wait_beyond = counted_wait
    return parked, waits


class TestLiveStream:
    def test_live_stream_is_woken_by_the_job(self, gated_usecase):
        with BackgroundServer(workers=1, chunk_size=1) as background, \
                background.client() as client:
            job = client.submit(_explore_spec([30.0, 45.0],
                                              usecase=gated_usecase))
            assert _GATE_ENTERED.wait(timeout=30.0)
            parked, waits = _count_parks(background, job["id"])
            events = []
            done = threading.Event()

            def tail():
                for event in client.stream(job["id"]):
                    events.append(event)
                done.set()

            threading.Thread(target=tail, daemon=True).start()
            assert parked.wait(timeout=30.0)  # a live tail, not a replay
            assert not done.is_set()
            _GATE.set()
            assert done.wait(timeout=30.0)
            assert [event["event"] for event in events] \
                == ["point", "point", "done"]
            # Every park ends in an append or the close: no polling.
            assert len(waits) <= len(events) + 1


class TestShutdownWithIdleConnections:
    def test_stop_closes_an_idle_pooled_connection(self, caplog):
        background = BackgroundServer(workers=1)
        background.__enter__()
        with background.client() as client:
            assert client.healthz()["status"] == "ok"
            assert len(client._idle) == 1
            began = time.monotonic()
            background.__exit__(None, None, None)
            assert time.monotonic() - began < 1.0
            assert not background._thread.is_alive()
        # No handler was left to be cancelled at loop close.
        assert not [record for record in caplog.records
                    if record.name == "asyncio"]

    def test_stop_lets_an_in_flight_stream_finish(self, gated_usecase):
        background = BackgroundServer(workers=1, chunk_size=1)
        background.__enter__()
        events = []
        client = background.client()
        try:
            job = client.submit(_explore_spec([30.0, 45.0],
                                              usecase=gated_usecase))
            assert _GATE_ENTERED.wait(timeout=30.0)
            parked, _ = _count_parks(background, job["id"])
            tail = threading.Thread(
                target=lambda: events.extend(client.stream(job["id"])))
            tail.start()
            assert parked.wait(timeout=30.0)  # the stream is in flight
            shutdown = threading.Thread(
                target=background.__exit__, args=(None, None, None))
            shutdown.start()
            queued = background.app.queue.get(job["id"])
            deadline = time.monotonic() + 30.0
            while not queued.cancel_requested:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            _GATE.set()
            shutdown.join(timeout=60.0)
            tail.join(timeout=60.0)
            assert not shutdown.is_alive() and not tail.is_alive()
        finally:
            _GATE.set()
            client.close()
        assert events[-1]["event"] == "done"
        assert events[-1]["job"]["state"] == "cancelled"

    def test_stop_aborts_a_stream_its_client_stopped_reading(
            self, monkeypatch, caplog):
        """A response that cannot finish holds shutdown back only for
        ``REQUEST_TIMEOUT_S``; then its connection is aborted."""
        async def endless(job, fmt, start=0):
            while True:
                yield b"x" * 65536

        monkeypatch.setattr(handlers_module, "_stream_events", endless)
        monkeypatch.setattr(app_module, "REQUEST_TIMEOUT_S", 0.5)
        background = BackgroundServer(workers=1)
        background.__enter__()
        with background.client() as client:
            job = client.submit(_run_spec(143.0))
        sock = socket.create_connection(background.address, timeout=10.0)
        try:
            sock.sendall(f"GET /jobs/{job['id']}/stream HTTP/1.1\r\n"
                         f"Host: x\r\n\r\n".encode("latin-1"))
            # Never read: wait until the daemon's writes back up.
            deadline = time.monotonic() + 30.0
            while not any(writer.transport.get_write_buffer_size()
                          for writer in list(background.app._connections)):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            began = time.monotonic()
            shutdown = threading.Thread(
                target=background.__exit__, args=(None, None, None))
            shutdown.start()
            shutdown.join(timeout=30.0)
            assert not shutdown.is_alive()
            assert time.monotonic() - began < 5.0
            assert not background._thread.is_alive()
        finally:
            sock.close()
        assert not [record for record in caplog.records
                    if record.name == "asyncio"]
