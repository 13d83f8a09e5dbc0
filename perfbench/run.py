"""The repository benchmark: one workload per run, timed end to end.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload explore-grid --seed 1 --seconds 20 --trace 0

It times set-up on several fresh processes, runs the workload in another
fresh process (``workloads.py``), checks its outputs, and prints each
metric by name with its unit.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  See README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time

from hostref import normalized, reference_s

#: Fresh processes timed per run for ``setup_s``, half before the worker
#: and half after it, so a change of host speed during the run reaches
#: both halves; the median is reported.
SETUP_PROBES = 12
HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
OUT_DIR = ROOT / ".perfbench_out"


def child_env():
    """The environment of every process the benchmark starts.

    Ambient ``REPRO_*`` settings (disk cache, faults, executor, retries)
    would change what is measured, so they are dropped.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    # A fixed string-hash seed gives every process the same dict and set
    # layouts, which removes one source of run-to-run spread.
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def wait_line(process, deadline):
    line = process.stdout.readline()
    if not line or time.monotonic() > deadline:
        raise RuntimeError("set-up probe exited without reporting")
    return json.loads(line)


def stop(process):
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def probe_setup(workload, seed, env):
    """Seconds from process start to ready, and the ``import repro`` time."""
    deadline = time.monotonic() + 60.0
    if workload == "serve-mixed":
        ready = OUT_DIR / f"probe-{os.getpid()}.json"
        if ready.exists():
            ready.unlink()
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--ready-file", str(ready)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            while not ready.exists():
                if process.poll() is not None \
                        or time.monotonic() > deadline:
                    raise RuntimeError("serve daemon did not become ready")
                time.sleep(0.001)
            elapsed = time.perf_counter() - started
        finally:
            stop(process)
        ready.unlink()
        return elapsed, None
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only", "--out-dir", str(OUT_DIR)],
        env=env, stdout=subprocess.PIPE, text=True)
    try:
        report = wait_line(process, deadline)
        elapsed = time.perf_counter() - started
    finally:
        stop(process)
    return elapsed, report["import_s"]


def run_worker(args, env, timeout):
    process = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", str(OUT_DIR)],
        env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = process.communicate(timeout=timeout)
    finally:
        stop(process)
    if process.returncode != 0:
        raise RuntimeError(f"workload process exited {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def meta(env):
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        env=env, capture_output=True, text=True, timeout=60).stdout.strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy or "missing", "git_sha": git_sha()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a repro source checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [entry["name"] for entry in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    OUT_DIR.mkdir(exist_ok=True)
    env = child_env()
    started = time.monotonic()

    # A traced run needs only the import time, which the daemon of
    # serve-mixed does not report; any other workload's probe gives it.
    probed = "explore-grid" if args.trace \
        and args.workload == "serve-mixed" else args.workload

    def probe():
        """(set-up seconds, import seconds, host-speed kernel seconds)."""
        reference = reference_s()
        return probe_setup(probed, args.seed, env) + (reference,)

    probes = [probe() for _ in range(SETUP_PROBES // 2)]
    budget = 160.0 - (time.monotonic() - started)
    worker = run_worker(args, env, timeout=budget)
    probes += [probe() for _ in range(SETUP_PROBES - len(probes))]
    info = meta(env)

    if args.trace:
        values = dict(worker["layers"])
        values["import.repro_s"] = statistics.median(
            import_s for _, import_s, _ in probes)
        info["profile"] = worker["profile"]
    else:
        values = dict(worker["end_to_end"])
        values["setup_s"] = statistics.median(
            normalized(elapsed, reference) for elapsed, _, reference in probes)
        values["peak_rss_mb"] = worker["peak_rss_mb"]
        values["validation_mape_pct"] = worker["validation_mape_pct"]
        # Every figure that is not a gated metric goes to meta: the sample
        # counts, the wall-clock figures, and the round workloads' p95,
        # which has too few samples to be steady.
        gated = {entry["name"] for entry in spec["end_to_end"]}
        info.update((name, values.pop(name)) for name in list(values)
                    if name not in gated)
        info["raw_setup_s"] = statistics.median(
            elapsed for elapsed, _, _ in probes)
        info["validation_s"] = worker["validation_s"]
    metrics = {entry["name"]: {"value": values[entry["name"]],
                               "unit": entry["unit"]}
               for entry in spec["per_layer" if args.trace else "end_to_end"]}
    attempted, failed = worker["attempted"], worker["failed"]
    info["failed_fraction"] = failed / attempted
    info["checks"] = worker["notes"]
    print("meta: " + json.dumps(info, sort_keys=True))
    for name, entry in metrics.items():
        print(f"{args.workload:>16} {name:<30} {entry['value']:>14.6g} "
              f"{entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
