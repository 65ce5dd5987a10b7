"""One fresh measurement process: set up, run the fixed job list, report.

``run.py`` starts this script once per repeat, in a new interpreter with
an empty plan cache, no disk tier and no tuning table.  It prints one JSON
record on its last stdout line: the set-up time (from the parent's spawn
instant to the first timed job), the per-job latencies and outcomes, the
timed wall, the process's peak RSS and, with ``--extras``, the
deterministic plan-quality numbers (simulated algorithm bandwidth, TBs per
rank) computed outside the timed region.  With ``--setup-only`` it stops
after set-up and reports only the set-up time.  With ``--trace`` the process
arms the program's span tracer and metrics registry, wraps its own calls
into each layer in spans, and writes every span to ``--spans-out`` when
the run ends.

The program is driven only through its public functions:
``ResCCLBackend.plan``, ``simulate``, ``tuning.tuner.tune``, the ``resccl
serve`` command and ``ServiceClient``.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

from jobs import TUNE_GRID, job_key, make_jobs  # noqa: E402
from machine import proc_stats  # noqa: E402
from stats import geomean  # noqa: E402

from repro import obs  # noqa: E402
from repro.core import ResCCLBackend  # noqa: E402
from repro.core.compiler import compile_fingerprint  # noqa: E402
from repro.core.plancache import get_cache  # noqa: E402
from repro.runtime import MB, simulate  # noqa: E402
from repro.service.protocol import result_digest  # noqa: E402
from repro.topology import Cluster  # noqa: E402
from repro.tuning.table import resolve_spec  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXAMPLES = ROOT / "examples" / "algorithms"


def _golden(workload: str) -> dict:
    with open(HERE / "golden.json") as fh:
        return json.load(fh)[workload]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def job_cluster(job: dict) -> Cluster:
    return Cluster(nodes=job["nodes"], gpus_per_node=job["gpus"])


def resolve(spec: str, cluster: Cluster, sources: dict):
    """A job's plan source: inline ResCCLang text or a built program."""
    if spec.startswith("dsl:"):
        return sources[spec[4:]]
    return resolve_spec(spec, cluster)


def plan_digest(plan, compiled) -> str:
    """Output identity of one planned collective."""
    return result_digest({
        "compile": compile_fingerprint(compiled),
        "n_microbatches": plan.n_microbatches,
        "tb_programs": len(plan.tb_programs),
        "max_tbs_per_rank": plan.max_tbs_per_rank(),
    })


def request_fields(job: dict) -> dict:
    """The service request body of a serve-closed job."""
    return {"algorithm": job["spec"], "nodes": job["nodes"],
            "gpus": job["gpus"], "buffer_mb": job["buffer_mb"]}


def read_sources() -> dict:
    return {p.name: p.read_text() for p in sorted(EXAMPLES.glob("*.rescclang"))}


class Workload:
    """Set-up, one timed job, and the untimed extras of one workload."""

    name = ""
    #: Concurrent closed-loop callers issuing the jobs.
    clients = 1

    def __init__(self, jobs, sandbox: Path, index: int) -> None:
        self.jobs = jobs
        self.sandbox = sandbox
        self.index = index
        self.golden = _golden(self.name)
        self.counts: dict = {}

    def setup(self) -> None:
        pass

    def run_all(self, passes, latencies, outcomes) -> list:
        """Run the job list ``passes`` times; returns each pass's timed
        wall (s).  ``latencies`` gets one list per pass, in job order.

        Each job starts from the same garbage-collector state: the set-up
        heap is frozen once, and an untimed collection before every job
        empties the young generations.  A job then pays for the
        collections its own allocations trigger, and not for a full
        collection that the jobs before it happened to make due, so its
        time does not depend on its place in the seeded order."""
        gc.collect()
        gc.freeze()
        walls = []
        for _ in range(passes):
            times = []
            wall = 0.0
            for job in self.jobs:
                gc.collect()
                start = time.perf_counter()
                ok, elapsed = self.timed(job)
                wall += time.perf_counter() - start
                times.append(elapsed)
                outcomes.append(ok)
            walls.append(wall)
            latencies.append(times)
        return walls

    def timed(self, job):  # pragma: no cover - abstract
        raise NotImplementedError

    def extras(self) -> dict:
        return {}

    def close(self) -> None:
        pass

    def rss_mb(self) -> float:
        return _peak_rss_mb()


class CompileCold(Workload):
    """Cold ``ResCCLBackend.plan()`` calls; the cache is cleared first."""

    name = "compile-cold"

    def setup(self) -> None:
        self.sources = read_sources()
        self.backend = ResCCLBackend()
        # Only the jobs are kept: holding their plans would grow the heap
        # every later job's garbage collections walk.
        self.distinct = {}
        self.counts = {"hits": 0, "lookups": 0, "lowered_hits": 0,
                       "validate_s": 0.0}

    def timed(self, job):
        cluster = job_cluster(job)
        cache = get_cache()
        cache.clear()
        try:
            start = time.perf_counter()
            with obs.span("job"):
                with obs.span("frontend.build"):
                    program = resolve(job["spec"], cluster, self.sources)
                plan = self.backend.plan(cluster, program, job["buffer_mb"] * MB)
            elapsed = time.perf_counter() - start
            if obs.current_tracer() is not None:
                # Validation runs inside simulate(), which compile-cold
                # never calls; the traced run times it on its own.
                t0 = time.perf_counter()
                plan.validate()
                self.counts["validate_s"] += time.perf_counter() - t0
            stats = cache.stats
            self.counts["hits"] += stats.hits
            self.counts["lookups"] += stats.lookups
            self.counts["lowered_hits"] += stats.lowered_hits
            compiled = self.backend.compile(program, cluster)
            key = job_key(self.name, job)
            ok = self.golden.get(key) == plan_digest(plan, compiled)
            self.distinct[key] = job
        except Exception as exc:  # a failed job is counted, not fatal
            print(f"job failed: {job}: {exc!r}", file=sys.stderr)
            return False, time.perf_counter() - start
        return ok, elapsed

    def extras(self) -> dict:
        algbw, tbs = [], []
        for job in self.distinct.values():
            cluster = job_cluster(job)
            plan = self.backend.plan(
                cluster, resolve(job["spec"], cluster, self.sources),
                job["buffer_mb"] * MB,
            )
            algbw.append(simulate(plan).algo_bandwidth_gbps)
            tbs.append(plan.max_tbs_per_rank())
        return {"sim_algbw_gbps": geomean(algbw),
                "plan_tbs_per_rank": sum(tbs) / len(tbs)}


class ServeClosed(Workload):
    """A ``resccl serve`` daemon driven by two closed-loop clients."""

    name = "serve-closed"
    clients = 2

    def setup(self) -> None:
        from repro.service import ServiceClient

        self.client_cls = ServiceClient
        cache_dir = self.sandbox / f"serve-cache-{self.index}"
        cache_dir.mkdir(parents=True, exist_ok=True)
        self.log_path = self.sandbox / f"serve-{self.index}.log"
        self.log = open(self.log_path, "w")
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--cache-dir", str(cache_dir)],
            stdout=subprocess.DEVNULL, stderr=self.log, env=os.environ.copy(),
        )
        self.port = self._wait_listening(deadline_s=60.0)
        with ServiceClient("127.0.0.1", self.port, timeout_s=60.0) as client:
            while client.readyz().get("http_status") != 200:
                if time.perf_counter() > self._deadline:
                    raise RuntimeError("daemon never became ready")
                time.sleep(0.02)
        warm = {}
        for job in self.jobs:
            if job["cls"] != "cold":
                warm.setdefault(job_key(self.name, job), job)
        self.results = {}
        self.counts = {"worker_ms": [], "roundtrip_ms": []}
        self._drive(list(warm.values()), [], [], record=False)

    def _wait_listening(self, deadline_s: float) -> int:
        self._deadline = time.perf_counter() + deadline_s
        while time.perf_counter() < self._deadline:
            if self.daemon.poll() is not None:
                raise RuntimeError(f"daemon exited {self.daemon.returncode}")
            for line in self.log_path.read_text().splitlines():
                if '"listening"' in line:
                    url = json.loads(line)["url"]
                    return int(url.rsplit(":", 1)[1])
            time.sleep(0.02)
        raise RuntimeError("daemon never listened")

    def _drive(self, jobs, latencies, outcomes, record=True) -> None:
        """Closed loop: each client sends its next job after its reply.

        A reply that joined an identical request already in flight
        (``coalesced``) waited only for the rest of that request, so its
        latency is recorded as ``None`` and left out of its key's best."""
        lock = threading.Lock()
        cursor = iter(list(enumerate(jobs)))
        slots = [None] * len(jobs)

        def client_loop() -> None:
            with self.client_cls("127.0.0.1", self.port, timeout_s=120.0) as c:
                while True:
                    with lock:
                        item = next(cursor, None)
                    if item is None:
                        return
                    index, job = item
                    start = time.perf_counter()
                    try:
                        with obs.span("job"):
                            reply = c.request(job["op"], **request_fields(job))
                        elapsed = time.perf_counter() - start
                        result = reply["result"]
                        ok = (self.golden.get(job_key(self.name, job))
                              == result_digest(result))
                    except Exception as exc:
                        print(f"job failed: {job}: {exc!r}", file=sys.stderr)
                        slots[index] = (False, time.perf_counter() - start,
                                        None, False)
                        continue
                    slots[index] = (ok, elapsed, result, reply["coalesced"])

        threads = [threading.Thread(target=client_loop)
                   for _ in range(self.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for job, slot in zip(jobs, slots):
            ok, elapsed, result, coalesced = slot
            latencies.append(None if coalesced else elapsed)
            outcomes.append(ok)
            if result is not None and record:
                self.results.setdefault(job_key(self.name, job), result)
                self.counts["worker_ms"].append(result["wall_ms"])
                self.counts["roundtrip_ms"].append(elapsed * 1e3)

    def run_all(self, passes, latencies, outcomes) -> list:
        # One pass per daemon: a second pass would find the cold keys warm.
        if passes != 1:
            raise ValueError("serve-closed runs one pass per daemon")
        times = []
        start = time.perf_counter()
        self._drive(self.jobs, times, outcomes)
        wall = time.perf_counter() - start
        latencies.append(times)
        with self.client_cls("127.0.0.1", self.port, timeout_s=60.0) as c:
            self.counts["metrics"] = c.metrics()
        self._rss = self._daemon_rss_mb()
        return [wall]

    def _daemon_rss_mb(self) -> float:
        """Peak RSS over the daemon and its worker processes."""
        pids = [self.daemon.pid] + [
            pid for pid, _, ppid, _ in proc_stats() if ppid == self.daemon.pid
        ]
        peak_kb = 0
        for pid in pids:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    peak_kb = max(peak_kb, int(line.split()[1]))
        return peak_kb / 1024.0

    def rss_mb(self) -> float:
        return self._rss

    def extras(self) -> dict:
        sims = [r for k, r in self.results.items() if k.startswith("simulate|")]
        return {
            "sim_algbw_gbps": geomean(r["algo_bandwidth_gbps"] for r in sims),
            "plan_tbs_per_rank": sum(r["max_tbs_per_rank"] for r in sims)
            / len(sims),
        }

    def close(self) -> None:
        daemon = getattr(self, "daemon", None)
        if daemon is not None and daemon.poll() is None:
            daemon.send_signal(signal.SIGTERM)
            try:
                daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
        log = getattr(self, "log", None)
        if log is not None:
            log.close()


class TuneCells(Workload):
    """Cold ``tune()`` calls over a seeded list of small cells, one cell
    per call."""

    name = "tune-cells"

    def setup(self) -> None:
        from repro.tuning.tuner import Cell, tune

        self.tune = tune
        self.cell_cls = Cell
        self.entries = {}
        self.counts = {"cells": 0, "screened": 0, "exact_scored": 0,
                       "cell_s": 0.0}
        self.table_path = self.sandbox / f"tuning-{self.index}.json"

    def timed(self, job):
        # Every job starts cold: no tuning table and an empty plan cache
        # (a warm cache makes a repeated tune() ~30% faster, so a job's
        # time would depend on its place in the seeded order).
        self.table_path.unlink(missing_ok=True)
        get_cache().clear()
        cell = self.cell_cls(job["collective"], job["buffer_mb"],
                             job["nodes"], job["gpus"])
        start = time.perf_counter()
        try:
            with obs.span("job"):
                report = self.tune([cell], self.table_path, jobs=1,
                                   **TUNE_GRID)
            elapsed = time.perf_counter() - start
        except Exception as exc:
            print(f"job failed: {job}: {exc!r}", file=sys.stderr)
            return False, time.perf_counter() - start
        (result,) = report.results
        self.counts["cells"] += 1
        self.counts["screened"] += result.screened
        self.counts["exact_scored"] += result.exact_scored
        self.counts["cell_s"] += result.wall_s
        if result.status != "scored":
            return False, elapsed
        key = job_key(self.name, job)
        self.entries[key] = (cell, result.entry)
        return self.golden.get(key) == result.entry["config"], elapsed

    def extras(self) -> dict:
        from repro.tuning.table import TunedConfig

        algbw, tbs = [], []
        for cell, entry in self.entries.values():
            algbw.append(cell.buffer_bytes / entry["tuned_us"] / 1e3)
            config = TunedConfig.from_dict(entry["config"])
            cluster = cell.cluster()
            backend = ResCCLBackend(
                scheduler=config.scheduler,
                max_microbatches=config.max_microbatches,
                target_chunk_kb=config.chunk_kb,
                tb_allowance=config.tb_allowance,
                use_tuning=False,
            )
            plan = backend.plan(cluster, resolve_spec(config.algorithm, cluster),
                                float(cell.buffer_bytes))
            tbs.append(plan.max_tbs_per_rank())
        return {"sim_algbw_gbps": geomean(algbw),
                "plan_tbs_per_rank": sum(tbs) / len(tbs)}


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (CompileCold, ServeClosed, TuneCells)
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_CLASSES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawn-t", type=float, required=True,
                        help="parent's perf_counter() just before spawning")
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--sandbox", required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--extras", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    jobs = make_jobs(args.workload, args.seed)
    workload = WORKLOAD_CLASSES[args.workload](
        jobs, Path(args.sandbox), args.index
    )
    latencies, outcomes = [], []
    with contextlib.ExitStack() as stack:
        ob = stack.enter_context(obs.observe()) if args.trace else None
        stack.callback(workload.close)
        workload.setup()
        record = {
            "setup_s": time.perf_counter() - args.spawn_t,
            "import_s": _PROCESS_T0 - args.spawn_t,
        }
        if args.setup_only:
            print(json.dumps(record))
            return 0
        walls = workload.run_all(args.passes, latencies, outcomes)
        record.update({
            "wall_s": sum(walls),
            "pass_wall_s": walls,
            "latencies_s": latencies,
            "ok": outcomes,
            "peak_rss_mb": workload.rss_mb(),
            "clients": workload.clients,
        })
        if args.extras:
            record["extras"] = workload.extras()
    if ob is not None:
        from layers import layer_metrics

        record["layers"] = layer_metrics(
            args.workload, ob.tracer, ob.registry, workload.counts
        )
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump(ob.tracer.to_dict(), fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
