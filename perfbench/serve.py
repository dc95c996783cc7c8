"""The ``serve_mixed`` workload: one client against the labeling service.

The benchmark process hosts :class:`~repro.serving.service.LabelingService`
and its HTTP server (default ``spool`` broker, ``pickle`` store), and one
worker runs as its own process.  A single keep-alive connection drives a
closed-loop mix, one request at a time:

1. sessions stream keyword LFs in bursts, more sessions than the service
   keeps live, so the LRU evicts one session and resumes another at the
   start of most bursts; each burst ends with ``GET /sessions/<id>/labels``;
2. cold ``POST /label`` requests for LF sets the store has not seen, each
   polled until ``GET /label/<key>`` answers 200;
3. warm repeats of those requests, answered from the store.

Sessions and LF-set replays add LFs without a query instance, so there are
no pseudo-labels: LabelPick never reaches structure learning and no AL
model is fitted.  The workload is the glasso-free control.
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import json
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import repro.datasets as datasets
from repro.labeling.wire import lf_to_wire
from repro.runner.executor import run_trial
from repro.runner.fleet import fleet_paths, subprocess_env, worker_command
from repro.serving.schemas import canonical_json, label_payload, parse_label_request
from repro.serving.server import serve
from repro.serving.service import LabelingService
from repro.simulation.candidate_space import enumerate_keyword_lfs

from common import Checks, Operations, TokenIndex, derived_seeds, p50, p90, rounds_for
from tracing import SERVICE_SPANS

DATASET, SCALE = "youtube", 1.0
SESSIONS_PER_ROUND = 8
MAX_SESSIONS = 4
LFS_PER_SESSION = 20
BURST = 5
#: Random cold LF sets per round; one more cold request replays session 0.
#: Polling quantises each cold latency to whole poll cycles (~49 ms, see
#: the README), so the metric is their mean: it moves smoothly with the
#: worker's speed where a median would jump by a cycle.
RANDOM_COLD_PER_ROUND = 15
COLD_LFS = (20, 40)
WARM_REPEATS = 2
WARMUP_LFS = 10
#: Rounds per run are ``round(seconds / ROUND_SECONDS)``; a round takes
#: ~20 s on the reference machine, so the default 48 s makes two.
ROUND_SECONDS = 20.0
#: Full service set-ups per run (the median is reported as ``setup_s``).
SETUPS = 3
#: Client poll interval for pending cold requests, and the worker's poll
#: interval on an empty queue (its 0.2 s default would dominate the wait).
CLIENT_POLL_S = 0.005
WORKER_POLL_S = 0.01

_DONE_LINE = re.compile(r"\] ([0-9a-f]{12})\.\.\. done in ")
HERE = Path(__file__).resolve().parent


class ServiceStack:
    """Service, HTTP server thread and worker process under one directory."""

    def __init__(self, root: Path, tracer=None):
        self.root = root
        self.tracer = tracer
        self.spool, self.cache = fleet_paths(root)
        self.worker_log = root / "worker.log"
        self.worker_trace = root / "worker-trace.json"
        self.service = self.server = self.worker = None

    def start(self) -> None:
        self.root.mkdir(parents=True)
        self.service = LabelingService(
            self.spool, self.cache, max_sessions=MAX_SESSIONS,
            session_dir=self.root / "sessions",
        )
        self.server = serve(self.service, quiet=True)
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()
        if self.tracer is None:
            command = worker_command(self.spool, self.cache, poll_interval=WORKER_POLL_S)
        else:
            command = [
                sys.executable, str(HERE / "traced_worker.py"),
                "--spool", self.spool, "--cache-dir", self.cache,
                "--poll-interval", str(WORKER_POLL_S), "--trace-out", str(self.worker_trace),
            ]
        self._log = open(self.worker_log, "w", encoding="utf-8")
        self.worker = subprocess.Popen(
            command, env=subprocess_env(), stdout=subprocess.DEVNULL, stderr=self._log
        )
        host, port = self.server.server_address[:2]
        self.address = (host, port)

    def stop(self) -> None:
        """Stop whatever :meth:`start` started and wait for the worker to exit."""
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=10)
        if self.service is not None:
            self.service.close()
        if self.worker is not None:
            self.worker.send_signal(signal.SIGINT)
            try:
                self.worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.worker.kill()
                self.worker.wait()
            self._log.close()
        if self.tracer is not None and self.worker_trace.exists():
            self.tracer.merge(self.worker_trace)

    def executions(self) -> dict[str, int]:
        """Trials the worker executed, by 12-character key prefix."""
        counts: dict[str, int] = {}
        for line in self.worker_log.read_text(encoding="utf-8").splitlines():
            match = _DONE_LINE.search(line)
            if match:
                counts[match.group(1)] = counts.get(match.group(1), 0) + 1
        return counts


class Client:
    """One keep-alive connection; every request is timed and accounted."""

    def __init__(self, address, ops: Operations, tracer=None):
        self.connection = http.client.HTTPConnection(*address, timeout=60)
        self.ops = ops
        self.tracer = tracer
        self.http_ms: list[float] = []
        self.polls = 0

    def request(self, method: str, path: str, route: str, body=None, count=True):
        """Send one request; returns ``(status, raw_body, seconds, first_byte_seconds)``.

        The first-byte time ends when the status line and headers have
        arrived, before the body is read.
        """
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if data is not None else {}
        mark = len(self.tracer.spans) if self.tracer is not None else 0
        started = time.perf_counter()
        try:
            self.connection.request(method, path, body=data, headers=headers)
            response = self.connection.getresponse()
            first_byte = time.perf_counter() - started
            raw = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as error:
            print(f"{method} {path} raised {error!r}", file=sys.stderr)
            status, raw, first_byte = 599, b"", 0.0
        elapsed = time.perf_counter() - started
        if count:
            self.ops.record(f"{method} {route}", status < 400)
        if self.tracer is not None:
            service = [
                span for span in self.tracer.spans[mark:]
                if span[1] == 0 and span[2] in SERVICE_SPANS
            ]
            if len(service) == 1:
                self.http_ms.append((elapsed - (service[0][4] - service[0][3])) * 1e3)
        return status, raw, elapsed, first_byte

    def cold_label(self, body) -> tuple[bool, bytes, float]:
        """``POST /label`` then poll until 200; returns ``(ok, bytes, seconds)``."""
        started = time.perf_counter()
        status, raw, _, _ = self.request("POST", "/label", "/label", body, count=False)
        ok = status == 202
        if ok:
            key = json.loads(raw)["key"]
            while True:
                status, raw, _, _ = self.request(
                    "GET", f"/label/{key}", "/label/<key>", count=False
                )
                self.polls += 1
                if status != 202:
                    break
                time.sleep(CLIENT_POLL_S)
            ok = status == 200
        elapsed = time.perf_counter() - started
        self.ops.record("cold POST /label (polled to 200)", ok)
        return ok, raw, elapsed

    def close(self) -> None:
        self.connection.close()


def _plan(seed: int, n_rounds: int, train) -> dict:
    """The run's LF streams and LF sets, drawn from the workload seed."""
    rng = random.Random(f"serve_mixed/lfs/{seed}")
    pool = [lf_to_wire(candidate.lf) for candidate in enumerate_keyword_lfs(train)]
    rounds = []
    for _ in range(n_rounds):
        # Sessions stream disjoint slices of one shuffle of the pool.
        rng.shuffle(pool)
        streams = [
            pool[index * LFS_PER_SESSION:(index + 1) * LFS_PER_SESSION]
            for index in range(SESSIONS_PER_ROUND)
        ]
        cold = [
            rng.sample(pool, rng.randint(*COLD_LFS)) for _ in range(RANDOM_COLD_PER_ROUND)
        ]
        rounds.append({"streams": streams, "cold": cold + [streams[0]]})
    return {"warmup": rng.sample(pool, WARMUP_LFS), "rounds": rounds}


def run(seed: int, seconds: float, work_dir: Path, tracer=None) -> dict:
    """Run ``serve_mixed``; returns samples, checks and accounting."""
    ops, checks = Operations(), Checks()
    corpus_seed = derived_seeds("serve_mixed", seed, 1)[0]
    n_rounds = rounds_for(seconds, ROUND_SECONDS)

    def paused():
        return tracer.paused() if tracer is not None else contextlib.nullcontext()

    with paused():
        split = datasets.load_dataset(DATASET, scale=SCALE, random_state=corpus_seed)
    plan = _plan(seed, n_rounds, split.train)

    def body_for(lfs):
        return {"dataset": DATASET, "lfs": lfs, "seed": corpus_seed, "scale": SCALE}

    keys = [parse_label_request(body_for(lfs)).key for r in plan["rounds"] for lfs in r["cold"]]
    checks.expect(len(keys) == len(set(keys)), "planned cold LF sets are not distinct")

    setups: list[float] = []
    samples = {"step": [], "step_first_byte": [], "labels": [], "cold": [], "warm": []}
    served = []  # (payload, streamed keywords or None)
    cold_bytes: dict[str, bytes] = {}
    replays = []
    stack = client = None
    try:
        for index in range(SETUPS):
            if stack is not None:
                client.close()
                stack.stop()
            gc.collect()
            started = time.perf_counter()
            stack = ServiceStack(work_dir / f"service{index}", tracer)
            stack.start()
            client = Client(stack.address, ops, tracer)
            ok, _, _ = client.cold_label(body_for(plan["warmup"]))
            setups.append(time.perf_counter() - started)
            checks.expect(ok, "warm-up cold request failed")

        started = time.perf_counter()
        for round_plan in plan["rounds"]:
            _run_round(
                client, round_plan, body_for, corpus_seed, samples, served, cold_bytes,
                replays, checks,
            )
        run_seconds = time.perf_counter() - started
        status, raw, _, _ = client.request("GET", "/stats", "/stats")
        stats = json.loads(raw) if status == 200 else {}
    finally:
        if client is not None:
            client.close()
        if stack is not None:
            stack.stop()

    with paused():
        _check_service(
            stack, stats, plan, body_for, keys, split, served, cold_bytes, replays, checks
        )
    session_stats = stats.get("sessions", {})
    accuracies = [
        payload["end_model"]["test_accuracy"] for payload, _ in served if payload["end_model"]
    ]
    label_quality = [_label_quality(payload["labels"], split.train) for payload, _ in served]
    return {
        "ops": ops,
        "checks": checks,
        "setup": setups,
        "run_s": run_seconds,
        "polls": client.polls,
        "info": {
            "step_ms_p50": p50(samples["step"]) * 1e3,
            "step_first_byte_ms_p50": p50(samples["step_first_byte"]) * 1e3,
        },
        "metrics": {
            "step_ms_mean": float(np.mean(samples["step"])) * 1e3,
            "step_ms_p90": p90(samples["step"]) * 1e3,
            "labels_ms_p50": p50(samples["labels"]) * 1e3,
            "cold_label_ms_mean": float(np.mean(samples["cold"])) * 1e3,
            "warm_label_ms_p50": p50(samples["warm"]) * 1e3,
            "avg_test_accuracy": float(np.mean(accuracies)),
            "label_accuracy": float(np.mean([acc for acc, _ in label_quality])),
            "label_coverage": float(np.mean([cov for _, cov in label_quality])),
        },
        "layers": {
            "serving.resumes": session_stats.get("resumes", 0),
            "serving.evictions": session_stats.get("evictions", 0),
            "serving.http_ms_p50": p50(client.http_ms) if client.http_ms else 0.0,
        },
    }


def _run_round(
    client, round_plan, body_for, corpus_seed, samples, served, cold_bytes, replays, checks
):
    """One round of the mix: session bursts interleaved with cold and warm labels."""
    sessions = []
    for _ in range(SESSIONS_PER_ROUND):
        status, raw, _, _ = client.request(
            "POST", "/sessions", "/sessions",
            {"dataset": DATASET, "seed": corpus_seed, "scale": SCALE},
        )
        sessions.append(json.loads(raw)["session_id"] if status == 201 else None)
    finals = {}

    def label_request(lfs):
        ok, raw, elapsed = client.cold_label(body_for(lfs))
        if not ok:
            return None
        samples["cold"].append(elapsed)
        payload = json.loads(raw)
        cold_bytes[payload["key"]] = raw
        served.append((payload["artifacts"], None))
        for _ in range(WARM_REPEATS):
            status, warm, elapsed, _ = client.request(
                "POST", "/label", "/label (warm)", body_for(lfs)
            )
            samples["warm"].append(elapsed)
            checks.expect(
                status == 200 and warm == raw, f"warm response for {payload['key'][:12]} differs"
            )
        return payload

    n_bursts = LFS_PER_SESSION // BURST
    for burst in range(n_bursts):
        for index, session in enumerate(sessions):
            if session is None:
                continue
            stream = round_plan["streams"][index][: (burst + 1) * BURST]
            for lf in stream[burst * BURST:]:
                status, _, elapsed, first_byte = client.request(
                    "POST", f"/sessions/{session}/lfs", "/sessions/<id>/lfs", lf
                )
                samples["step"].append(elapsed)
                samples["step_first_byte"].append(first_byte)
            status, raw, elapsed, _ = client.request(
                "GET", f"/sessions/{session}/labels", "/sessions/<id>/labels"
            )
            samples["labels"].append(elapsed)
            if status == 200:
                payload = json.loads(raw)
                served.append((payload, [lf["keyword"] for lf in stream]))
                finals[index] = payload
        first = burst * RANDOM_COLD_PER_ROUND // n_bursts
        last = (burst + 1) * RANDOM_COLD_PER_ROUND // n_bursts
        for lfs in round_plan["cold"][first:last]:
            label_request(lfs)

    replay = label_request(round_plan["cold"][-1])
    if replay is not None and 0 in finals:
        replays.append((replay, finals[0]))
    for session in sessions:
        if session is not None:
            client.request("DELETE", f"/sessions/{session}", "/sessions/<id>")


def _check_service(stack, stats, plan, body_for, keys, split, served, cold_bytes, replays, checks):
    """Output checks made apart from the service, after the measured phase."""
    first = parse_label_request(body_for(plan["rounds"][0]["cold"][0]))
    direct = canonical_json(label_payload(first, run_trial(first)))
    checks.expect(
        cold_bytes.get(first.key) == direct,
        "served cold response differs from a direct run_trial of the same spec",
    )
    checks.expect(bool(replays), "no session replay was served")
    for replay, session in replays:
        checks.expect(
            replay["artifacts"]["labels"] == session["labels"],
            f"replay {replay['key'][:12]} labels differ from its session's labels",
        )

    train_index = TokenIndex(split.train)
    for payload, keywords in served:
        if keywords is None:
            continue
        covered = np.zeros(len(split.train), dtype=bool)
        for keyword in keywords:
            covered |= train_index.fires(keyword)
        accepted = np.array(payload["labels"]["accepted"], dtype=bool)
        checks.expect(
            not np.any(accepted & ~covered),
            f"session {payload['session']}: accepted label on a row no streamed keyword matches",
        )

    warmup_key = parse_label_request(body_for(plan["warmup"])).key
    distinct = set(keys) | {warmup_key}
    requests = stats.get("requests", {})
    checks.expect(
        requests.get("enqueued") == len(distinct),
        f"enqueued {requests.get('enqueued')} times for {len(distinct)} distinct cold keys",
    )
    checks.expect(requests.get("failed") == 0, f"service reports failed jobs: {requests}")
    executions = stack.executions()
    checks.expect(
        executions == {key[:12]: 1 for key in distinct},
        f"worker executions {sorted(executions.values())} for {len(distinct)} keys",
    )
    sessions = stats.get("sessions", {})
    checks.expect(
        sessions.get("evictions", 0) > 0 and sessions.get("resumes", 0) > 0,
        f"the session mix neither evicted nor resumed: {sessions}",
    )


def _label_quality(labels: dict, train) -> tuple[float, float]:
    """Accuracy and coverage of served labels against the generator's truth."""
    accepted = np.array(labels["accepted"], dtype=bool)
    values = np.array(labels["values"], dtype=int)
    if not accepted.any():
        return 0.0, 0.0
    accuracy = float(np.mean(values[accepted] == train.labels[accepted]))
    return accuracy, float(np.mean(accepted))
