"""The load client: one process, at most ``threads`` keep-alive connections.

Reads a JSON plan written by ``run.py`` and drives its phases through
one base URL (the balancer):

``open``
    Open loop.  Every request has a due time (Poisson arrivals); a
    worker thread takes the next request, waits until it is due and
    sends it on the thread's keep-alive connection.  Latency runs from
    the due time, so a stall also counts against the requests queued
    behind it; how late each send was is recorded separately.
``closed``
    Closed loop.  Each thread sends its own target stream back to back
    until the phase ends; the phase reports the reads completed in each
    whole second.

The open loop may carry ingests: ``POST /v1/ingest`` of a pre-generated
CSV day, due at fixed offsets, taken by whichever thread is free and
timed from send to response.  Ingests never overlap each other.

Every response is checked here: the status must be 200, the ETag must
be the SHA-256 of the body, and two responses for one (store version,
target) must carry the same bytes.  The first body of each key is
written out so ``run.py`` can compare it with the in-process answer.

    python3 perfbench/client.py PLAN.json
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import INF, Tracer  # noqa: E402

#: Seconds an open-loop phase may run past its schedule before the
#: requests still unsent are counted as failed.
OVERRUN_LIMIT = 30.0


class Client:
    def __init__(self, plan: dict) -> None:
        self.host = plan["host"]
        self.port = plan["port"]
        self.ingest_port = plan["ingest_port"]
        self.threads = plan["threads"]
        self.tracer = Tracer(enabled=bool(plan["trace"]))
        self.lock = threading.Lock()
        self.ingest_lock = threading.Lock()
        self.bodies: dict[str, dict] = {}
        self.mismatches: list[str] = []
        self.ingests: list[dict] = []

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    # -- one exchange -----------------------------------------------------
    def exchange(self, conn_box: list, method: str, target: str,
                 body: bytes = b"", headers: dict | None = None
                 ) -> tuple[int, dict, bytes]:
        """One request on the thread's connection; reconnects on failure."""
        if conn_box[0] is None:
            conn_box[0] = self.connect()
        conn = conn_box[0]
        try:
            conn.request(method, target, body=body or None,
                         headers=headers or {})
            response = conn.getresponse()
            data = response.read()
            return response.status, dict(response.getheaders()), data
        except (OSError, http.client.HTTPException):
            conn.close()
            conn_box[0] = None
            raise

    def check(self, target: str, status: int, headers: dict,
              body: bytes) -> bool:
        """Status, ETag and per-(version, target) byte identity."""
        if status != 200:
            self.note(f"{target}: status {status}")
            return False
        digest = hashlib.sha256(body).hexdigest()
        if headers.get("ETag") != f'"{digest}"':
            self.note(f"{target}: ETag {headers.get('ETag')} is not the "
                      "SHA-256 of the body")
            return False
        key = f"{headers.get('X-Repro-Store-Version')} {target}"
        with self.lock:
            seen = self.bodies.get(key)
            if seen is None:
                self.bodies[key] = {"digest": digest,
                                    "body": body.decode("utf-8")}
                return True
        if seen["digest"] != digest:
            self.note(f"{key}: two different bodies for one version")
            return False
        return True

    def note(self, message: str) -> None:
        with self.lock:
            if len(self.mismatches) < 50:
                self.mismatches.append(message)
            else:
                self.mismatches.append("...")

    def read(self, conn_box: list, target: str, request_id: str | None
             ) -> bool:
        headers = {"X-Request-Id": request_id} if request_id else None
        try:
            status, response_headers, body = self.exchange(
                conn_box, "GET", target, headers=headers)
        except (OSError, http.client.HTTPException) as error:
            self.note(f"{target}: {type(error).__name__}")
            return False
        return self.check(target, status, response_headers, body)

    def ingest(self, conn_box: list, item: dict) -> None:
        """One ingest, straight to the pool: the balancer round-robins
        POSTs onto the read-only follower, which answers 403.

        The thread's balancer connection is closed first, so the client
        never holds more than one connection per thread.
        """
        body = Path(item["csv"]).read_bytes()
        if conn_box[0] is not None:
            conn_box[0].close()
            conn_box[0] = None
        with self.ingest_lock:
            sent = time.perf_counter()
            box = [http.client.HTTPConnection(self.host, self.ingest_port,
                                              timeout=120)]
            try:
                status, _, data = self.exchange(
                    box, "POST", item["target"], body=body,
                    headers={"Content-Type": "text/csv"})
                version = (json.loads(data)["store_version"]
                           if status == 200 else None)
            except (OSError, http.client.HTTPException, ValueError,
                    KeyError) as error:
                status, version = None, None
                self.note(f"ingest {item['target']}: {type(error).__name__}")
            finally:
                if box[0] is not None:
                    box[0].close()
            done = time.perf_counter()
            if status != 200:
                self.note(f"ingest {item['target']}: status {status}")
            self.ingests.append({
                "target": item["target"], "provider": item["provider"],
                "date": item["date"], "index": item["index"],
                "sent": sent, "done": done, "status": status,
                "version": version})

    # -- phases -----------------------------------------------------------
    def run_open(self, phase: dict) -> dict:
        requests = phase["requests"]
        ingests = list(phase.get("ingests", ()))
        items = sorted([(due, "read", target) for due, target in requests]
                       + [(item["due"], "ingest", item) for item in ingests],
                       key=lambda item: item[0])
        n_reads = len(requests)
        latency = [INF] * n_reads
        late = [0.0] * n_reads
        order = {}
        position = 0
        for i, (_, kind, _) in enumerate(items):
            if kind == "read":
                order[i] = position
                position += 1
        cursor = [0]
        start = time.perf_counter() + 0.05
        deadline = start + phase["duration"] + OVERRUN_LIMIT

        def worker() -> None:
            conn_box = [None]
            while True:
                with self.lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(items):
                    break
                due_offset, kind, payload = items[i]
                due = start + due_offset
                now = time.perf_counter()
                if now > deadline:
                    continue  # never sent: stays a failure (inf)
                if due > now:
                    time.sleep(due - now)
                if kind == "ingest":
                    self.ingest(conn_box, payload)
                    continue
                slot = order[i]
                sent = time.perf_counter()
                late[slot] = sent - due
                request_id = f"open-{slot}" if self.tracer.enabled else None
                with self.tracer.span("client.request", request_id):
                    ok = self.read(conn_box, payload, request_id)
                if ok:
                    latency[slot] = time.perf_counter() - due
            if conn_box[0] is not None:
                conn_box[0].close()

        elapsed = self._run_threads(worker)
        return {"latency": latency, "late": late,
                "attempted": n_reads, "elapsed": elapsed}

    def run_closed(self, phase: dict) -> dict:
        streams = phase["streams"]
        start = time.perf_counter()
        end = start + phase["duration"]
        completed: list[list[float]] = [[] for _ in streams]
        failed = [0] * len(streams)

        def worker_for(index: int):
            def worker() -> None:
                conn_box = [None]
                stream = streams[index]
                n = 0
                while time.perf_counter() < end:
                    target = stream[n % len(stream)]
                    n += 1
                    if self.read(conn_box, target, None):
                        completed[index].append(time.perf_counter() - start)
                    else:
                        failed[index] += 1
                if conn_box[0] is not None:
                    conn_box[0].close()
            return worker

        threads = [threading.Thread(target=worker_for(i))
                   for i in range(len(streams))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        # Reads completed in each whole second of the phase.
        windows = [0] * max(1, int(phase["duration"]))
        for times in completed:
            for t in times:
                if int(t) < len(windows):
                    windows[int(t)] += 1
        done = sum(len(times) for times in completed)
        return {"completed": done, "failed": sum(failed),
                "attempted": done + sum(failed),
                "elapsed": elapsed, "windows": windows}

    def _run_threads(self, worker) -> float:
        start = time.perf_counter()
        threads = [threading.Thread(target=worker)
                   for _ in range(self.threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start


def main() -> int:
    # The generator's own collector pauses would count as server
    # latency; what it allocates in one run fits in memory.
    gc.disable()
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    client = Client(plan)
    phases = {}
    for phase in plan["phases"]:
        runner = client.run_open if phase["kind"] == "open" else client.run_closed
        phases[phase["name"]] = runner(phase)
    document = {
        "phases": phases,
        "ingests": client.ingests,
        "bodies": client.bodies,
        "mismatches": client.mismatches,
        "spans": [span.to_json() for span in client.tracer.spans],
    }
    Path(plan["out"]).write_text(json.dumps(document), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
