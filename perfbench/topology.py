"""The deployed topology, launched only through the ``repro-serve`` CLI.

One ``serve --workers N`` pool, one ``serve --follow`` follower tailing
it and one ``balance`` proxy over both.  Addresses, store paths and
``--workers`` are the only flags passed, so every transport and cache
setting is the CLI's default.

:meth:`Topology.stop` always runs (``run.py`` calls it in ``finally``):
it stops the balancer, follower and pool, escalates to ``SIGKILL`` for
anything left, and raises :class:`SurvivorError` if any process it
started -- pool workers included -- is still alive or any port it
chose is still bound afterwards.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional

HOST = "127.0.0.1"


class SurvivorError(RuntimeError):
    """A process or port outlived the topology."""


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def http_get(port: int, path: str, timeout: float = 60.0
             ) -> tuple[int, dict, bytes]:
    conn = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def pss_mb(pid: int) -> float:
    """Proportional set size of one process, from ``smaps_rollup``."""
    with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("Pss:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no Pss line for pid {pid}")


def _alive(pid: int) -> bool:
    """Running (not a zombie) -- a reaped or exited pid counts as gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state not in ("Z", "X")


def _wait_until(predicate, timeout: float, what: str,
                interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() > deadline:
            raise TimeoutError(f"timed out after {timeout:.0f}s waiting for "
                               f"{what}")
        time.sleep(interval)


class Topology:
    """Pool + follower + balancer over ``store`` (follower: ``follower_store``)."""

    def __init__(self, root: Path, workdir: Path, store: Path,
                 follower_store: Path, workers: int) -> None:
        self.root = root
        self.workdir = workdir
        self.store = store
        self.follower_store = follower_store
        self.workers = workers
        self.pool_port = free_port()
        self.follower_port = free_port()
        self.balancer_port = free_port()
        self.control_port: Optional[int] = None
        self.procs: dict[str, subprocess.Popen] = {}
        self.worker_pids: list[int] = []
        self.private_ports: dict[str, int] = {}
        #: Seconds from launching the pool until it reported ready.
        self.pool_ready_s: Optional[float] = None

    # -- launching --------------------------------------------------------
    def _spawn(self, name: str, args: list[str]) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        out = open(self.workdir / f"{name}.out", "wb")
        err = open(self.workdir / f"{name}.err", "wb")
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service.cli", *args],
                cwd=self.workdir, env=env, stdout=out, stderr=err,
                stdin=subprocess.DEVNULL, start_new_session=True)
        finally:
            out.close()
            err.close()
        self.procs[name] = proc
        return proc

    def _check_running(self) -> None:
        for name, proc in self.procs.items():
            if proc.poll() is not None:
                tail = (self.workdir / f"{name}.err").read_text(
                    errors="replace")[-2000:]
                raise RuntimeError(f"{name} exited with {proc.returncode}:\n"
                                   f"{tail}")

    def start(self) -> None:
        """Boot pool, follower and balancer; return once all answer."""
        began = time.perf_counter()
        self._spawn("pool", ["serve", "--store", str(self.store),
                             "--workers", str(self.workers),
                             "--port", str(self.pool_port)])

        def pool_ready() -> Optional[int]:
            self._check_running()
            text = (self.workdir / "pool.out").read_text(errors="replace")
            match = re.search(r"control :(\d+)", text)
            return int(match.group(1)) if match else None

        self.control_port = _wait_until(pool_ready, 120, "the pool")
        self.pool_ready_s = time.perf_counter() - began
        # The follower starts once its leader answers, so its first sync
        # succeeds instead of backing off.
        pool_url = f"http://{HOST}:{self.pool_port}"
        self._spawn("follower", ["serve", "--store", str(self.follower_store),
                                 "--follow", pool_url,
                                 "--port", str(self.follower_port)])
        self._spawn("balancer", [
            "balance", "--backend", pool_url,
            "--backend", f"http://{HOST}:{self.follower_port}",
            "--port", str(self.balancer_port)])
        _, _, body = http_get(self.control_port, "/v1/pool")
        described = json.loads(body)
        for worker in described["workers"]:
            self.private_ports[worker["name"]] = worker["port"]
            self.worker_pids.append(worker["pid"])
        self.private_ports["follower"] = self.follower_port

    def warm(self) -> None:
        """Make every reader, the writer and the follower load its archives.

        Each process gets a history read for a name of its own through
        its private port, so no payload cache can answer for it; then
        wait until the balancer has both backends admitted.
        """
        def ready(port: int) -> bool:
            self._check_running()
            try:
                return http_get(port, "/v1/ready", timeout=5)[0] == 200
            except OSError:
                return False

        _wait_until(lambda: ready(self.follower_port), 120, "the follower")
        errors: list[str] = []

        def load(name: str, port: int) -> None:
            status, _, _ = http_get(
                port, f"/v1/domains/warm-{name}.example/history", timeout=120)
            if status != 200:
                errors.append(f"{name}: warm-up status {status}")

        threads = [threading.Thread(target=load, args=item)
                   for item in self.private_ports.items()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise RuntimeError("; ".join(errors))

        def admitted() -> bool:
            self._check_running()
            try:
                status, _, body = http_get(self.balancer_port,
                                           "/v1/balancer", timeout=5)
            except OSError:
                return False
            return status == 200 and json.loads(body)["admitted"] == 2

        _wait_until(admitted, 60, "the balancer to admit both backends")

    # -- observing --------------------------------------------------------
    def server_pids(self) -> list[int]:
        return [proc.pid for proc in self.procs.values()] + self.worker_pids

    def pss_mb(self) -> float:
        return sum(pss_mb(pid) for pid in self.server_pids())

    def counters(self) -> dict[str, float]:
        """Production cache counters: pool aggregate plus the follower."""
        from repro.obs.metrics import parse_exposition

        totals: dict[str, float] = {}
        for port in (self.control_port, self.follower_port):
            _, _, body = http_get(port, "/v1/metrics")
            for key, value in parse_exposition(body.decode("utf-8")).items():
                if key.startswith(("repro_cache_", "repro_shared_cache_")):
                    totals[key] = totals.get(key, 0.0) + value
        return totals

    def balancer_state(self) -> dict:
        _, _, body = http_get(self.balancer_port, "/v1/balancer")
        return json.loads(body)

    def versions(self, names: list[str]) -> dict[str, int]:
        """Store version each named process serves on its private port."""
        found = {}
        for name in names:
            _, headers, _ = http_get(self.private_ports[name], "/v1/meta")
            found[name] = int(headers["X-Repro-Store-Version"])
        return found

    # -- stopping ---------------------------------------------------------
    def stop(self) -> None:
        """Stop everything; raise :class:`SurvivorError` if anything lingers."""
        for name in ("balancer", "follower", "pool"):
            proc = self.procs.get(name)
            if proc is not None and proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs.values():
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        for proc in self.procs.values():
            # Each process leads its own session; its group holds any
            # worker it forked, so one killpg reaches the stragglers.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            proc.wait(timeout=15)
        try:
            _wait_until(lambda: not any(_alive(pid) for pid in self.worker_pids),
                        10, "pool workers to exit")
        except TimeoutError:
            pass
        survivors = [pid for pid in self.server_pids() if _alive(pid)]
        if survivors:
            raise SurvivorError(f"processes survived the topology: {survivors}")
        bound = []
        for port in (self.pool_port, self.follower_port, self.balancer_port,
                     self.control_port, *self.private_ports.values()):
            if port is None:
                continue
            with socket.socket() as sock:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                try:
                    sock.bind((HOST, port))
                except OSError:
                    bound.append(port)
        if bound:
            raise SurvivorError(f"ports still bound after stop: {bound}")
