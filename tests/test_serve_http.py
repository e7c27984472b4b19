"""The serve HTTP layer: end-to-end daemon, restart recovery, errors.

Runs the real asyncio daemon (:class:`BackgroundServer`) on a loopback
port and talks to it through :class:`ServeClient` — the full wire path:
request parsing, worker-pool offload, structured errors, keep-alive,
graceful drain.  The restart test is the HTTP twin of the session-layer
crash-recovery test: stop the daemon mid-session, start a fresh one on
the same state directory, finish, and compare bit-identical against the
offline run.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading

import pytest

from repro.serve.client import ServeClient
from repro.serve.http import BackgroundServer, TuningServer
from repro.serve.protocol import PROTOCOL_VERSION, ServeError
from repro.serve.sessions import SessionManager
from repro.serve.specs import SessionSpec, build_algorithm, build_problem

SMALL = dict(algorithm="rs", budget=8, pool_size=60, history_size=40, seed=3)


@pytest.fixture()
def served(tmp_path):
    manager = SessionManager(tmp_path / "state", max_active=4)
    with BackgroundServer(manager, workers=3) as server:
        with ServeClient(port=server.port) as client:
            yield server, client


class TestEndToEnd:
    def test_full_session_over_http(self, served):
        server, client = served
        health = client.health()
        assert health["ok"] is True and health["protocol"] == PROTOCOL_VERSION

        created = client.create_session(SMALL, name="demo")
        assert created["state"] == "active"
        assert created["algorithm"] == "RS"

        status = client.status("demo")
        assert status["iteration"] == 0
        assert status["spec"]["budget"] == SMALL["budget"]

        best = client.run("demo")
        assert best["completed"] is True
        assert best["samples"] == SMALL["budget"]

        # Bit-identical to the offline run of the same spec.
        spec = SessionSpec(**SMALL)
        straight = build_algorithm(spec).tune(build_problem(spec))
        pool = build_problem(spec).pool
        assert best["recommended_config"] == list(straight.best_config(pool))
        assert best["recommended_value"] == straight.best_actual_value(pool)

        assert [s["session"] for s in client.sessions()] == ["demo"]
        closed = client.close_session("demo", delete=True)
        assert closed["deleted"] is True
        assert client.sessions() == []

    def test_concurrent_sessions_with_eviction_churn(self, served):
        server, client = served
        names = [f"c{i}" for i in range(6)]  # > max_active=4: churn
        # A model-fitting algorithm beside ``rs`` keeps the model tier busy.
        specs = {
            name: {**SMALL, "seed": index, "algorithm": ("rs", "lowfid")[index % 2]}
            for index, name in enumerate(names)
        }
        for name in names:
            client.create_session(specs[name], name=name)
        results = {}
        failures = []

        def drive(name):
            try:
                with ServeClient(port=server.port) as own:
                    results[name] = own.run(name)
            except BaseException as exc:
                failures.append((name, exc))

        threads = [threading.Thread(target=drive, args=(n,)) for n in names]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        for name in names:
            spec = SessionSpec(**specs[name])
            straight = build_algorithm(spec).tune(build_problem(spec))
            pool = build_problem(spec).pool
            assert results[name]["recommended_config"] == list(
                straight.best_config(pool)
            ), name
        # The churn went through rehydration, and every cache tier served it.
        stats = client.health()["stats"]
        assert stats["rehydrate_ms"]["count"] > 0, stats
        for tier in ("problem", "model", "snapshot"):
            assert stats["cache"][tier]["hits"] > 0, (tier, stats["cache"])
        assert stats["active"] <= stats["max_active"], stats

    @pytest.mark.parametrize("cache_mode", ["on", "thrash"], ids=str)
    def test_restart_mid_session_finishes_bit_identically(
        self, tmp_path, cache_mode
    ):
        """SIGTERM-drain restart under every cache regime: the daemon
        that resumes the session starts with cold caches (default or
        capacity-1 thrashing) and must still finish byte-equal to the
        offline run."""
        from repro.serve.artifacts import ArtifactCache

        def cache():
            if cache_mode == "thrash":
                return ArtifactCache(problems=1, models=1, snapshots=1)
            return None

        spec = SessionSpec(algorithm="ceal", use_history=True, **{
            k: v for k, v in SMALL.items() if k != "algorithm"
        })
        straight = build_algorithm(spec).tune(build_problem(spec))

        state = tmp_path / "state"
        with BackgroundServer(SessionManager(state, cache=cache())) as first:
            with ServeClient(port=first.port) as client:
                client.create_session(spec.as_dict(), name="s")
                proposal = client.ask("s")
                client.tell("s", proposal["ask_id"])
                pending = client.ask("s")  # left un-told across restart
                assert not pending.get("done")
        # The context exit performed the SIGTERM drain; a fresh daemon
        # over the same directory recovers the session.
        with BackgroundServer(SessionManager(state, cache=cache())) as second:
            with ServeClient(port=second.port) as client:
                assert client.status("s")["iteration"] == 1
                best = client.run("s")
        pool = build_problem(spec).pool
        assert best["recommended_config"] == list(straight.best_config(pool))
        assert best["recommended_value"] == straight.best_actual_value(pool)
        assert best["samples"] == spec.budget


class TestWireErrors:
    def test_error_codes_cross_the_wire(self, served):
        server, client = served
        client.create_session(SMALL, name="s")
        cases = [
            (lambda: client.ask("ghost"), "unknown_session"),
            (lambda: client.create_session(SMALL, name="s"), "conflict"),
            (lambda: client.tell("s", "a99"), "stale_ask"),
            (lambda: client.create_session({"algorithm": "x"}), "bad_request"),
        ]
        for trigger, code in cases:
            with pytest.raises(ServeError) as err:
                trigger()
            assert err.value.code == code, code

    def test_protocol_mismatch_refused(self, served):
        server, client = served
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request(
            "GET", "/v1/healthz", headers={"X-Repro-Protocol": "999"}
        )
        response = conn.getresponse()
        body = json.loads(response.read())
        assert response.status == 400
        assert body["error"]["code"] == "protocol_mismatch"
        conn.close()

    def test_unknown_route_and_bad_json(self, served):
        server, client = served
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("GET", "/v2/nope")
        response = conn.getresponse()
        assert response.status == 404
        assert json.loads(response.read())["error"]["code"] == "not_found"
        conn.request(
            "POST", "/v1/sessions", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 400
        assert json.loads(response.read())["error"]["code"] == "bad_request"
        conn.close()

    def test_create_with_huge_noise_sigma_is_bad_request(self, served):
        server, client = served
        with pytest.raises(ServeError) as err:
            client.create_session({**SMALL, "noise_sigma": 10**400}, name="huge")
        assert err.value.code == "bad_request"
        assert client.sessions() == []
        assert client.health()["ok"] is True

    @pytest.mark.parametrize(
        "request_head",
        [
            b"GET /v1/healthz HTTP/1.1\r\nX-Big: " + b"a" * 200_000 + b"\r\n\r\n",
            b"GET /" + b"a" * 200_000 + b" HTTP/1.1\r\n\r\n",
            b"GET //[ HTTP/1.1\r\n\r\n",
        ],
        ids=["long_header_line", "long_request_line", "bad_target"],
    )
    def test_malformed_request_head_is_bad_request(self, served, request_head):
        # The long lines pass the stream reader's 64 KiB line limit.
        server, client = served
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(request_head)
            reply = b""
            while chunk := sock.recv(1 << 16):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), head
        assert json.loads(body)["error"]["code"] == "bad_request"
        assert client.health()["ok"] is True

    def test_request_timeout_is_structured(self, tmp_path):
        # A zero budget times out deterministically: wait_for(0) fires
        # before a just-offloaded executor future can complete, however
        # warm the pool memo or artifact caches make the handler.
        manager = SessionManager(tmp_path / "state")
        with BackgroundServer(
            manager, workers=1, request_timeout=0.0
        ) as server:
            with ServeClient(port=server.port) as client:
                with pytest.raises(ServeError) as err:
                    client.create_session(SMALL, name="slow")
                assert err.value.code == "timeout"


class TestShutdown:
    def test_stop_closes_an_idle_connection(self, tmp_path):
        # From Python 3.12 on, Server.wait_closed() waits for every open
        # connection, so a client idle between requests blocked the drain.
        async def scenario():
            server = TuningServer(
                SessionManager(tmp_path / "state"), drain_timeout=1.0
            )
            await server.start()
            with socket.create_connection(("127.0.0.1", server.port)) as idle:
                idle.setblocking(False)
                # Accepted after the idle one, so answered after it is served.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                assert (await reader.read()).startswith(b"HTTP/1.1 200 ")
                writer.close()
                await asyncio.wait_for(server.stop(), 1.0 + 1.0)
                loop = asyncio.get_running_loop()
                assert await asyncio.wait_for(loop.sock_recv(idle, 1), 1.0) == b""

        asyncio.run(scenario())


class TestDaemonCli:
    def test_serve_cli_sigterm_checkpoints_and_recovers(self, tmp_path):
        """`repro serve` end-to-end: readiness line, a request, SIGTERM
        → exit 0, then a second daemon recovers the session."""
        import os
        import re
        import signal
        import subprocess
        import sys
        from pathlib import Path

        import repro

        state = tmp_path / "state"
        src = str(Path(repro.__file__).resolve().parents[1])

        def launch():
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--state-dir", str(state), "--port", "0",
                ],
                stdout=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": src},
            )
            line = proc.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
            assert match, f"no readiness line, got {line!r}"
            return proc, int(match.group(1))

        proc, port = launch()
        try:
            with ServeClient(port=port) as client:
                client.create_session(SMALL, name="s")
                proposal = client.ask("s")
                client.tell("s", proposal["ask_id"])
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        proc.stdout.close()

        proc, port = launch()
        try:
            with ServeClient(port=port) as client:
                assert client.status("s")["iteration"] == 1
                best = client.run("s")
                assert best["completed"] is True
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        proc.stdout.close()
