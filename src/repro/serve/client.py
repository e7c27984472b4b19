"""Blocking stdlib client for the tuning service.

``http.client`` with a persistent keep-alive connection — the natural
counterpart of :mod:`repro.serve.http` for scripts, tests, and the
benchmark's closed-loop clients.  Server-side failures surface as the
same :class:`~repro.serve.protocol.ServeError` the daemon raised, carrying
the structured code (``unknown_session``, ``stale_ask``, ...), so
callers branch on ``exc.code`` rather than scraping messages.

Quick start::

    client = ServeClient(port=8765)
    status = client.create_session({"algorithm": "ceal", "budget": 20},
                                   name="demo")
    best = client.run("demo")          # drive ask/tell to completion
    print(best["recommended_config"], best["recommended_value"])
"""

from __future__ import annotations

import http.client
import json

from repro.serve.protocol import ERROR_CODES, PROTOCOL_VERSION, ServeError

__all__ = ["ServeClient"]


class ServeClient:
    """Thin blocking JSON client for one tuning daemon.

    Not thread-safe (one underlying connection); give each thread its
    own instance, as perfbench's ``served_churn`` client threads do.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8765, timeout: float = 60.0
    ):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._conn: http.client.HTTPConnection | None = None

    # -- transport ------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {
            "Content-Type": "application/json",
            "X-Repro-Protocol": str(PROTOCOL_VERSION),
        }
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except (ConnectionError, http.client.HTTPException, OSError):
                # A keep-alive connection the server closed between
                # requests looks like a send/recv failure: reconnect
                # once, then let the error propagate.
                self.close()
                if attempt:
                    raise
        try:
            data = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServeError(
                "internal", f"daemon sent non-JSON response: {exc}"
            ) from None
        error = data.get("error")
        if error is not None:
            code = error.get("code")
            if code not in ERROR_CODES:
                code = "internal"
            raise ServeError(code, error.get("message", "unknown error"))
        if response.status >= 400:
            raise ServeError(
                "internal", f"HTTP {response.status} without error body"
            )
        return data

    # -- endpoints ------------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def sessions(self) -> list[dict]:
        return self._request("GET", "/v1/sessions")["sessions"]

    def create_session(self, spec: dict, name: str | None = None) -> dict:
        body: dict = {"spec": dict(spec)}
        if name is not None:
            body["name"] = name
        return self._request("POST", "/v1/sessions", body)

    def status(self, name: str) -> dict:
        return self._request("GET", f"/v1/sessions/{name}")

    def ask(self, name: str) -> dict:
        return self._request("POST", f"/v1/sessions/{name}/ask", {})

    def tell(self, name: str, ask_id: str) -> dict:
        return self._request(
            "POST", f"/v1/sessions/{name}/tell", {"ask_id": ask_id}
        )

    def best(self, name: str) -> dict:
        return self._request("GET", f"/v1/sessions/{name}/best")

    def evict(self, name: str) -> dict:
        return self._request("POST", f"/v1/sessions/{name}/evict", {})

    def close_session(self, name: str, delete: bool = False) -> dict:
        suffix = "?delete=1" if delete else ""
        return self._request("DELETE", f"/v1/sessions/{name}{suffix}")

    # -- conveniences ---------------------------------------------------------

    def step(self, name: str) -> dict:
        """One ask/tell cycle; returns the ask payload (may be done)."""
        proposal = self.ask(name)
        if not proposal.get("done"):
            self.tell(name, proposal["ask_id"])
        return proposal

    def run(self, name: str, max_cycles: int = 10_000) -> dict:
        """Drive ``name`` to completion; returns the final best payload."""
        for _ in range(max_cycles):
            proposal = self.ask(name)
            if proposal.get("done"):
                return proposal["best"]
            self.tell(name, proposal["ask_id"])
        raise ServeError(
            "internal", f"session {name!r} did not finish in {max_cycles} cycles"
        )
