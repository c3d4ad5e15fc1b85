"""Shared application plumbing for protocol clients and servers.

Every protocol in the paper (DNS-over-TCP, FTP, HTTP, HTTPS, SMTP) is
implemented as a client class driving one censored request and a server
class answering it. The client reports a terminal :attr:`outcome`:

- ``"success"`` — the connection survived and the client received the
  correct, unaltered data (the paper's evasion criterion);
- ``"reset"`` — the connection was torn down by an injected RST;
- ``"blockpage"`` — the client received censor-injected content instead;
- ``"garbled"`` — the client received data that fails validation;
- ``"timeout"`` — the exchange never completed (blackholing censors).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..tcpstack import Host, TCPEndpoint

__all__ = [
    "BaseClient",
    "BaseServer",
    "OUTCOME_SUCCESS",
    "OUTCOME_RESET",
    "OUTCOME_BLOCKPAGE",
    "OUTCOME_GARBLED",
    "OUTCOME_TIMEOUT",
]

OUTCOME_SUCCESS = "success"
OUTCOME_RESET = "reset"
OUTCOME_BLOCKPAGE = "blockpage"
OUTCOME_GARBLED = "garbled"
OUTCOME_TIMEOUT = "timeout"

#: Application-level give-up time (virtual seconds).
DEFAULT_APP_TIMEOUT = 8.0


class BaseClient:
    """One client-side attempt at a (possibly censored) request.

    Subclasses implement :meth:`_on_established` (send the first bytes)
    and :meth:`_on_bytes` (consume response data and eventually call
    :meth:`_finish`).
    """

    protocol = "base"

    def __init__(
        self,
        host: Host,
        server_ip: str,
        server_port: int,
        timeout: float = DEFAULT_APP_TIMEOUT,
    ) -> None:
        self.host = host
        self.server_ip = server_ip
        self.server_port = server_port
        self.timeout = timeout
        self.endpoint: Optional[TCPEndpoint] = None
        self.buffer = bytearray()
        self.outcome: Optional[str] = None
        self.detail = ""
        self.on_complete: Optional[Callable[[str], None]] = None
        self._timer = None

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Open the connection and begin the exchange."""
        endpoint = self.host.open_connection(self.server_ip, self.server_port)
        endpoint.on_established = self._on_established
        endpoint.on_data = self._on_data
        endpoint.on_reset = lambda: self._finish(OUTCOME_RESET, "connection reset")
        endpoint.on_failure = lambda reason: self._finish(OUTCOME_TIMEOUT, reason)
        endpoint.on_remote_close = self._on_remote_close
        self.endpoint = endpoint
        self._timer = self.host.scheduler.schedule(self.timeout, self._on_timeout)
        endpoint.connect()

    @property
    def finished(self) -> bool:
        """Whether a terminal outcome has been reached."""
        return self.outcome is not None

    @property
    def succeeded(self) -> bool:
        """Whether the exchange completed uncensored with correct data."""
        return self.outcome == OUTCOME_SUCCESS

    # ------------------------------------------------------------------
    # Endpoint callbacks

    def _on_data(self, data: bytes) -> None:
        if self.finished:
            return
        self.buffer.extend(data)
        self._on_bytes()

    def _on_remote_close(self) -> None:
        if not self.finished:
            self._on_peer_closed()

    def _on_timeout(self) -> None:
        self._finish(OUTCOME_TIMEOUT, "application timeout")

    # ------------------------------------------------------------------
    # Subclass interface

    def _on_established(self) -> None:
        """Called when the handshake completes; send the opening bytes."""
        raise NotImplementedError

    def _on_bytes(self) -> None:
        """Called whenever new response bytes are buffered."""
        raise NotImplementedError

    def _on_peer_closed(self) -> None:
        """Called when the server closes before the client finished."""
        self._on_bytes()
        if not self.finished:
            self._finish(OUTCOME_GARBLED, "peer closed mid-exchange")

    # ------------------------------------------------------------------

    def _send(self, data: bytes) -> None:
        if self.endpoint is not None:
            self.endpoint.send(data)

    def _finish(self, outcome: str, detail: str = "") -> None:
        if self.finished:
            return
        self.outcome = outcome
        self.detail = detail
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self.on_complete:
            self.on_complete(outcome)


class BaseServer:
    """A protocol server bound to a port on a host.

    Subclasses implement :meth:`_on_connection` to wire per-connection
    state, typically line- or message-buffered request handling.
    """

    protocol = "base"

    def __init__(self, host: Host, port: int) -> None:
        self.host = host
        self.port = port
        self.reset()

    def reset(self) -> None:
        """Forget every accepted connection (the listener stays)."""
        self.connections: List[TCPEndpoint] = []

    def install(self) -> None:
        """Start listening."""
        self.host.listen(self.port, self._accept)

    def _accept(self, endpoint: TCPEndpoint) -> None:
        self.connections.append(endpoint)
        self._on_connection(endpoint)

    def forget_connection(self, endpoint: TCPEndpoint) -> None:
        """Drop a recycled connection (fleet mode prunes on close).

        Single-flow trials never call this — ``connections`` retains the
        handful of endpoints a trial accepts — but a long-lived fleet
        server would otherwise accumulate one entry per client forever.
        """
        try:
            self.connections.remove(endpoint)
        except ValueError:
            pass

    def _on_connection(self, endpoint: TCPEndpoint) -> None:
        raise NotImplementedError
