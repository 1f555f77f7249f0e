"""A frame-aware TCP proxy that injects faults into real-socket tests.

:class:`ChaosProxy` sits between a
:class:`~repro.cluster.backends.remote.RemoteBackend` master and a
``repro-worker`` server, forwards RWF frames in both directions, and injects
faults on a per-frame schedule: kill the link, delay a frame, or truncate one
mid-header.  Because faults trigger on *frame counts*, not wall-clock timers,
the same test script exercises the same code path on every run -- the chaos
is reproducible.  The proxy speaks the wire format from the outside; no
production code path knows it exists.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from dataclasses import dataclass

from repro.errors import ClusterError
from repro.serial.frames import FRAME_HEADER_BYTES, FRAME_MAGIC, MAX_FRAME_BYTES

__all__ = ["ChaosProxy", "ChaosRule", "delay_frame", "kill_after", "truncate_frame"]

_HEADER = struct.Struct(">4sHHI")

#: fault directions, named from the master's point of view
C2S = "c2s"  # master -> worker frames
S2C = "s2c"  # worker -> master frames
BOTH = "both"


@dataclass(frozen=True)
class ChaosRule:
    """One fault on the frame schedule of a proxied link.

    The rule fires when the ``after_frames``-th frame *in the matching
    direction* has already been forwarded and the next one is about to be
    (``after_frames=0`` fires on the very first frame).  ``once=True``
    (default) makes the rule proxy-lifetime: it fires on one connection and
    never again, so a master that reconnects through the proxy gets a clean
    link -- exactly the shape reconnect tests need.
    """

    action: str  # "kill" | "delay" | "truncate"
    after_frames: int = 0
    direction: str = BOTH
    delay: float = 0.0
    once: bool = True

    def __post_init__(self) -> None:
        if self.action not in ("kill", "delay", "truncate"):
            raise ClusterError(f"unknown chaos action {self.action!r}")
        if self.direction not in (C2S, S2C, BOTH):
            raise ClusterError(f"unknown chaos direction {self.direction!r}")
        if self.after_frames < 0:
            raise ClusterError("ChaosRule.after_frames must be >= 0")
        if self.action == "delay" and self.delay <= 0:
            raise ClusterError("a delay rule needs delay > 0 seconds")


def kill_after(frames: int, direction: str = BOTH, *, once: bool = True) -> ChaosRule:
    """Kill the link when frame number ``frames + 1`` is about to pass."""
    return ChaosRule("kill", after_frames=frames, direction=direction, once=once)


def delay_frame(
    frames: int, seconds: float, direction: str = BOTH, *, once: bool = True
) -> ChaosRule:
    """Hold frame number ``frames + 1`` for ``seconds`` before forwarding."""
    return ChaosRule(
        "delay", after_frames=frames, direction=direction, delay=seconds, once=once
    )


def truncate_frame(frames: int, direction: str = BOTH, *, once: bool = True) -> ChaosRule:
    """Forward only half of frame number ``frames + 1``, then kill the link."""
    return ChaosRule("truncate", after_frames=frames, direction=direction, once=once)


class _Link:
    """One proxied client<->upstream connection pair."""

    def __init__(self, client: socket.socket, upstream: socket.socket):
        self.client = client
        self.upstream = upstream
        self.lock = threading.Lock()
        self.counts = {C2S: 0, S2C: 0}
        self.dead = False

    def kill(self) -> None:
        with self.lock:
            if self.dead:
                return
            self.dead = True
        for sock in (self.client, self.upstream):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


class ChaosProxy:
    """A TCP interposer that forwards RWF frames and injects scheduled faults.

    Point a master at :attr:`address` instead of the worker's real address::

        with ChaosProxy(worker_address, rules=[kill_after(5)]) as proxy:
            backend = RemoteBackend([proxy.address], reconnect=True)
            ...

    The proxy accepts any number of connections (each dials ``upstream``
    anew), forwards complete frames in both directions, and applies its
    :class:`ChaosRule` list on the per-link frame schedule.  Frames are cut
    on exact boundaries using the real header layout, so a *kill* looks to
    both peers like a worker crash between frames and a *truncate* like a
    crash mid-frame -- the two failure shapes the reconnect and assembler
    layers must survive.  :meth:`kill_links` injects an unscheduled failure.
    """

    def __init__(
        self,
        upstream: str | tuple[str, int],
        rules: "list[ChaosRule] | tuple[ChaosRule, ...]" = (),
        *,
        host: str = "127.0.0.1",
        backlog: int = 8,
    ):
        if isinstance(upstream, str):
            addr_host, _, addr_port = upstream.rpartition(":")
            try:
                self._upstream = (addr_host or "127.0.0.1", int(addr_port))
            except ValueError as exc:
                raise ClusterError(
                    f"bad upstream address {upstream!r}; expected 'host:port'"
                ) from exc
        else:
            self._upstream = (upstream[0], int(upstream[1]))
        self._rules = tuple(rules)
        self._fired: set[int] = set()
        self._lock = threading.Lock()
        self._links: list[_Link] = []
        self._closed = False
        self.stats = {
            "connections": 0,
            "frames_forwarded": 0,
            "kills": 0,
            "delays": 0,
            "truncations": 0,
        }

        self._listener = socket.create_server((host, 0), backlog=backlog)
        self._port = self._listener.getsockname()[1]
        self._host = host
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept", daemon=True
        )
        self._accept_thread.start()

    # -- public surface ----------------------------------------------------------
    @property
    def address(self) -> str:
        """The ``host:port`` masters should dial instead of the worker."""
        return f"{self._host}:{self._port}"

    def kill_links(self) -> int:
        """Kill every live proxied connection now (unscheduled chaos)."""
        with self._lock:
            links = list(self._links)
        killed = 0
        for link in links:
            if not link.dead:
                link.kill()
                killed += 1
        if killed:
            with self._lock:
                self.stats["kills"] += killed
        return killed

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._listener.close()
        except OSError:
            pass
        self.kill_links()
        self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals ---------------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                client, _peer = self._listener.accept()
            except OSError:
                return  # listener closed: clean shutdown
            try:
                up = socket.create_connection(self._upstream, timeout=10.0)
            except OSError:
                client.close()
                continue
            for sock in (client, up):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            link = _Link(client, up)
            with self._lock:
                self._links.append(link)
                self.stats["connections"] += 1
            for direction, src, dst in ((C2S, client, up), (S2C, up, client)):
                threading.Thread(
                    target=self._pump,
                    args=(link, direction, src, dst),
                    name=f"chaos-proxy-{direction}",
                    daemon=True,
                ).start()

    def _rule_for(self, link: _Link, direction: str) -> "ChaosRule | None":
        """The first unfired rule matching this direction at this frame's number:
        a frame is numbered here, under the lock, not once it is forwarded, so
        the two pumps of a link never slip past a ``BOTH`` rule together."""
        with self._lock:
            seen = {**link.counts, BOTH: link.counts[C2S] + link.counts[S2C]}
            link.counts[direction] += 1
            for index, rule in enumerate(self._rules):
                if rule.direction not in (direction, BOTH):
                    continue
                if rule.once and index in self._fired:
                    continue
                if seen[rule.direction] != rule.after_frames:
                    continue
                self._fired.add(index)
                return rule
        return None

    def _pump(self, link: _Link, direction: str, src: socket.socket, dst: socket.socket) -> None:
        buffer = bytearray()
        raw_mode = False
        try:
            while not link.dead:
                try:
                    data = src.recv(65536)
                except OSError:
                    break
                if not data:
                    break
                if raw_mode:
                    dst.sendall(data)
                    continue
                buffer.extend(data)
                while len(buffer) >= FRAME_HEADER_BYTES:
                    magic, _version, _kind, length = _HEADER.unpack_from(buffer)
                    if magic != FRAME_MAGIC or length > MAX_FRAME_BYTES:
                        # not our wire format: stop interposing, pass through
                        raw_mode = True
                        dst.sendall(bytes(buffer))
                        buffer.clear()
                        break
                    end = FRAME_HEADER_BYTES + length
                    if len(buffer) < end:
                        break
                    frame = bytes(buffer[:end])
                    del buffer[:end]
                    if not self._forward(link, direction, dst, frame):
                        return
        finally:
            link.kill()

    def _forward(
        self, link: _Link, direction: str, dst: socket.socket, frame: bytes
    ) -> bool:
        """Apply the rule schedule to one complete frame; False kills the pump."""
        rule = self._rule_for(link, direction)
        if rule is not None and rule.action == "kill":
            with self._lock:
                self.stats["kills"] += 1
            link.kill()
            return False
        if rule is not None and rule.action == "truncate":
            with self._lock:
                self.stats["truncations"] += 1
            try:
                dst.sendall(frame[: max(1, len(frame) // 2)])
            except OSError:
                pass
            link.kill()
            return False
        if rule is not None and rule.action == "delay":
            with self._lock:
                self.stats["delays"] += 1
            time.sleep(rule.delay)
        try:
            dst.sendall(frame)
        except OSError:
            link.kill()
            return False
        with self._lock:
            self.stats["frames_forwarded"] += 1
        return True
