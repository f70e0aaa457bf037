"""Socket transport behind the ShmRing seam: the pipeline over real links.

The shared-memory runtime (``pipeline/transport.py``) deliberately exposes
two narrow seams:

* **channels** — ``send(kind, edge, payload)`` / ``recv(kind, edge)`` of
  step-tagged multi-part array payloads, one channel per cross-worker edge
  and payload kind;
* the **version-gated weight protocol** — ``weights(stage, version)`` /
  ``latest_version`` / ``wait_version(version, timeout)`` (plus
  ``velocity(stage)`` for T2), with velocity published *before* the
  version that advertises it.

This module fills both seams over TCP or Unix-domain sockets so the exact
:class:`~repro.pipeline.plan.StepPlan` runs with workers that could sit on
other hosts: :class:`Transport` frames the byte stream (length-prefixed,
CRC-checked), the frame codec mirrors :class:`ShmRing`'s layout headers
(dtype code, transposed-view shape, axis permutation — so an F-order array
comes out F-order and BLAS takes bit-identical paths on both ends),
:class:`RemoteWeightMirror` replays the driver's pushed version stream,
and :class:`SocketWorkerPool` drives it all behind the unchanged
issue/collect scheduler surface.

Failure is a first-class state here, not an assertion: the pool keeps a
:class:`~repro.pipeline.registry.WorkerRegistry` (CONNECTING → READY →
RUNNING → LOST) fed by per-connection reader threads and heartbeats.  When
a worker is lost the pool invalidates every step issued before the loss
(``collect``/``await_losses`` fail fast instead of waiting out the
deadlock timeout), and either respawns the *whole* worker set — the
channel mesh is pairwise, so a lone fresh worker cannot rejoin — and
republishes the resolvable weight window, or wedges with a typed
:class:`~repro.pipeline.registry.WorkerLostError`.  Either way the runtime
drains its in-flight window and restores the latest published weights, so
a killed worker costs one minibatch, never a silent divergence.

Addresses are ``"uds:/path/sock"`` or ``"tcp:host:port"`` (``port`` 0
binds an ephemeral port; :class:`Listener` reports the real one).  The
pool defaults to UDS loopback — single host, but every byte crosses a real
socket, which is exactly what the fault-injection suites need.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import random
import select
import socket
import struct
import tempfile
import threading
import time
import zlib

import numpy as np

# One-way dependency: runtime imports this module only lazily, inside the
# socket-backend branch, so a top-level import here cannot cycle.
from repro.pipeline import runtime as _runtime
from repro.pipeline.registry import (
    Backoff,
    TaskState,
    WorkerLostError,
    WorkerRegistry,
)
from repro.pipeline.stage_compute import ModelSpec
from repro.pipeline.transport import (
    _DTYPE_CODE,
    _MAX_DIMS,
    _RING_DTYPES,
    TransportClosed,
    TransportError,
    TransportTimeout,
    _layout_perm,
)
from repro.pipeline.weight_store import check_version_resident
from repro.pipeline.worker import Report, WorkerKernel, _picklable_exc


class FrameError(TransportError):
    """The byte stream is corrupt — bad magic, checksum mismatch, or a
    payload header that cannot describe any array.  Unlike a timeout the
    stream cannot be resynchronised: framing is length-prefixed, so one
    garbled frame poisons everything after it."""


# -- wire framing --------------------------------------------------------------

_MAGIC = 0x504D4652  # "PMFR"
_HDR = struct.Struct("<IIQI")  # magic, frame kind, body length, crc32(body)
_ARR_HDR = struct.Struct("<qqq")  # step tag, payload kind (0 bare / 1 tuple), nparts
_PART_HDR = struct.Struct("<qqqq")  # present, dtype code, ndim, nbytes
_MAX_FRAME = 1 << 40

# Frame kinds.  OBJ carries pickled control messages (step commands, done
# reports, handshake); ARRAYS carries one step-tagged edge payload in the
# ring-compatible layout below; WEIGHTS/VELOCITY reuse the ARRAYS body on
# the weight socket (the step field holds the version); RESET clears a
# remote mirror's window before a checkpoint-restore republish.
K_OBJ, K_ARRAYS, K_WEIGHTS, K_VELOCITY, K_RESET = 1, 2, 3, 4, 5


def encode_arrays(payload, step: int) -> bytes:
    """One multi-part array payload as a frame body.

    Mirrors :meth:`ShmRing.send_msg`'s layout semantics exactly: each part
    records its dtype code, the shape of the C-contiguous *transposed
    view* (``array.transpose(perm)``) and the axis permutation, so the
    receiver reconstructs the sender's shape **and memory layout** —
    required for bit-determinism, since BLAS kernels take different
    floating-point paths for different strides.  ``None`` parts (absent
    optional inputs) are a present=0 header; a bare array is payload kind
    0, a tuple kind 1.
    """
    kind = 1 if isinstance(payload, tuple) else 0
    parts = list(payload) if kind else [payload]
    chunks = [_ARR_HDR.pack(step, kind, len(parts))]
    blobs: list[bytes] = []
    for part in parts:
        if part is None:
            chunks.append(_PART_HDR.pack(0, 0, 0, 0))
            continue
        array = np.asarray(part)
        code = _DTYPE_CODE.get(array.dtype)
        if code is None:
            raise TypeError(
                f"cannot frame dtype {array.dtype} (supported: "
                f"{', '.join(str(d) for d in _RING_DTYPES)})"
            )
        if array.ndim > _MAX_DIMS:
            raise ValueError(f"cannot frame ndim {array.ndim} > {_MAX_DIMS}")
        perm = _layout_perm(array)
        if perm is None:
            array = np.ascontiguousarray(array)
            perm = tuple(range(array.ndim))
        view = np.ascontiguousarray(array.transpose(perm))
        chunks.append(_PART_HDR.pack(1, code, array.ndim, view.nbytes))
        if array.ndim:
            chunks.append(struct.pack(f"<{array.ndim}q", *view.shape))
            chunks.append(struct.pack(f"<{array.ndim}q", *perm))
        blobs.append(view.tobytes())
    return b"".join(chunks) + b"".join(blobs)


def decode_arrays(body) -> tuple[int, object]:
    """Inverse of :func:`encode_arrays`: ``(step, payload)`` with every
    part owning fresh memory in the sender's exact layout.  Any header
    that cannot describe a real array — unknown dtype code, negative
    sizes, a perm that is not a permutation, payload bytes that do not
    add up — raises :class:`FrameError` (garbled stream), never returns
    garbage arrays."""
    body = memoryview(body)
    try:
        step, kind, nparts = _ARR_HDR.unpack_from(body, 0)
    except struct.error:
        raise FrameError("array frame shorter than its base header") from None
    if kind not in (0, 1) or nparts < 0 or (kind == 0 and nparts != 1):
        raise FrameError(
            f"garbled array frame header (kind={kind}, nparts={nparts})"
        )
    pos = _ARR_HDR.size
    metas = []
    try:
        for _ in range(nparts):
            present, code, ndim, nbytes = _PART_HDR.unpack_from(body, pos)
            pos += _PART_HDR.size
            if not present:
                metas.append(None)
                continue
            if not (0 <= code < len(_RING_DTYPES)) or not (0 <= ndim <= _MAX_DIMS):
                raise FrameError(
                    f"garbled part header (dtype code {code}, ndim {ndim})"
                )
            shape = struct.unpack_from(f"<{ndim}q", body, pos)
            pos += 8 * ndim
            perm = struct.unpack_from(f"<{ndim}q", body, pos)
            pos += 8 * ndim
            if any(s < 0 for s in shape) or sorted(perm) != list(range(ndim)):
                raise FrameError(
                    f"garbled part header (shape {shape}, perm {perm})"
                )
            metas.append((code, ndim, nbytes, shape, perm))
    except struct.error:
        raise FrameError("array frame truncated inside a part header") from None
    parts: list[np.ndarray | None] = []
    for meta in metas:
        if meta is None:
            parts.append(None)
            continue
        code, ndim, nbytes, shape, perm = meta
        dtype = _RING_DTYPES[code]
        count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        if nbytes != count * dtype.itemsize or pos + nbytes > len(body):
            raise FrameError(
                f"part payload does not match its header "
                f"({nbytes} bytes claimed for shape {shape} {dtype})"
            )
        flat = np.frombuffer(body, dtype=dtype, count=count, offset=pos)
        pos += nbytes
        # .copy() owns the memory C-contiguously in the transposed-view
        # shape; the inverse permutation restores the sender's shape and
        # strides — same recipe as ShmRing.recv_msg.
        out = flat.reshape(shape).copy()
        inv = tuple(np.argsort(perm)) if ndim else ()
        parts.append(out.transpose(inv))
    if pos != len(body):
        raise FrameError(f"{len(body) - pos} trailing bytes after array frame")
    return step, (tuple(parts) if kind else parts[0])


# -- connected endpoints -------------------------------------------------------


def _parse_address(address: str):
    if address.startswith("uds:"):
        if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - platform
            raise ValueError("uds: addresses need AF_UNIX support")
        return socket.AF_UNIX, address[4:]
    if address.startswith("tcp:"):
        host, sep, port = address[4:].rpartition(":")
        if not sep:
            raise ValueError(f"tcp address must be tcp:host:port, got {address!r}")
        return socket.AF_INET, (host, int(port))
    raise ValueError(f"address must start with uds: or tcp:, got {address!r}")


class Listener:
    """A bound, listening socket handing out :class:`Transport` endpoints.
    ``tcp:host:0`` binds an ephemeral port; :attr:`address` always names
    the real endpoint peers should connect to."""

    def __init__(self, address: str, backlog: int = 16):
        family, addr = _parse_address(address)
        self._family = family
        self._path = addr if family == getattr(socket, "AF_UNIX", None) else None
        self._sock = socket.socket(family, socket.SOCK_STREAM)
        try:
            if family == socket.AF_INET:
                self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind(addr)
            self._sock.listen(backlog)
        except BaseException:
            self._sock.close()
            raise
        if family == socket.AF_INET:
            host, port = self._sock.getsockname()[:2]
            self.address = f"tcp:{host}:{port}"
        else:
            self.address = address

    def accept(self, timeout: float) -> "Transport":
        self._sock.settimeout(timeout)
        try:
            conn, _ = self._sock.accept()
        except socket.timeout:
            raise TransportTimeout(
                f"no connection on {self.address} within {timeout:g}s"
            ) from None
        except OSError as exc:
            raise TransportClosed(f"listener {self.address} is gone ({exc})") from None
        return Transport(conn)

    def close(self) -> None:
        try:
            self._sock.close()
        finally:
            if self._path is not None:
                try:
                    os.unlink(self._path)
                except OSError:
                    pass


def connect(
    address: str, timeout: float = 10.0, backoff: Backoff | None = None
) -> "Transport":
    """Dial ``address`` with bounded retry + exponential backoff — a worker
    typically races the peer's ``bind``/``listen``, so refusals inside the
    budget are retried; expiry raises :class:`TransportTimeout`."""
    family, addr = _parse_address(address)
    clock = (backoff or Backoff(total=timeout)).start()
    while True:
        sock = socket.socket(family, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect(addr)
            return Transport(sock)
        except (ConnectionError, FileNotFoundError, socket.timeout, OSError) as exc:
            sock.close()
            last = exc
        if not clock.sleep():
            raise TransportTimeout(
                f"could not connect to {address} within {timeout:g}s "
                f"after {clock.attempts + 1} attempts ({last})"
            ) from None


class Transport:
    """One connected framed stream endpoint — the network twin of
    :class:`ShmRing`'s send/recv surface.

    Frames are ``(magic, kind, length, crc32)`` headers plus body; a short
    read raises :class:`TransportClosed` (peer gone mid-frame), a bad
    magic or checksum :class:`FrameError` (garbled stream), a deadline
    :class:`TransportTimeout`.  Sends are serialised by a lock so a
    heartbeat thread can share the control socket with the worker's done
    reports without interleaving frames.  :attr:`xfer_seconds` accumulates
    wall time spent moving *array* payloads (``send_msg``/``recv_msg``),
    matching the ring transport's accounting.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        if sock.family == socket.AF_INET:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Deadlines are per-operation select() waits over a non-blocking
        # socket, never settimeout(): the timeout there is socket-global
        # state, and this endpoint is explicitly shared between a sender
        # and a receiver thread (driver reader vs issue(); worker serve
        # loop vs heartbeat), so one direction's deadline must not leak
        # into the other's blocking call.
        sock.setblocking(False)
        self._send_lock = threading.Lock()
        self._closed = False
        self.xfer_seconds = 0.0

    # -- raw framing -----------------------------------------------------------
    def _wait_io(self, read: bool, deadline: float | None, stalled) -> None:
        """Block until the socket is ready for one recv/send, or the
        operation's own deadline expires (typed timeout) — no shared
        timeout state with the opposite direction."""
        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportTimeout(stalled())
        try:
            if read:
                ready = select.select([self._sock], [], [], remaining)[0]
            else:
                ready = select.select([], [self._sock], [], remaining)[1]
        except (OSError, ValueError) as exc:
            # close() raced from another thread: the fd is gone (EBADF /
            # fileno -1), which is a peer-side story for this caller.
            raise TransportClosed(f"connection lost mid-wait ({exc})") from None
        if not ready:
            raise TransportTimeout(stalled())

    def _recv_exact(self, n: int, deadline: float | None) -> memoryview:
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        while got < n:
            try:
                k = self._sock.recv_into(view[got:])
            except (BlockingIOError, InterruptedError):
                self._wait_io(
                    True, deadline,
                    lambda: f"frame read stalled ({got}/{n} bytes arrived)",
                )
                continue
            except OSError as exc:
                raise TransportClosed(f"connection lost mid-read ({exc})") from None
            if k == 0:
                raise TransportClosed(
                    "peer closed the connection mid-frame"
                    if got
                    else "peer closed the connection"
                )
            got += k
        return view

    def send_frame(self, kind: int, body: bytes, timeout: float | None = None) -> None:
        header = _HDR.pack(_MAGIC, kind, len(body), zlib.crc32(body) & 0xFFFFFFFF)
        data = memoryview(header + body)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._send_lock:
            if self._closed:
                raise TransportClosed("endpoint is closed")
            sent = 0
            while sent < len(data):
                try:
                    sent += self._sock.send(data[sent:])
                except (BlockingIOError, InterruptedError):
                    self._wait_io(
                        False, deadline,
                        lambda: (
                            f"frame send stalled for {timeout:g}s "
                            f"(peer not draining)"
                        ),
                    )
                except OSError as exc:
                    raise TransportClosed(
                        f"connection lost mid-send ({exc})"
                    ) from None

    def recv_frame(self, timeout: float | None = None) -> tuple[int, memoryview]:
        deadline = None if timeout is None else time.monotonic() + timeout
        if self._closed:
            raise TransportClosed("endpoint is closed")
        header = self._recv_exact(_HDR.size, deadline)
        magic, kind, length, crc = _HDR.unpack(header)
        if magic != _MAGIC:
            raise FrameError(f"bad frame magic 0x{magic:08x} — stream corrupt")
        if length > _MAX_FRAME:
            raise FrameError(f"frame length {length} exceeds the 1 TiB cap")
        body = self._recv_exact(length, deadline)
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            raise FrameError("frame checksum mismatch — stream corrupt")
        return kind, body

    # -- typed convenience -----------------------------------------------------
    def send_obj(self, obj, timeout: float | None = None) -> None:
        self.send_frame(K_OBJ, pickle.dumps(obj), timeout)

    def recv_obj(self, timeout: float | None = None):
        kind, body = self.recv_frame(timeout)
        if kind != K_OBJ:
            raise FrameError(f"expected an OBJ frame, got kind {kind}")
        return pickle.loads(body)

    def send_msg(self, payload, step: int, timeout: float | None = None) -> None:
        t0 = time.perf_counter()
        self.send_frame(K_ARRAYS, encode_arrays(payload, step), timeout)
        self.xfer_seconds += time.perf_counter() - t0

    def recv_msg(self, timeout: float | None = None) -> tuple[int, object]:
        t0 = time.perf_counter()
        kind, body = self.recv_frame(timeout)
        if kind != K_ARRAYS:
            raise FrameError(f"expected an ARRAYS frame, got kind {kind}")
        out = decode_arrays(body)
        self.xfer_seconds += time.perf_counter() - t0
        return out

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


# -- the two seams -------------------------------------------------------------


class _SocketChannels:
    """Socket-backend channel set: one framed connection per cross-worker
    edge and payload kind — the drop-in sibling of ``_QueueChannels`` and
    ``_RingChannels``.

    Messages carry the driver's step-sequence tag; residue from an aborted
    step is discarded on receive, exactly like the ring transport, so the
    channels self-heal after an error with no flush handshake.  Streams
    copy on both ends (no shared slots to pin), so the reserve/pin surface
    degenerates to no-ops and ``can_reserve`` is False.
    """

    can_reserve = False

    def __init__(self, conns: dict[tuple[str, int], Transport], timeout: float):
        self._conns = conns
        self._timeout = timeout
        self.step = 0

    def xfer_seconds(self) -> float:
        return sum(c.xfer_seconds for c in self._conns.values())

    def recv(self, kind: str, edge: int):
        conn = self._conns[(kind, edge)]
        deadline = time.monotonic() + self._timeout
        while True:
            try:
                tag, payload = conn.recv_msg(max(0.0, deadline - time.monotonic()))
            except TransportTimeout:
                raise TransportTimeout(
                    f"waited >{self._timeout}s for a {kind} payload on edge "
                    f"{edge} that never arrived"
                ) from None
            if tag != self.step:
                continue  # stale message from an aborted step — discard
            return payload

    def send(self, kind: str, edge: int, payload) -> None:
        self._conns[(kind, edge)].send_msg(payload, self.step, self._timeout)

    def reserve(self, kind: str, edge: int, shape, dtype):
        return None

    def begin_wave(self, j: int) -> None:
        pass

    def release_wave(self, j: int) -> None:
        pass

    def release_all(self) -> None:
        pass

    def disconnect(self, kind: str, edge: int) -> None:
        """Sever one channel (fault injection / tests)."""
        self._conns[(kind, edge)].close()

    def drop(self, key: tuple[str, int]) -> None:
        """Remove and close one channel — its peer is being replaced, so
        the dead connection must not linger in the set (a later ``recv``
        on it would surface a confusing TransportClosed instead of using
        the re-dialed socket)."""
        conn = self._conns.pop(key, None)
        if conn is not None:
            conn.close()

    def adopt(self, key: tuple[str, int], conn: Transport) -> None:
        """Install the re-dialed connection for a dropped channel."""
        self._conns[key] = conn

    def close(self) -> None:
        for conn in self._conns.values():
            conn.close()


class RemoteWeightMirror:
    """Worker-side endpoint of the version-gated weight protocol over a
    socket: the driver *pushes* velocity and version frames after every
    optimizer boundary and this mirror replays them, in arrival order,
    into a resident window of the last ``history`` versions.

    The seam is identical to :class:`SharedWeightMirror`'s worker side —
    ``weights``/``latest_version``/``wait_version``/``velocity`` — so
    :class:`~repro.pipeline.plan.WorkerPlanMirror` runs unmodified.  Unlike
    the shared mirror it holds only this worker's slice: the stages in
    ``stage_shapes`` (the worker's ``read_stages``), in ascending order,
    which is exactly what every frame the driver sends it carries.  Asking
    for any other stage raises :class:`KeyError`.
    A dedicated drainer thread folds frames into the window *eagerly*, in
    arrival order — the driver's ``sendall`` must never block on a worker
    that happens not to need a version right now, or a weight window
    larger than the kernel socket buffer deadlocks the publish (the
    worker would only start reading once a step arrives on the control
    channel, which the blocked driver never sends).  In-order delivery
    guarantees that once version v is visible, every older resident
    version and v's boundary velocities (sent first, same as the shared
    mirror's publish order) are too.  The driver's latest can only run
    *ahead* of this view, never behind it, so the ``v > latest_version``
    gate check stays correct; the one non-monotone event — checkpoint
    restore — is fenced by :meth:`await_reset` (a RESET frame plus a
    control-channel marker).
    """

    def __init__(
        self,
        conn: Transport,
        stage_shapes: dict[int, list[tuple[int, ...]]],
        history: int,
        with_velocity: bool,
        worker: int,
    ):
        self._conn = conn
        self._counts = {s: len(stage_shapes[s]) for s in sorted(stage_shapes)}
        self.stages = list(self._counts)
        self.history = history
        self.with_velocity = with_velocity
        self.worker = worker
        self._window: dict[int, dict[int, list[np.ndarray]]] = {}
        self._velocity: dict[int, list[np.ndarray]] | None = None
        self._latest = -1
        self._cond = threading.Condition()
        self._resets = 0  # RESET frames folded so far
        self._resets_consumed = 0  # acknowledged by await_reset
        self._broken: BaseException | None = None
        self._drainer = threading.Thread(
            target=self._drain_loop, name="weight-drain", daemon=True
        )
        self._drainer.start()

    def _drain_loop(self) -> None:
        while True:
            try:
                kind, body = self._conn.recv_frame(None)
            except TransportError as exc:
                with self._cond:
                    self._broken = exc
                    self._cond.notify_all()
                return
            with self._cond:
                try:
                    if self._apply(kind, body):
                        self._resets += 1
                except BaseException as exc:
                    self._broken = exc
                    self._cond.notify_all()
                    return
                self._cond.notify_all()

    def _wait_for(self, ready, deadline: float, describe) -> None:
        with self._cond:
            while not ready():
                if self._broken is not None:
                    raise TransportClosed(
                        f"weight channel broke while {describe()} "
                        f"({self._broken})"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TransportTimeout(describe())
                self._cond.wait(remaining)

    @property
    def latest_version(self) -> int:
        return self._latest

    def _regroup(self, flat) -> dict[int, list[np.ndarray]]:
        arrays = list(flat) if isinstance(flat, tuple) else [flat]
        if len(arrays) != sum(self._counts.values()):
            raise FrameError(
                f"weight frame carried {len(arrays)} arrays, expected "
                f"{sum(self._counts.values())} for worker {self.worker}'s stages "
                f"{self.stages}"
            )
        stages, pos = {}, 0
        for stage, count in self._counts.items():
            group = arrays[pos:pos + count]
            for arr in group:
                arr.setflags(write=False)  # workers must never write weights
            stages[stage] = group
            pos += count
        return stages

    def _check_held(self, stage: int) -> None:
        if stage not in self._counts:
            raise KeyError(
                f"worker {self.worker} does not hold stage {stage}: its "
                f"weight mirror carries only stages {self.stages}"
            )

    def _apply(self, kind: int, body) -> bool:
        """Fold one weight-socket frame into the window; True for RESET."""
        if kind == K_RESET:
            self._window.clear()
            self._latest = -1
            return True
        version, payload = decode_arrays(body)
        stages = self._regroup(payload)
        if kind == K_VELOCITY:
            self._velocity = stages
            return False
        if kind != K_WEIGHTS:
            raise FrameError(f"unexpected frame kind {kind} on the weight socket")
        self._window[version] = stages
        self._latest = max(self._latest, version)
        for old in [v for v in self._window if v <= self._latest - self.history]:
            del self._window[old]
        return False

    def wait_version(self, version: int, timeout: float) -> None:
        if self._latest >= version:
            return
        self._wait_for(
            lambda: self._latest >= version,
            time.monotonic() + timeout,
            lambda: (
                f"weight version {version} was never published "
                f"(remote mirror at {self._latest} after {timeout:g}s)"
            ),
        )

    def await_reset(self, version: int, timeout: float) -> None:
        """Checkpoint-restore fence: wait until a RESET frame has been
        folded and the republished window's header lands on ``version``.
        The driver sends the weight frames first and then the
        control-channel marker that triggers this call, so the drainer
        may have folded the RESET already — each fence consumes one RESET
        frame, whether it landed before or after this call."""
        self._wait_for(
            lambda: self._resets > self._resets_consumed
            and self._latest == version,
            time.monotonic() + timeout,
            lambda: (
                f"weight window was never republished to version "
                f"{version} after a restore (at {self._latest} after "
                f"{timeout:g}s)"
            ),
        )
        with self._cond:
            self._resets_consumed += 1

    def weights(self, stage: int, version: int) -> list[np.ndarray]:
        self._check_held(stage)
        with self._cond:
            check_version_resident(
                version, self._latest, self.history, "remote mirror"
            )
            return self._window[version][stage]

    def velocity(self, stage: int) -> list[np.ndarray]:
        self._check_held(stage)
        if not self.with_velocity:
            raise RuntimeError("mirror was built without velocity buffers")
        if self._velocity is None:
            raise RuntimeError(
                "no velocity frame received yet (driver must publish velocity "
                "before the version that needs it)"
            )
        return self._velocity[stage]

    def close(self) -> None:
        self._conn.close()


# -- worker process ------------------------------------------------------------


def _report_grads(compute, seq: int) -> list:
    """Socket gradient return (no shared mailbox over a socket): the
    accumulated gradients ride the done report as per-binding ``(stage,
    positions, arrays)``, disjoint across workers."""
    return [
        (b.stage, list(b.positions), [p.grad for p in b.params])
        for b in compute.bindings
    ]


def _socket_worker_main(w: int, ctl_address: str, opts: dict) -> None:
    """Entry point of one socket stage worker.

    Only the bootstrap address crosses the process boundary; everything
    else — the model spec, resolver spec, channel
    topology, initial persistent state — arrives over the control socket,
    so the same entry point would serve a worker started on another host
    by any launcher.  Phases: dial the driver (control + weight
    connections), receive init, build the
    :class:`~repro.pipeline.worker.WorkerKernel`, bind channel listeners,
    report them, receive the full address map, dial send-side channels
    then accept recv-side ones, report ready, then serve step commands and
    control messages until shutdown or EOF.
    """
    handshake = opts["handshake_timeout"]
    timeout = opts["deadlock_timeout"]
    # Jitter desynchronizes the retry schedules of workers (re)connecting
    # after the same event — a whole generation dialing the driver, or every
    # mesh neighbor re-dialing one replacement — so attempts don't stampede
    # the listener backlog in lockstep.  Seeded by worker index: each worker
    # draws a distinct but reproducible schedule.
    backoff = Backoff(
        total=opts["connect_timeout"], jitter=0.25, rng=random.Random(w)
    )
    try:
        ctl = connect(ctl_address, opts["connect_timeout"], backoff)
        ctl.send_obj(("hello", w), handshake)
        wconn = connect(ctl_address, opts["connect_timeout"], backoff)
        wconn.send_obj(("weights", w), handshake)
    except TransportError:
        return  # driver gone before the handshake; nothing to report to
    chans = None
    mirror = None
    listeners: dict[tuple[str, int], Listener] = {}

    def report(r: Report) -> None:
        ctl.send_obj(("done", r), timeout)

    def mesh(dial, addresses) -> dict[tuple[str, int], Transport]:
        # Dial first, accept second: every listener reported bound before
        # the address broadcast, so dials complete against the backlog
        # without waiting for the peer's accept — no ordering deadlock
        # however the mesh is shaped.
        conns = {
            key: connect(addresses[key], opts["connect_timeout"], backoff)
            for key in dial
        }
        for key, listener in listeners.items():
            conns[key] = listener.accept(handshake)
            listener.close()
        listeners.clear()
        return conns

    def bind(prefix: str, listen: dict) -> dict:
        # Bind this worker's listeners, report them, and receive the merged
        # address map of every listener involved.
        for key, address in listen.items():
            listeners[key] = Listener(address, backlog=2)
        ctl.send_obj(
            (f"{prefix}bound", w, {key: l.address for key, l in listeners.items()}),
            timeout,
        )
        tag, addresses = ctl.recv_obj(handshake)
        if tag != f"{prefix}addresses":
            raise FrameError(f"expected {prefix}addresses, got {tag!r}")
        return addresses

    try:
        try:
            tag, init = ctl.recv_obj(handshake)
            if tag != "init":
                raise FrameError(f"expected init, got {tag!r}")
            spec = init["resolver_spec"]
            mirror = RemoteWeightMirror(
                wconn, init["stage_shapes"], spec.history, spec.use_t2, w
            )
            kernel = WorkerKernel.from_init(w, init, mirror, grad_sink=_report_grads)
            addresses = bind("", init["listen"])
            chans = _runtime._wrap_channels(
                _SocketChannels(mesh(init["dial"], addresses), timeout), w
            )
        except BaseException as exc:  # noqa: BLE001 — reported to driver
            report(Report(w, 0, "init_error", payload=_picklable_exc(exc)))
            return
        report(Report(w, 0, "ready"))

        stop_beats = threading.Event()

        def _heartbeat():
            while not stop_beats.wait(opts["heartbeat_interval"]):
                try:
                    ctl.send_obj(("hb", w), timeout)
                except TransportError:
                    return

        threading.Thread(
            target=_heartbeat, name=f"pipe-sock-hb-{w}", daemon=True
        ).start()

        while True:
            try:
                msg = ctl.recv_obj(None)
            except TransportClosed:
                break  # driver is gone; exit quietly
            if msg[0] == "shutdown":
                break
            if msg[0] == "pstate":
                kernel.compute.load_persistent_state(msg[1])
                continue
            if msg[0] == "resync":
                # Checkpoint restore: fence on the republished window so a
                # stale (higher) latest can never satisfy a gate against
                # the restored timeline.
                mirror.await_reset(msg[1], timeout)
                continue
            if msg[0] == "fence":
                # Quiesce ping after a per-worker replacement.  FIFO on the
                # control channel means reaching this message proves every
                # step command queued before it has fully run (or aborted)
                # — this worker can no longer be blocked on a stale-tagged
                # recv that would swallow the retried step's payloads.
                ctl.send_obj(("fenced", w, msg[1]), timeout)
                continue
            if msg[0] == "rewire":
                # A mesh neighbor was replaced inside this generation:
                # drop the channels that died with it, rebind fresh
                # listeners for the keys this worker owns (the receiver
                # listens, same role assignment as bring-up), report the
                # new addresses, then dial-then-accept against the merged
                # map exactly like the original handshake.  Every other
                # connection — control, weights, channels to unaffected
                # neighbors — survives untouched.  Failure is fatal for
                # this worker; the driver falls back to a generation
                # respawn.
                rewire = msg[1]
                try:
                    for key in rewire["close"]:
                        chans.drop(key)
                    addresses = bind("rewire_", rewire["listen"])
                    for key, conn in mesh(rewire["dial"], addresses).items():
                        chans.adopt(key, conn)
                except BaseException as exc:  # noqa: BLE001 — reported
                    try:
                        report(Report(w, 0, "init_error", payload=_picklable_exc(exc)))
                    except TransportError:
                        pass
                    break
                continue
            try:
                report(kernel.run_step(msg[1], chans, report))
            except TransportError:
                break  # driver is gone mid-report
        stop_beats.set()
    except TransportError:
        pass  # driver-side teardown raced the serve loop
    finally:
        for listener in listeners.values():
            listener.close()
        if chans is not None:
            chans.close()
        if mirror is not None:
            mirror.close()
        ctl.close()


# -- driver-side pool ----------------------------------------------------------


class SocketWorkerPool(_runtime._WorkerPoolBase):
    """Per-stage workers over framed sockets, behind the unchanged
    issue/collect scheduler surface — ``AsyncPipelineRuntime`` drives it
    exactly like the thread and process pools, so the same ``StepPlan``
    runs bit-for-bit.

    What is different is the failure story.  A :class:`WorkerRegistry`
    tracks every worker's task state, fed by one reader thread per control
    connection (done reports, early losses, heartbeats) and by process
    liveness; ``_peer_failure`` consults it, so a lost worker surfaces as
    a typed :class:`WorkerLostError` instead of a generic deadlock.  On
    loss the pool invalidates all steps issued before the event
    (``_dead_before`` — their collects fail fast rather than waiting out
    the deadlock timeout) and, if ``max_restarts`` allows, tears the whole
    worker set down and respawns it: fresh handshake, republished
    resolvable weight window, driver-side persistent state seeded through
    init.  The runtime's normal error path then restores the latest
    published weights, so the failed minibatch is simply retried.

    ``family="uds"`` (default) runs over Unix-domain sockets in a private
    tmpdir; ``family="tcp"`` binds loopback TCP with ephemeral ports — the
    single-host stand-in for the multi-host topology, with every byte on a
    real socket either way.
    """

    kind = "socket"

    def __init__(
        self,
        *,
        graph,
        plan,
        stages,
        loss_fn,
        model_spec: ModelSpec,
        deadlock_timeout: float,
        done_grace: float,
        granularity: str = "layer",
        max_workers: int | None = None,
        start_method: str | None = None,
        family: str = "uds",
        host: str = "127.0.0.1",
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float | None = None,
        connect_timeout: float = 10.0,
        handshake_timeout: float = 120.0,
        max_restarts: int = 0,
        max_worker_restarts: int = 0,
        fuse_waves: bool = True,
    ):
        super().__init__(graph, plan, deadlock_timeout, done_grace, fuse_waves)
        if family not in ("uds", "tcp"):
            raise ValueError(f"family must be 'uds' or 'tcp', got {family!r}")
        # Fail loudly on a misconfigured net_options dict: a negative
        # timeout or a heartbeat_timeout at/below the beat interval would
        # not error anywhere — it would just mark every healthy worker
        # LOST on the first sweep, which reads like a cluster outage.
        for key, value in (
            ("heartbeat_interval", heartbeat_interval),
            ("connect_timeout", connect_timeout),
            ("handshake_timeout", handshake_timeout),
        ):
            if value <= 0:
                raise ValueError(
                    f"net_options[{key!r}] must be positive, got {value!r}"
                )
        if heartbeat_timeout is not None and heartbeat_timeout <= heartbeat_interval:
            raise ValueError(
                f"net_options['heartbeat_timeout'] ({heartbeat_timeout!r}) "
                f"must exceed net_options['heartbeat_interval'] "
                f"({heartbeat_interval!r}); a timeout at or below the beat "
                f"interval marks every healthy worker LOST"
            )
        for key, value in (
            ("max_restarts", max_restarts),
            ("max_worker_restarts", max_worker_restarts),
        ):
            if value < 0:
                raise ValueError(
                    f"net_options[{key!r}] must be >= 0, got {value!r}"
                )
        self._init_spawned(stages, loss_fn, model_spec, granularity, max_workers)
        self._start_method = start_method
        self._family = family
        self._host = host
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_timeout = (
            heartbeat_timeout
            if heartbeat_timeout is not None
            else max(10 * heartbeat_interval, 5.0)
        )
        self._connect_timeout = connect_timeout
        self._handshake_timeout = handshake_timeout
        self._send_timeout = deadlock_timeout + done_grace
        self.max_restarts = max_restarts
        self._restarts_left = max_restarts
        self.max_worker_restarts = max_worker_restarts
        self._worker_restarts_left = max_worker_restarts
        self._generation = 0
        self._rewires = 0  # per-worker replacements (names fresh uds paths)
        # Survivors' ("rewire_bound", w, addrs) replies arrive on control
        # connections owned by reader threads; they are routed here for the
        # driver thread running the replacement handshake.
        self._rewire_q: queue.SimpleQueue = queue.SimpleQueue()
        # ("fenced", w, token) replies to the post-replacement quiesce ping
        # (see _await_quiesce), routed the same way.
        self._fence_q: queue.SimpleQueue = queue.SimpleQueue()
        # Steps issued at or before this sequence died with a lost worker:
        # their collects fail fast with WorkerLostError instead of waiting
        # out the deadlock timeout (the runtime drains them on recovery).
        self._dead_before = 0
        self._lost_worker: int | None = None
        self._done: queue.SimpleQueue = queue.SimpleQueue()
        self._dir = tempfile.mkdtemp(prefix="pmnet-") if family == "uds" else None
        self.registry = WorkerRegistry(graph.num_workers, self._heartbeat_timeout)
        self._ctls: list[Transport | None] = []
        self._weight_conns: list[Transport | None] = []
        self._procs: list = []
        self._stage_shapes = [[tuple(p.shape) for p in s.params] for s in stages]
        # Each worker's weight slice: the stages it reads (owned bindings
        # plus borrowed tied-weight stages).  Its mirror holds only these,
        # and every weight/velocity frame it is sent carries only these.
        self._read_stages = [compute.read_stages for compute in graph.workers]
        # Channels exist only for cross-worker edges (local and external
        # edges never touch a transport).
        self._cross = [
            (e.index, e.src_worker, e.dst.worker) for e in graph.cross_edges()
        ]
        try:
            self._spawn_workers()
        except BaseException:
            self.close()
            raise

    # -- topology --------------------------------------------------------------
    def _address(self, name: str) -> str:
        if self._family == "uds":
            return f"uds:{self._dir}/{name}"
        return f"tcp:{self._host}:0"

    def _spawn_workers(self) -> None:
        """Launch and handshake a complete worker set (initial bring-up and
        every respawn): dial-back and init, gather bound channel listeners,
        broadcast the address map, await ready, publish the resolvable
        weight window."""
        k = self.num_workers
        gen = str(self._generation)
        self._generation += 1
        self.registry = WorkerRegistry(k, self._heartbeat_timeout)
        # Visible to _teardown_workers from the first accept: if the
        # handshake dies partway (worker death, timeout, garbage), close()
        # must reach the connections already accepted, not just a
        # fully-assembled set.
        self._ctls = [None] * k
        self._weight_conns = [None] * k
        self._procs = [None] * k
        self._dial_back(range(k), gen)
        addresses: dict[tuple[str, int], str] = {}
        for w in range(k):
            addresses.update(self._recv_bound(w, self._handshake_timeout))
        for w in range(k):
            self._ctls[w].send_obj(("addresses", addresses), self._handshake_timeout)
            self._start_reader(w, gen)
        self._await_ready(range(k), self._handshake_timeout)
        for w in range(k):
            self.registry.transition(w, TaskState.READY)
        self._publish_window()

    def _dial_back(self, workers, tag: str) -> None:
        """Start a worker process in each slot of ``workers``, accept its
        control and weight connections on a fresh bootstrap listener, and
        send it its init with channel listener addresses named by ``tag``.
        Shared by bring-up and per-worker replacement."""
        opts = {
            "connect_timeout": self._connect_timeout,
            "handshake_timeout": self._handshake_timeout,
            "heartbeat_interval": self._heartbeat_interval,
            "deadlock_timeout": self.deadlock_timeout,
        }
        ctx = multiprocessing.get_context(
            self._start_method or _runtime._default_start_method()
        )
        listener = Listener(self._address(f"ctl{tag}"), backlog=2 * len(workers))
        try:
            for w in workers:
                proc = ctx.Process(
                    target=_socket_worker_main,
                    args=(w, listener.address, opts),
                    name=f"pipe-sock-{tag}-{w}",
                    daemon=True,
                )
                proc.start()
                self._procs[w] = proc
            deadline = time.monotonic() + self._handshake_timeout
            pending = 2 * len(workers)
            while pending:
                try:
                    conn = listener.accept(0.2)
                except TransportTimeout:
                    dead = self._peer_failure()
                    if dead is not None:
                        raise WorkerLostError(
                            f"socket worker failed to start: {dead}",
                            worker=self._lost_worker,
                        ) from None
                    if time.monotonic() > deadline:
                        raise TransportTimeout(
                            f"worker handshake incomplete after "
                            f"{self._handshake_timeout:g}s"
                        ) from None
                    continue
                try:
                    kind, w = conn.recv_obj(self._handshake_timeout)
                    slots = {"hello": self._ctls, "weights": self._weight_conns}.get(kind)
                    if slots is None or w not in workers or slots[w] is not None:
                        raise FrameError(f"unexpected handshake frame {(kind, w)!r}")
                    slots[w] = conn
                except BaseException:
                    conn.close()  # not in any slot yet; nobody else can
                    raise
                pending -= 1
        finally:
            listener.close()
        for w in workers:
            listen, dial = _runtime._edge_roles(self._cross, w)
            init = self._worker_init(
                w,
                stage_shapes=self._slice_shapes(w),
                listen={key: self._address(f"c{tag}_{key[0]}{key[1]}") for key in listen},
                dial=dial,
            )
            self._ctls[w].send_obj(("init", init), self._handshake_timeout)

    def _recv_bound(self, w: int, timeout: float) -> dict:
        """Worker ``w``'s freshly bound listener addresses, read straight off
        its control connection (no reader thread owns it yet)."""
        msg = self._ctls[w].recv_obj(timeout)
        if msg[0] == "done" and msg[1].kind == "init_error":
            raise msg[1].payload
        if msg[0] != "bound":
            raise FrameError(f"expected bound from worker {w}, got {msg[0]!r}")
        return msg[2]

    def _start_reader(self, w: int, tag: str) -> None:
        threading.Thread(
            target=self._reader,
            args=(w, self._ctls[w], self.registry),
            name=f"pipe-sock-reader-{tag}-{w}",
            daemon=True,
        ).start()

    def _reader(self, w: int, conn: Transport, registry: WorkerRegistry) -> None:
        """Drain worker ``w``'s control connection for the lifetime of one
        worker generation: done reports and early losses go to the done
        queue, heartbeats refresh the registry, EOF/corruption marks the
        worker LOST.  The registry is captured, not read off self: after a
        respawn a straggling reader can only mutate its own generation's
        (discarded) records."""
        while True:
            try:
                msg = conn.recv_obj(None)
            except TransportError as exc:
                # Only the connection currently registered for this slot may
                # declare it lost: during a per-worker replacement the old
                # conn is closed and its slot re-pointed at the new one, so
                # a straggling reader observing the *old* socket die must
                # not poison the replacement's record.
                ctls = self._ctls
                if w < len(ctls) and ctls[w] is conn:
                    registry.mark_lost(w, f"worker {w} connection lost ({exc})")
                return
            registry.beat(w)
            if msg[0] == "hb":
                continue
            if msg[0] == "rewire_bound":
                # Survivor's reply in the replacement handshake; the driver
                # thread inside _replace_worker is waiting on it.
                self._rewire_q.put(msg)
                continue
            if msg[0] == "fenced":
                self._fence_q.put(msg)
                continue
            if msg[0] == "done":
                report = msg[1]
                if report.kind in ("ok", "error", "deadlock"):
                    try:
                        registry.transition(w, TaskState.READY)
                    except RuntimeError:
                        pass  # racing a LOST mark; LOST wins
                self._done.put(report)
                continue
            registry.mark_lost(w, f"worker {w} spoke garbage ({msg[0]!r})")
            return

    # -- failure detection -----------------------------------------------------
    def _peer_failure(self) -> str | None:
        # _teardown_workers empties the list, so it always holds exactly the
        # current generation's processes, in worker order.
        for w, proc in enumerate(self._procs):
            if proc is None or proc.is_alive() or proc.exitcode == 0:
                continue
            reason = f"worker process {proc.name} died with exit code {proc.exitcode}"
            if self.registry[w].state is TaskState.REPLACING:
                # The registry leaves a slot under replacement to the
                # driver thread running its handshake, which is here.
                self._lost_worker = w
                return f"replacement for pipeline worker {w} was lost: {reason}"
            self.registry.mark_lost(w, reason)
        rec = self.registry.first_lost()
        if rec is None:
            return None
        self._lost_worker = rec.worker
        return f"pipeline worker {rec.worker} was lost: {rec.reason}"

    def _peer_error(self, dead: str) -> BaseException:
        return WorkerLostError(dead, worker=self._lost_worker)

    def _get_routed(self, q: queue.SimpleQueue, deadline: float, what: str):
        """Next reply a reader thread routed to ``q``, failing fast on a lost
        worker and with a typed timeout once ``deadline`` passes."""
        while True:
            try:
                return q.get(timeout=0.2)
            except queue.Empty:
                dead = self._peer_failure()
                if dead is not None:
                    raise WorkerLostError(dead, worker=self._lost_worker) from None
                if time.monotonic() > deadline:
                    raise TransportTimeout(what) from None

    # -- scheduler surface -----------------------------------------------------
    def issue(self, t, sync, ext, ys, scales, num_microbatches) -> int:
        self._seq += 1
        self._issued.append(self._seq)
        for w, conn in enumerate(self._ctls):
            try:
                conn.send_obj(
                    ("step", self._command(w, t, sync, ext, ys, scales)),
                    self._send_timeout,
                )
            except TransportError as exc:
                # The worker died between steps.  Nobody will ever collect
                # this sequence (the runtime has not recorded it yet), so
                # withdraw it before handling the loss.
                self.registry.mark_lost(w, f"unreachable at issue ({exc})")
                self._issued.pop()
                err = WorkerLostError(
                    f"pipeline worker {w} is gone ({exc})", worker=w
                )
                self._handle_loss()
                raise err from None
            try:
                self.registry.transition(w, TaskState.RUNNING)
            except RuntimeError:
                pass  # already LOST or still RUNNING a buffered prior step
        return self._seq

    def _collect(self, seq: int):
        if seq <= self._dead_before:
            raise WorkerLostError(
                f"step {seq} was in flight when a worker was lost; its "
                f"results are gone (weights were restored to the latest "
                f"published version)",
                worker=self._lost_worker,
            )
        try:
            return super()._collect(seq)
        except (WorkerLostError, TransportClosed) as exc:
            err = (
                exc
                if isinstance(exc, WorkerLostError)
                else WorkerLostError(f"a worker's channel closed mid-step: {exc}")
            )
            self._handle_loss()
            raise err from exc

    def _fold_grads(self, seq: int, payloads: dict[int, tuple]) -> None:
        # Each worker owns disjoint (stage, position) coordinates, so the
        # fold order cannot matter; sorted for determinism anyway.
        for w in sorted(payloads):
            for s, positions, arrays in payloads[w][2]:
                params = self.stages[s].params
                for pos, arr in zip(positions, arrays):
                    params[pos].grad[...] = arr

    def await_losses(self, seq: int):
        if seq <= self._dead_before:
            return None
        return super().await_losses(seq)

    def publish_plan_state(self) -> None:
        # Velocity first, version last: in-order frame delivery makes the
        # version frame the release operation, same as the shared mirror's
        # header bump.
        plan = self.plan
        if plan.corrector is not None:
            self._send_slices(K_VELOCITY, plan.corrector.velocity, -1)
        store = plan.store
        v = store.latest_version
        self._send_slices(
            K_WEIGHTS, [store.weights(s, v) for s in range(store.num_stages)], v
        )

    def full_resync(self) -> None:
        """Checkpoint restore: clear every remote window, republish the
        resolvable versions, then fence each worker through its control
        channel (FIFO with the next step command) so a stale higher
        ``latest`` can never satisfy a gate against the restored
        timeline."""
        self._send_weights(K_RESET, lambda w: b"")
        self._publish_window()
        v = self.plan.store.latest_version
        for w, (conn, compute) in enumerate(zip(self._ctls, self.graph.workers)):
            try:
                conn.send_obj(("resync", v), self._send_timeout)
                if compute.has_persistent_state():
                    conn.send_obj(
                        ("pstate", compute.persistent_state()), self._send_timeout
                    )
            except TransportError as exc:
                self.registry.mark_lost(w, f"unreachable at resync ({exc})")
                self.wedged = True
                raise WorkerLostError(
                    f"pipeline worker {w} is gone ({exc})", worker=w
                ) from None

    def _publish_window(self, workers=None) -> None:
        """Publish every resolvable resident version — to all workers on
        bring-up/respawn, or (``workers=...``) to just a replacement whose
        fresh mirror starts empty while survivors keep their windows."""
        plan = self.plan
        if plan.corrector is not None:
            self._send_slices(K_VELOCITY, plan.corrector.velocity, -1, workers)
        store = plan.store
        resident = set(store.resident_versions(0))
        for v in sorted(set(plan.resolvable_versions()) & resident):
            self._send_slices(
                K_WEIGHTS,
                [store.weights(s, v) for s in range(store.num_stages)],
                v,
                workers,
            )

    def _slice_shapes(self, w: int) -> dict[int, list[tuple[int, ...]]]:
        return {s: self._stage_shapes[s] for s in self._read_stages[w]}

    def _send_slices(self, kind: int, per_stage, version: int, workers=None) -> None:
        """One ``kind`` frame per worker carrying ``per_stage[s]`` for just
        the stages ``s`` that worker reads, flattened in ascending stage
        order (the remote mirror regroups by the shapes shipped in init).
        A stage read by two workers (a sublayer split) goes to both."""
        self._send_weights(
            kind,
            lambda w: encode_arrays(
                tuple(a for s in self._read_stages[w] for a in per_stage[s]),
                version,
            ),
            workers,
        )

    def _send_weights(self, kind: int, body_of, workers=None) -> None:
        for w, conn in enumerate(self._weight_conns):
            if conn is None or (workers is not None and w not in workers):
                continue
            try:
                conn.send_frame(kind, body_of(w), self._send_timeout)
            except TransportError as exc:
                self.registry.mark_lost(w, f"unreachable at publish ({exc})")
                self.wedged = True
                raise WorkerLostError(
                    f"pipeline worker {w} is gone ({exc})", worker=w
                ) from None

    # -- loss handling ---------------------------------------------------------
    def _drain_residue(self) -> None:
        self._buffered.clear()
        self._early_losses.clear()
        while True:
            try:
                self._done.get_nowait()
            except queue.Empty:
                break

    def _handle_loss(self) -> None:
        """A worker is LOST.  Invalidate everything issued before now, then
        recover along the cheapest path that still has budget:

        1. *Per-worker replacement* (``max_worker_restarts``): exactly one
           worker is lost — respawn just that slot inside the current
           generation.  Survivors keep their processes, control/weight
           connections and mirror windows; only the channels adjacent to
           the dead worker are re-dialed (see :meth:`_replace_worker`).
        2. *Generation respawn* (``max_restarts``): connections,
           processes, registry and remote weight windows are replaced
           wholesale — the fallback when several workers died at once or
           a replacement handshake itself failed.
        3. *Wedge*: no budget left; every further step raises.

        Either recovery leaves the failed minibatch for the caller to
        retry (collects for steps at or before ``_dead_before`` fail fast
        with :class:`WorkerLostError`)."""
        self._dead_before = self._seq
        self._drain_residue()
        lost = [
            w
            for w, s in enumerate(self.registry.states())
            if s is TaskState.LOST
        ]
        if len(lost) == 1 and self._worker_restarts_left > 0:
            self._worker_restarts_left -= 1
            try:
                self._replace_worker(lost[0])
            except BaseException:
                # The replacement handshake failed (slot or a survivor went
                # down mid-rewire, or it timed out).  Record the outcome and
                # fall through to the blunt recovery below.
                try:
                    self.registry.transition(
                        lost[0], TaskState.LOST, "replacement handshake failed"
                    )
                except RuntimeError:
                    pass  # already LOST (e.g. a survivor died instead)
                self._drain_residue()
            else:
                self.wedged = False
                return
        if self._restarts_left > 0:
            self._restarts_left -= 1
            self._teardown_workers()
            try:
                self._spawn_workers()
            except BaseException:
                self.wedged = True  # respawn itself failed; no third option
                raise
            self.wedged = False
        else:
            self.wedged = True

    def _replace_worker(self, w: int) -> None:
        """Respawn slot ``w`` inside the current generation.

        Protocol (driver thread; survivors answer from their serve loops,
        so a survivor still aborting the failed step joins as soon as it
        has reported it):

        1. retire the old slot: null the conn slots (so the straggling
           reader cannot poison the new record), close them, reap the
           process, move the registry LOST → REPLACING;
        2. bootstrap the replacement exactly like bring-up — fresh
           listener, hello/weights dial-back, init with the driver's
           current persistent state and *fresh* channel addresses;
        3. tell every mesh neighbor to ``rewire``: drop the channels that
           died with ``w``, rebind fresh listeners for the keys it owns,
           reply ``rewire_bound`` (routed here via ``_rewire_q``);
        4. merge the replacement's ``bound`` with the survivors' replies
           and broadcast the address map to all affected workers — every
           listener is bound before anyone dials, the same ordering that
           makes bring-up deadlock-free;
        5. await the replacement's ``ready``, publish the resolvable
           weight window to *its* mirror only, reseed survivors'
           persistent state, move the registry REPLACING → READY.

        Any failure raises; the caller falls back to a generation respawn
        (or wedges)."""
        registry = self.registry
        old = (self._ctls[w], self._weight_conns[w])
        self._ctls[w] = None
        self._weight_conns[w] = None
        for conn in old:
            if conn is not None:
                conn.close()
        _runtime._reap([self._procs[w]])
        registry.transition(w, TaskState.REPLACING)
        for q in (self._rewire_q, self._fence_q):
            while True:  # residue from an earlier failed attempt
                try:
                    q.get_nowait()
                except queue.Empty:
                    break
        self._rewires += 1
        tag = f"r{self._rewires}"
        self._dial_back([w], tag)

        # Survivor rewires: each neighbor's spec covers exactly the channel
        # keys on edges it shares with w (every such key has one listener —
        # the receiver — so one fresh-address namespace covers the lot).
        adjacent = [(i, s, d) for (i, s, d) in self._cross if w in (s, d)]
        neighbors: dict[int, dict] = {}
        for u in range(self.num_workers):
            mine = [(i, s, d) for (i, s, d) in adjacent if u != w and u in (s, d)]
            if not mine:
                continue
            u_listen, u_dial = _runtime._edge_roles(mine, u)
            neighbors[u] = {
                "close": sorted(u_listen + u_dial),
                "listen": {
                    key: self._address(f"c{tag}_{key[0]}{key[1]}")
                    for key in u_listen
                },
                "dial": u_dial,
            }
        for u, spec in neighbors.items():
            self._ctls[u].send_obj(("rewire", spec), self._send_timeout)

        # Merge bound replies.  The replacement's arrives on its ctl (no
        # reader thread yet); survivors' are routed via _rewire_q — and a
        # survivor blocked mid-aborted-step only answers after that step's
        # deadline, so the wait window covers step deadline + handshake.
        window = self.deadlock_timeout + self.done_grace + self._handshake_timeout
        addresses = dict(self._recv_bound(w, window))
        deadline = time.monotonic() + window
        for _ in neighbors:
            msg = self._get_routed(
                self._rewire_q, deadline,
                "survivors did not rebind their channels in time",
            )
            addresses.update(msg[2])
        self._ctls[w].send_obj(("addresses", addresses), self._handshake_timeout)
        for u in neighbors:
            self._ctls[u].send_obj(("rewire_addresses", addresses), self._send_timeout)
        self._start_reader(w, tag)
        self._await_ready([w], window)

        # The fresh mirror starts empty; survivors keep their windows, so
        # publish resolvable versions to the replacement alone.  Reseed
        # survivors' persistent state from the driver copies (which hold
        # only collected-step state) so the retried minibatch replays the
        # exact trajectory, matching generation-respawn semantics.
        self._publish_window(workers=(w,))
        for u in neighbors:
            compute = self.graph.workers[u]
            if compute.has_persistent_state():
                self._ctls[u].send_obj(
                    ("pstate", compute.persistent_state()), self._send_timeout
                )
        registry.transition(w, TaskState.READY)
        self._await_quiesce(self._rewires)

    def _await_quiesce(self, token: int) -> None:
        """Fence every worker's serve loop before the caller may retry.

        The rewire handshake only synchronizes the dead worker's mesh
        *neighbors*; a survivor elsewhere in the pipeline can still be
        blocked inside an aborted step — or, with the overlapped boundary,
        still hold a queued step command issued before the loss.  Such a
        straggler waits on channel recvs for a *stale* step tag, and the
        tag-discard rule would make it consume and drop the retried step's
        payloads, starving the whole pipeline.  (Generation respawn never
        faces this: teardown kills every straggler.)

        A ``fence`` ping rides the FIFO control channel behind everything
        already queued, so the ``fenced`` reply proves the worker is back
        in its serve loop with no step commands outstanding.  Each queued
        zombie step can burn a full deadlock window before aborting, so
        the deadline scales with the in-flight count."""
        for conn in self._ctls:
            conn.send_obj(("fence", token), self._send_timeout)
        waiting = set(range(self.num_workers))
        deadline = time.monotonic() + (
            self.deadlock_timeout * (len(self._issued) + 1)
            + self.done_grace
            + self._handshake_timeout
        )
        while waiting:
            _, ww, tok = self._get_routed(
                self._fence_q, deadline,
                f"workers {sorted(waiting)} did not quiesce after a replacement",
            )
            if tok == token:
                waiting.discard(ww)
        self._drain_residue()

    def _teardown_workers(self) -> None:
        for conn in self._ctls:
            if conn is None:
                continue
            try:
                conn.send_obj(("shutdown",), 0.5)
            except TransportError:
                pass
        for conn in list(self._ctls) + list(self._weight_conns):
            if conn is not None:
                conn.close()
        self._ctls = []
        self._weight_conns = []
        _runtime._reap(self._procs)
        self._procs = []

    def close(self) -> None:
        self._teardown_workers()
        if self._dir is not None:
            try:
                for name in os.listdir(self._dir):
                    try:
                        os.unlink(os.path.join(self._dir, name))
                    except OSError:
                        pass
                os.rmdir(self._dir)
            except OSError:
                pass
            self._dir = None
