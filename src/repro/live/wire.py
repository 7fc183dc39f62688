"""Wire format for live heartbeat messages.

One heartbeat is one datagram.  The payload is a fixed header plus the
sender's name:

====== ======== ==========================================================
offset format   field
====== ======== ==========================================================
0      ``4s``   magic ``b"RQHB"``
4      ``B``    version (currently 1)
5      ``I``    incarnation (bumped on every restart; footnote 2 of the
                paper — a restarted process assumes a new identity)
9      ``Q``    sequence number ``i`` of message ``m_i``
17     ``d``    ``σ_i`` — p's local clock reading at the (nominal) send
25     ``H``    sender-name length ``L``
27     ``Ls``   sender name, UTF-8
====== ======== ==========================================================

All integers are network byte order.  The send timestamp is the
*nominal* ``σ_i = i·η`` of the sender's schedule, not the actual wall
time the datagram left the socket — exactly the semantics of the
simulator's :class:`~repro.sim.heartbeat.HeartbeatSender`, and what the
Section 5/6 estimators expect (``A − S`` measures delay *plus* any send
lateness, which is part of the end-to-end behaviour being estimated).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ReproError

__all__ = [
    "WireError",
    "LiveHeartbeat",
    "encode_heartbeat",
    "decode_heartbeat",
    "HeartbeatEncoder",
    "HeartbeatBatchDecoder",
]

MAGIC = b"RQHB"
VERSION = 1
_HEADER = struct.Struct("!4sBIQdH")
#: byte offset of the (seq, σ_i) pair inside the header: the only two
#: fields that change between a sender's consecutive heartbeats.
_SEQ_SIGMA_OFFSET = 9
_SEQ_SIGMA = struct.Struct("!Qd")
MAX_NAME_BYTES = 0xFFFF


class WireError(ReproError):
    """A datagram could not be decoded as a live heartbeat."""


@dataclass(frozen=True)
class LiveHeartbeat:
    """A decoded heartbeat datagram."""

    sender: str
    incarnation: int
    seq: int
    send_local_time: float


def encode_heartbeat(
    sender: str, incarnation: int, seq: int, send_local_time: float
) -> bytes:
    """Serialize one heartbeat into a datagram payload."""
    name = sender.encode("utf-8")
    if len(name) > MAX_NAME_BYTES:
        raise WireError(f"sender name too long ({len(name)} bytes)")
    if seq < 0:
        raise WireError(f"seq must be >= 0, got {seq}")
    if incarnation < 0:
        raise WireError(f"incarnation must be >= 0, got {incarnation}")
    return (
        _HEADER.pack(
            MAGIC, VERSION, incarnation, seq, float(send_local_time), len(name)
        )
        + name
    )


def decode_heartbeat(payload: bytes) -> LiveHeartbeat:
    """Parse a datagram payload; raises :class:`WireError` on junk.

    A monitor bound to a real UDP port will receive stray datagrams
    (port scans, misdirected traffic); decoding failures are ordinary
    events to be counted, not crashes.  The checks are those of
    :meth:`HeartbeatBatchDecoder._decode_validated`, run on a fresh
    decoder so that callers share no cache state.
    """
    return LiveHeartbeat(*HeartbeatBatchDecoder()._decode_validated(payload))


# ---------------------------------------------------------------------- #
# Allocation-light hot path
# ---------------------------------------------------------------------- #


class HeartbeatEncoder:
    """Per-sender cached encoder for the live hot path.

    A sender's magic, version, incarnation, name length and name never
    change between heartbeats — only ``(seq, σ_i)`` do.  The encoder
    packs the constant prefix once into a reused ``bytearray`` and
    ``pack_into``-s the two varying fields per message, so the per-send
    cost is one 16-byte struct pack plus one ``bytes`` snapshot (the
    snapshot is required: transports may hold the payload until a
    delayed delivery fires, so handing out the mutable buffer would
    corrupt in-flight datagrams).

    Produces byte-identical payloads to :func:`encode_heartbeat` — the
    compatibility surface — which the wire test suite pins.
    """

    __slots__ = ("_buf", "sender", "incarnation")

    def __init__(self, sender: str, incarnation: int = 0) -> None:
        name = sender.encode("utf-8")
        if len(name) > MAX_NAME_BYTES:
            raise WireError(f"sender name too long ({len(name)} bytes)")
        if incarnation < 0:
            raise WireError(
                f"incarnation must be >= 0, got {incarnation}"
            )
        self.sender = sender
        self.incarnation = int(incarnation)
        buf = bytearray(_HEADER.size + len(name))
        _HEADER.pack_into(
            buf, 0, MAGIC, VERSION, incarnation, 0, 0.0, len(name)
        )
        buf[_HEADER.size:] = name
        self._buf = buf

    def encode(self, seq: int, send_local_time: float) -> bytes:
        """One datagram payload for ``m_seq`` (a fresh bytes snapshot)."""
        try:
            _SEQ_SIGMA.pack_into(
                self._buf, _SEQ_SIGMA_OFFSET, seq, send_local_time
            )
        except struct.error as exc:
            raise WireError(f"cannot encode seq {seq}: {exc}") from None
        return bytes(self._buf)


class HeartbeatBatchDecoder:
    """Decoder for the monitor's drain loop: no per-message dataclass.

    :meth:`decode_fields` returns a plain
    ``(sender, incarnation, seq, send_local_time)`` tuple, and resolves
    the sender name through an interning cache — a monitor receiving
    thousands of heartbeats per second from a fixed population decodes
    each name's UTF-8 once, not once per message.  The cache is bounded:
    junk traffic with ever-fresh names (port scans) clears it rather
    than growing it without limit.

    On top of name interning, consecutive heartbeats from one sender
    differ *only* in the 16 ``(seq, σ)`` bytes.  The decoder therefore
    caches ``(sender, incarnation)`` keyed by the payload's constant
    region — header prefix plus name tail — and a hit skips the full
    header unpack and every validation step those constant bytes
    already passed: one dict probe plus one 16-byte unpack per message.
    A key can only enter the cache through the fully-validating slow
    path (:meth:`_decode_validated`, which :func:`decode_heartbeat` also
    uses), so junk never hits.
    """

    __slots__ = ("_names", "_prefix", "_max_names")

    def __init__(self, max_names: int = 65536) -> None:
        self._names: Dict[bytes, str] = {}
        #: constant-region bytes -> (sender, incarnation)
        self._prefix: Dict[bytes, Tuple[str, int]] = {}
        self._max_names = int(max_names)

    def decode_fields(self, payload) -> Tuple[str, int, int, float]:
        """Parse one payload; raises :class:`WireError` on junk.

        Accepts ``bytes``, ``bytearray`` or ``memoryview`` — the
        ``recv_into`` transport hands out views over a reused buffer.
        """
        # Fast path: everything but (seq, σ) matched a previously
        # validated payload byte-for-byte.  The key length pins the
        # payload length too (|key| = |payload| − 16), so a hit implies
        # the header unpack and name checks of the validating path
        # would succeed with identical results.
        if type(payload) is bytes:
            key = payload[:_SEQ_SIGMA_OFFSET] + payload[_HEADER.size - 2 :]
        else:  # bytearray / memoryview: slices are not hashable bytes
            key = bytes(payload[:_SEQ_SIGMA_OFFSET]) + bytes(
                payload[_HEADER.size - 2 :]
            )
        hit = self._prefix.get(key)
        if hit is not None:
            seq, send_local_time = _SEQ_SIGMA.unpack_from(
                payload, _SEQ_SIGMA_OFFSET
            )
            return hit[0], hit[1], seq, send_local_time
        fields = self._decode_validated(payload)
        if len(self._prefix) >= self._max_names:
            self._prefix.clear()
        self._prefix[key] = fields[:2]
        return fields

    def _decode_validated(self, payload) -> Tuple[str, int, int, float]:
        """The one validating decode: length, magic, version, name
        length and UTF-8 are all checked here, with sender names
        interned through the bounded name cache."""
        if len(payload) < _HEADER.size:
            raise WireError(f"datagram too short ({len(payload)} bytes)")
        magic, version, incarnation, seq, send_local_time, name_len = (
            _HEADER.unpack_from(payload)
        )
        if magic != MAGIC:
            raise WireError(f"bad magic {magic!r}")
        if version != VERSION:
            raise WireError(f"unsupported version {version}")
        name = bytes(payload[_HEADER.size : _HEADER.size + name_len])
        if len(name) != name_len:
            raise WireError(
                f"truncated name: header says {name_len}, got "
                f"{len(name)} bytes"
            )
        sender = self._names.get(name)
        if sender is None:
            try:
                sender = name.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise WireError(
                    f"sender name is not UTF-8: {exc}"
                ) from None
            if len(self._names) >= self._max_names:
                self._names.clear()
            self._names[name] = sender
        return sender, incarnation, seq, send_local_time
