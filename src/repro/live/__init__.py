"""Live asyncio runtime: the paper's detectors on wall-clock time.

The simulator (:mod:`repro.sim`) answers "what QoS *should* this
configuration have"; this package answers "what QoS does it have when
the timers, message pacing, and deliveries run on a real event loop".
The detectors themselves are the unmodified :mod:`repro.core` classes —
:class:`~repro.live.runtime.LiveDetectorHost` satisfies the same
:class:`~repro.core.base.DetectorRuntime` protocol the simulator does,
with ``loop.call_at`` behind it instead of an event queue.

Layers:

* :mod:`repro.live.wire` — the heartbeat datagram format;
* :mod:`repro.live.transport` — UDP endpoints and the seedable
  loopback transport driven by the simulation's link models;
* :mod:`repro.live.runtime` — hosting a detector on the loop clock;
* :mod:`repro.live.sender` — η-paced heartbeat sending;
* :mod:`repro.live.monitor` — the monitoring service (bounded inbox,
  incarnation dispatch, supervised consumer);
* :mod:`repro.live.supervisor` — crash/restart task supervision;
* :mod:`repro.live.soak` — soak runs gated against Theorem 5;
* :mod:`repro.live.roles` — two-terminal UDP sender/monitor roles.
"""

from repro.live.monitor import LiveMonitorService, LivePeerResult
from repro.live.runtime import LiveDetectorHost
from repro.live.sender import LiveHeartbeatSender
from repro.live.soa import LoopWheelScheduler, SoALiveHost
from repro.live.soak import KillReport, SoakConfig, SoakGate, SoakResult, run_soak
from repro.live.supervisor import TaskCrash, TaskSupervisor
from repro.live.transport import (
    BatchedUdpMonitorTransport,
    LoopbackNetwork,
    MonitorTransport,
    SenderTransport,
    UdpMonitorTransport,
    UdpSenderTransport,
)
from repro.live.wire import (
    HeartbeatBatchDecoder,
    HeartbeatEncoder,
    LiveHeartbeat,
    WireError,
    decode_heartbeat,
    encode_heartbeat,
)

__all__ = [
    "LiveMonitorService",
    "LivePeerResult",
    "LiveDetectorHost",
    "LiveHeartbeatSender",
    "SoALiveHost",
    "LoopWheelScheduler",
    "SoakConfig",
    "SoakGate",
    "SoakResult",
    "KillReport",
    "run_soak",
    "TaskCrash",
    "TaskSupervisor",
    "BatchedUdpMonitorTransport",
    "LoopbackNetwork",
    "MonitorTransport",
    "SenderTransport",
    "UdpMonitorTransport",
    "UdpSenderTransport",
    "LiveHeartbeat",
    "WireError",
    "HeartbeatEncoder",
    "HeartbeatBatchDecoder",
    "encode_heartbeat",
    "decode_heartbeat",
]
