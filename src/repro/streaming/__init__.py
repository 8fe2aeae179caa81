"""Online (real-time) resource prediction.

The paper's §V-C closes with applying the model "to the real-time
resource usage prediction". This subpackage provides that serving layer:
a ring buffer over incoming monitoring records, concept-drift detection
(Page-Hinkley), and an :class:`OnlinePredictor` that serves one-step
predictions while refitting its forecaster periodically or on drift,
scoring itself prequentially (test-then-train).

The serving loop is fault-tolerant: an input gate quarantines or
repairs corrupt records, refits run supervised with retry/backoff and a
fallback forecaster, every prediction carries a health status, and the
full serving state checkpoints to a crash-safe artifact. The
:mod:`~repro.streaming.faults` harness injects stream and refit faults
to exercise all of it. At fleet scale the sharded predictor adds
process-level self-healing — deadline-based failure detection,
supervised respawn with background checkpoint restore, a crash-loop
breaker — driven reproducibly by a :class:`ChaosSchedule` of scheduled
process faults.
"""

from .buffer import MatrixRingBuffer, RollingBuffer
from .checkpoint import (
    CheckpointError,
    read_checkpoint,
    try_read_checkpoint,
    write_checkpoint,
)
from .drift import PageHinkley
from .faults import (
    ChaosSchedule,
    FaultConfig,
    FaultInjector,
    InjectedFault,
    ProcessFault,
)
from .fleet import FleetPredictor, FleetTick
from .online import OnlinePredictor, PredictionRecord
from .refit import AsyncRefitEngine, RefitOutcome, RefitTask
from .resilience import (
    FleetGate,
    FleetGateResult,
    GatePolicy,
    GateResult,
    HealthStatus,
    InputGate,
    Supervisor,
    SupervisorPolicy,
)
from .shard import (
    AllShardsFailedError,
    RespawnPolicy,
    ShardedFleetPredictor,
    shard_boundaries,
)
from .shm import ShmArraySpec, ShmBlock

__all__ = [
    "RollingBuffer",
    "MatrixRingBuffer",
    "FleetPredictor",
    "FleetTick",
    "AsyncRefitEngine",
    "RefitTask",
    "RefitOutcome",
    "ShardedFleetPredictor",
    "RespawnPolicy",
    "AllShardsFailedError",
    "shard_boundaries",
    "ShmBlock",
    "ShmArraySpec",
    "FleetGate",
    "FleetGateResult",
    "PageHinkley",
    "OnlinePredictor",
    "PredictionRecord",
    "HealthStatus",
    "GatePolicy",
    "GateResult",
    "InputGate",
    "Supervisor",
    "SupervisorPolicy",
    "FaultConfig",
    "FaultInjector",
    "InjectedFault",
    "ProcessFault",
    "ChaosSchedule",
    "CheckpointError",
    "write_checkpoint",
    "read_checkpoint",
    "try_read_checkpoint",
]
