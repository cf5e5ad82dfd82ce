"""TEE software: GMS abstraction, secure monitor, enclave runtime."""

from .driver import RangeHint, TEEDriver
from .enclave import EnclaveHandle, EnclaveRuntime
from .gms import GMS, LABELS
from .monitor import CONTEXT_SWITCH_BASE_CYCLES, HOST_DOMAIN_ID, Domain, SecureMonitor
from .scheduler import RoundRobinScheduler, ScheduleResult, ScheduledTask

__all__ = [
    "CONTEXT_SWITCH_BASE_CYCLES",
    "Domain",
    "EnclaveHandle",
    "EnclaveRuntime",
    "GMS",
    "HOST_DOMAIN_ID",
    "LABELS",
    "RoundRobinScheduler",
    "ScheduleResult",
    "ScheduledTask",
    "RangeHint",
    "TEEDriver",
    "SecureMonitor",
]
