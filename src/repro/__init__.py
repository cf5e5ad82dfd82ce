"""repro — a reproduction of "Accelerating Extra Dimensional Page Walks for
Confidential Computing" (HPMP, MICRO 2023).

Quickstart::

    from repro import System, AccessType

    sys_ = System(machine="boom", checker_kind="hpmp")
    space = sys_.new_address_space()
    space.map(0x10000, 4096)
    result = sys_.access(space, 0x10000, AccessType.READ)
    print(result.cycles, result.total_refs)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from .common import (
    AccessFault,
    AccessType,
    MachineParams,
    MemRegion,
    PageFault,
    Permission,
    PrivilegeMode,
    boom,
    machine_params,
    rocket,
)
from .engine import (
    EngineHook,
    HistogramHook,
    RecordingHook,
    RefKind,
    ReferenceEngine,
)
from .isolation import (
    CHECKER_KINDS,
    HPMPChecker,
    HPMPRegisterFile,
    PMPChecker,
    PMPEntry,
    PMPRegisterFile,
    PMPTable,
    make_flat_checker,
)
from .soc import AddressSpace, Machine, System

__version__ = "1.0.0"

__all__ = [
    "AccessFault",
    "AccessType",
    "AddressSpace",
    "CHECKER_KINDS",
    "EngineHook",
    "HPMPChecker",
    "HPMPRegisterFile",
    "HistogramHook",
    "Machine",
    "MachineParams",
    "MemRegion",
    "PMPChecker",
    "PMPEntry",
    "PMPRegisterFile",
    "PMPTable",
    "PageFault",
    "Permission",
    "PrivilegeMode",
    "RecordingHook",
    "RefKind",
    "ReferenceEngine",
    "System",
    "boom",
    "machine_params",
    "make_flat_checker",
    "rocket",
    "__version__",
]
