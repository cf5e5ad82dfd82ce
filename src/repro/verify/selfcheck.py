"""Shadow validator: an :class:`EngineHook` that re-checks every access.

``SelfCheckHook`` rides the engine's observability stream and re-derives
each data reference's permission through the side-effect-free
:func:`~repro.verify.differential.functional_view`, raising
:class:`~repro.common.errors.VerificationError` the moment the timed path
and the functional model disagree.  Like every hook it observes *after*
state updates and can never alter timing — installing it changes no cycle
or reference count (it does disable the inlined TLB-hit fast path, whose
observable behaviour is identical to the general path).

Process-wide opt-in (the ``--selfcheck`` CLI flag) goes through
:func:`enable_selfcheck`, which registers a default-hook factory so the
engines that experiments construct internally get a validator too.
"""

from __future__ import annotations

from typing import Dict, List

from ..common.errors import VerificationError
from ..common.stats import StatGroup
from ..common.types import AccessType, PAGE_SHIFT
from ..engine import (
    EngineHook,
    RefKind,
    register_default_hook_factory,
    unregister_default_hook_factory,
)
from .differential import functional_view, supports_functional_view

#: Every live validator, for process-wide summaries after experiment runs.
_live_hooks: List["SelfCheckHook"] = []


class SelfCheckHook(EngineHook):
    """Validates the engine's reference stream against the functional model."""

    def __init__(self, engine):
        self.engine = engine
        self.stats = StatGroup("selfcheck")
        self._pending_data: List[int] = []
        _live_hooks.append(self)

    def _fail(self, message: str) -> None:
        self.stats.bump("violations")
        raise VerificationError(f"selfcheck: {message}")

    # -- EngineHook callbacks -------------------------------------------------

    def on_reference(self, kind: RefKind, paddr: int, cycles: int) -> None:
        self.stats.bump("refs")
        if cycles < 0:
            self._fail(f"negative cycles ({cycles}) on {kind.name} ref {paddr:#x}")
        if kind is RefKind.DATA:
            self._pending_data.append(paddr)

    def on_access(self, va: int, access: AccessType, cycles: int, tlb_hit: bool, refs: int) -> None:
        pending, self._pending_data = self._pending_data, []
        self.stats.bump("accesses")
        if cycles < 0:
            self._fail(f"negative access cycles ({cycles}) at VA {va:#x}")
        if not pending:
            self._fail(f"access at VA {va:#x} completed without a data reference")
        checker = self.engine.checker
        if not supports_functional_view(checker):
            self.stats.bump("unverified")
            return
        for paddr in pending:
            perm = functional_view(checker, paddr)
            if perm is None or not perm.allows(access):
                self._fail(
                    f"{access.value} access at VA {va:#x} touched PA {paddr:#x} "
                    f"but the functional view resolves {perm} "
                    f"({type(checker).__name__})"
                )
        self.stats.bump("data_checked", len(pending))

    def on_tlb_fill(self, entry, which: str = "dtlb") -> None:
        self.stats.bump("tlb_fills")
        checker = self.engine.checker
        inlined = getattr(entry, "checker_perm", None)
        if inlined is None or not supports_functional_view(checker):
            return
        perm = functional_view(checker, entry.ppn << PAGE_SHIFT)
        if perm != inlined:
            self._fail(
                f"TLB {which} fill inlined {inlined} for PPN {entry.ppn:#x} "
                f"but the functional view resolves {perm}"
            )

    def on_fault(self, exc: BaseException) -> None:
        # Faults abandon the in-flight access; pending refs belong to it.
        self._pending_data.clear()
        self.stats.bump("faults")


def _factory(engine) -> SelfCheckHook:
    return SelfCheckHook(engine)


def enable_selfcheck() -> None:
    """Install a shadow validator on every engine built from now on."""
    register_default_hook_factory(_factory)


def disable_selfcheck() -> None:
    """Stop installing shadow validators on new engines."""
    unregister_default_hook_factory(_factory)


def reset_selfcheck_stats() -> None:
    """Forget all live validators (their engines keep them installed)."""
    _live_hooks.clear()


def selfcheck_summary() -> Dict[str, int]:
    """Aggregate counters over every validator created in this process."""
    summary = {"hooks": len(_live_hooks)}
    for key in ("accesses", "data_checked", "tlb_fills", "faults", "violations", "unverified"):
        summary[key] = sum(hook.stats[key] for hook in _live_hooks)
    return summary
