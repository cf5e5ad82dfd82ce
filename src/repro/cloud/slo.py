"""Per-tenant-class SLO accounting for the cloud node.

Each tenant class owns a :class:`~repro.common.stats.StatGroup`: the node
observes *lifecycle-level* latencies (launch, attest, work quantum,
teardown cycles) into its histograms and counts tenants, rejections and
references beside them.

Accounts snapshot to JSON (:meth:`SLOAccount.snapshot`) and fold back with
a pure merge (:meth:`SLOAccount.from_snapshots`), which is how a cloud
cell folds its epochs' accounts into one rollup for the whole horizon.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping

from ..common.stats import StatGroup

#: Lifecycle phases observed per tenant class (histogram key ``<phase>_cycles``).
PHASES = ("launch", "attest", "work", "teardown")


class SLOAccount:
    """Latency and throughput accounting, bucketed by tenant class."""

    def __init__(self, name: str = "cloud"):
        self.name = name
        self._groups: Dict[str, StatGroup] = {}

    def group_for(self, tclass: str) -> StatGroup:
        """The class's stat group, created on first use."""
        group = self._groups.get(tclass)
        if group is None:
            group = self._groups[tclass] = StatGroup(f"{self.name}.{tclass}")
        return group

    def observe(self, tclass: str, phase: str, cycles: int) -> None:
        """Record one phase latency; also accumulates the class's cycle total."""
        stats = self.group_for(tclass)
        stats.observe(f"{phase}_cycles", cycles)
        stats.bump("cycles", cycles)

    def bump(self, tclass: str, key: str, amount: int = 1) -> None:
        self.group_for(tclass).bump(key, amount)

    def classes(self) -> List[str]:
        return sorted(self._groups)

    # -- snapshot / merge (the epoch fold) -----------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-safe per-class payloads (counters + histogram snapshots)."""
        return {tclass: group.to_payload() for tclass, group in sorted(self._groups.items())}

    @classmethod
    def from_snapshots(
        cls, snapshots: Iterable[Mapping[str, Mapping[str, object]]], name: str = "cloud"
    ) -> "SLOAccount":
        """Pure fold of several :meth:`snapshot` payloads into one account."""
        account = cls(name)
        for snap in snapshots:
            for tclass, payload in snap.items():
                account.group_for(tclass).merge_payload(payload)
        return account

    # -- report rows ---------------------------------------------------------

    def rows(self, freq_mhz: int) -> List[Dict[str, object]]:
        """One refs/s + tail-latency row per tenant class.

        ``refs_per_s`` is simulated throughput: references the class's
        enclaves issued per simulated second of machine time spent on the
        class (all phases included), at the machine's clock.  Latency
        columns are the one-pass {p50, p95, p99} histogram rollups.
        """
        rows: List[Dict[str, object]] = []
        for tclass in self.classes():
            stats = self._groups[tclass]
            hists = stats.histograms()
            row: Dict[str, object] = {
                "tenant_class": tclass,
                "tenants": stats["completed"],
                "rejected": stats["rejected"],
                "refs": stats["refs"],
            }
            cycles = stats["cycles"]
            seconds = cycles / (freq_mhz * 1e6) if cycles else 0.0
            row["refs_per_s"] = round(stats["refs"] / seconds, 1) if seconds else 0.0
            for phase in PHASES:
                hist = hists.get(f"{phase}_cycles")
                if hist is None:
                    continue
                digest = hist.summary()
                for key in ("p50", "p95", "p99", "max"):
                    row[f"{phase}_{key}"] = digest[key]
            rows.append(row)
        return rows
