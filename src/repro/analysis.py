"""Post-run analysis utilities: cross-scheme comparisons and paper-style
"shape" assessments (who wins, by what factor, where the crossover sits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence


@dataclass(frozen=True)
class SchemeComparison:
    """A/B/C comparison of one metric across isolation schemes."""

    metric: str
    baseline: str
    values: Dict[str, float]

    @property
    def overhead_pct(self) -> Dict[str, float]:
        base = self.values[self.baseline]
        if not base:
            return {k: 0.0 for k in self.values}
        return {k: 100.0 * (v / base - 1.0) for k, v in self.values.items()}

    def mitigation_pct(self, hybrid: str = "hpmp", table: str = "pmpt") -> Optional[float]:
        """How much of *table*'s extra cost *hybrid* removes (paper's metric)."""
        base = self.values.get(self.baseline)
        if base is None or table not in self.values or hybrid not in self.values:
            return None
        extra_table = self.values[table] - base
        extra_hybrid = self.values[hybrid] - base
        if extra_table <= 0:
            return None
        return 100.0 * (1.0 - extra_hybrid / extra_table)

    def winner(self) -> str:
        return min(self.values, key=self.values.get)  # type: ignore[arg-type]


def compare(metric: str, values: Mapping[str, float], baseline: str = "pmp") -> SchemeComparison:
    """Build a comparison; *values* maps scheme name -> measured cost."""
    if baseline not in values:
        raise KeyError(f"baseline {baseline!r} missing from values {sorted(values)}")
    return SchemeComparison(metric, baseline, dict(values))


@dataclass
class ShapeAssessment:
    """Checks a measured comparison against the paper's expected shape."""

    comparison: SchemeComparison
    expected_order: Sequence[str]  # cheapest first
    mitigation_band: Optional["tuple[float, float]"] = None
    notes: List[str] = field(default_factory=list)

    def evaluate(self) -> bool:
        """True when ordering (and the mitigation band, if given) hold."""
        ok = True
        measured = sorted(self.comparison.values, key=self.comparison.values.get)  # type: ignore[arg-type]
        if list(measured) != list(self.expected_order):
            ok = False
            self.notes.append(f"ordering {measured} != expected {list(self.expected_order)}")
        if self.mitigation_band is not None:
            mitigation = self.comparison.mitigation_pct()
            low, high = self.mitigation_band
            if mitigation is None or not low <= mitigation <= high:
                ok = False
                self.notes.append(f"mitigation {mitigation} outside [{low}, {high}]")
        if ok:
            self.notes.append("shape reproduced")
        return ok
