"""Tenant arrival/departure processes for the cloud-node model.

A confidential-cloud node (TDX-style deployment shape: hundreds to
thousands of short-lived tenants per host) is driven here as a *trace* of
:class:`TenantSpec` entries: who arrives, after how many scheduler quanta,
with what enclave footprint, and how long they live.  Traces come from two
sources with one representation:

* :func:`poisson_trace` — a seeded memoryless arrival process (geometric
  inter-arrival gaps and lifetimes, the discrete analogue of Poisson
  arrivals / exponential service) over a weighted mix of tenant classes;
* :func:`replay_trace` — rehydrate a previously exported trace
  (:func:`trace_to_jsonable`), so a recorded production-shaped schedule
  can be replayed bit-exactly.

Everything is integer-only: gaps and lifetimes are sampled by Bernoulli
draws on the Mersenne-Twister stream rather than ``expovariate``, so no
libm transcendental ever enters the digest-bearing path and a trace is
byte-reproducible across platforms.

Traces slice deterministically (:func:`slice_trace`): an epoch
regenerates the full trace from ``(seed, tenants)`` and takes its
contiguous chunk, which is how the campaign cells split a long horizon
into epochs that each start on a fresh node.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from ..common.errors import WorkloadError


@dataclass(frozen=True)
class TenantClass:
    """Footprint and per-quantum body shape of one tenant class."""

    name: str
    text_pages: int
    heap_pages: int
    reserve_pages: int
    mean_lifetime: int  # mean work quanta before departure (geometric)
    seq_per_quantum: int  # sequential heap accesses per work quantum
    rand_per_quantum: int  # random heap writes per work quantum
    compute_per_access: int
    label: str = "slow"  # GMS label at grant time ("fast" = segment hint)
    refetch_text: bool = False  # re-touch code pages every quantum (exec-like)


#: The three deployment-shaped classes the node schedules, sized so block
#: mode carries every span: a cold-start-dominated function, a long-lived
#: cache tenant whose GMS is hinted fast (the segments-as-cache thesis),
#: and a fork/exec batch job that re-touches its text pages each quantum.
CLASSES: Dict[str, TenantClass] = {
    "serverless": TenantClass("serverless", 8, 16, 0, 2, 96, 16, 6),
    "cache": TenantClass("cache", 4, 32, 0, 8, 48, 64, 2, label="fast"),
    "batch": TenantClass("batch", 4, 64, 0, 4, 256, 8, 1, refetch_text=True),
}

#: Default arrival mix (weights need not be normalized).
DEFAULT_MIX: Tuple[Tuple[str, float], ...] = (
    ("serverless", 0.5),
    ("cache", 0.3),
    ("batch", 0.2),
)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's lifecycle as scheduled by the trace.

    The spec carries the *concrete* enclave shape (pages, label, behaviors)
    rather than just a class name, so adversarial generators can perturb
    individual tenants while the node stays a pure trace interpreter.
    """

    tenant_id: int
    tclass: str
    arrival_gap: int  # scheduler quanta run before this tenant is admitted
    lifetime: int  # work quanta before natural departure (>= 1)
    text_pages: int
    heap_pages: int
    reserve_pages: int
    seed: int
    label: str = "slow"
    behaviors: Tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return f"t{self.tenant_id}"


def _geometric(rng: random.Random, mean: int) -> int:
    """Integer geometric sample with the given mean (0 when mean <= 0).

    Counted Bernoulli failures before a success at p = 1/(mean+1): the
    discrete memoryless distribution, sampled without ``log`` so the value
    depends only on the Mersenne-Twister stream.  Hard-capped at 64 means
    so one pathological draw can never stall a trace.
    """
    if mean <= 0:
        return 0
    p = 1.0 / (mean + 1)
    k = 0
    cap = 64 * (mean + 1)
    while rng.random() >= p and k < cap:
        k += 1
    return k


def _pick_class(rng: random.Random, mix: Sequence[Tuple[str, float]]) -> str:
    total = sum(w for _, w in mix)
    if total <= 0:
        raise WorkloadError("arrival mix needs positive total weight")
    draw = rng.random() * total
    acc = 0.0
    for name, weight in mix:
        acc += weight
        if draw < acc:
            return name
    return mix[-1][0]


def spec_for(
    tenant_id: int,
    tclass: str,
    arrival_gap: int,
    lifetime: int,
    seed: int,
    **overrides: object,
) -> TenantSpec:
    """Build a spec from a class profile plus per-tenant overrides."""
    profile = CLASSES.get(tclass)
    if profile is None:
        raise WorkloadError(f"unknown tenant class {tclass!r}; options: {sorted(CLASSES)}")
    fields: Dict[str, object] = {
        "text_pages": profile.text_pages,
        "heap_pages": profile.heap_pages,
        "reserve_pages": profile.reserve_pages,
        "label": profile.label,
        "behaviors": (),
    }
    fields.update(overrides)
    fields["behaviors"] = tuple(fields["behaviors"])  # type: ignore[arg-type]
    return TenantSpec(
        tenant_id=tenant_id,
        tclass=tclass,
        arrival_gap=arrival_gap,
        lifetime=max(1, lifetime),
        seed=seed,
        **fields,  # type: ignore[arg-type]
    )


def poisson_trace(
    tenants: int,
    seed: int = 0,
    mix: Sequence[Tuple[str, float]] = DEFAULT_MIX,
    mean_gap: int = 6,
) -> List[TenantSpec]:
    """A seeded memoryless arrival trace over the class *mix*.

    Inter-arrival gaps are geometric with mean *mean_gap* quanta; each
    tenant's lifetime is geometric around its class's ``mean_lifetime``
    (minimum 1 work quantum).  The default gap sits just above the mix's
    mean service demand (~5.2 quanta/tenant), so the queue is stable and
    the live population hovers at a realistic handful rather than growing
    without bound.  The whole trace is a pure function of the arguments.
    """
    rng = random.Random(seed)
    specs: List[TenantSpec] = []
    for tenant_id in range(tenants):
        tclass = _pick_class(rng, mix)
        profile = CLASSES[tclass]
        gap = _geometric(rng, mean_gap)
        lifetime = 1 + _geometric(rng, profile.mean_lifetime - 1)
        specs.append(spec_for(tenant_id, tclass, gap, lifetime, seed=rng.randrange(1 << 32)))
    return specs


# -- trace replay -------------------------------------------------------------


def trace_to_jsonable(specs: Iterable[TenantSpec]) -> List[Dict[str, object]]:
    """Export a trace as JSON-safe dicts (the replay interchange format)."""
    return [
        {
            "tenant_id": s.tenant_id,
            "tclass": s.tclass,
            "arrival_gap": s.arrival_gap,
            "lifetime": s.lifetime,
            "text_pages": s.text_pages,
            "heap_pages": s.heap_pages,
            "reserve_pages": s.reserve_pages,
            "seed": s.seed,
            "label": s.label,
            "behaviors": list(s.behaviors),
        }
        for s in specs
    ]


def replay_trace(events: Iterable[Mapping[str, object]]) -> List[TenantSpec]:
    """Rehydrate :func:`trace_to_jsonable` output into live specs."""
    specs: List[TenantSpec] = []
    for event in events:
        fields = dict(event)
        fields["behaviors"] = tuple(fields.get("behaviors", ()))  # type: ignore[arg-type]
        specs.append(TenantSpec(**fields))  # type: ignore[arg-type]
    return specs


def slice_trace(specs: Sequence[TenantSpec], slices: int, index: int) -> List[TenantSpec]:
    """The *index*-th of *slices* contiguous chunks of the trace.

    Chunks are balanced (sizes differ by at most one) and partition the
    trace exactly, so running every slice on its own fresh node and folding
    the results covers the whole horizon.
    """
    if slices <= 0 or not 0 <= index < slices:
        raise WorkloadError(f"bad trace slice {index}/{slices}")
    n = len(specs)
    return list(specs[index * n // slices : (index + 1) * n // slices])
