"""Mini-Redis: an in-memory data store driven redis-benchmark-style
(paper §8.5, Figure 12 d/e).

The server is a real dictionary-backed KV store laid out in simulated user
memory: a bucket array, hash entries scattered malloc-style over an object
heap, and value storage.  Lists (for LPUSH/LRANGE) are linked nodes in the
same heap, so LRANGE is a genuine pointer chase that also churns ephemeral
reply objects.  Each request runs the kernel receive/reply path (epoll +
read + write with socket structs) in the host domain, then switches into
the Redis enclave for command execution — the paper deploys Redis inside
Penglai enclaves, whose memory is a contiguous GMS.  That contiguity keeps
*data-page* permission entries dense and hot, leaving the scattered
*page-table pages* as the dominant permission-table cost — the cost HPMP's
fast GMS removes.

Reported metric: requests-per-second = core frequency / mean request cycles,
normalized against the Penglai-PMP baseline like the paper's figures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..common.errors import WorkloadError
from ..soc.system import System
from ..tee.enclave import EnclaveRuntime
from ..tee.monitor import HOST_DOMAIN_ID, SecureMonitor
from ..workloads.kernel import USER_HEAP_VA, KernelModel
from .harness import ArrayMap, HeapMap, stable_hash

COMMANDS = (
    "PING_INLINE",
    "PING_BULK",
    "SET",
    "GET",
    "INCR",
    "LPUSH",
    "RPUSH",
    "LPOP",
    "RPOP",
    "SADD",
    "HSET",
    "SPOP",
    "LRANGE_100",
    "LRANGE_300",
    "LRANGE_500",
    "LRANGE_600",
    "MSET",
)

#: redis-benchmark defaults (paper §8.5): 50 clients, 3-byte values.
DEFAULT_CLIENTS = 50
DEFAULT_VALUE_BYTES = 3


class MiniRedis:
    """The store: buckets + entry heap + list nodes, all in simulated memory."""

    def __init__(
        self,
        system: System,
        kernel: KernelModel,
        num_keys: int = 8192,
        list_nodes: int = 4096,
        seed: int = 0,
        monitor: Optional[SecureMonitor] = None,
    ):
        self.system = system
        self.kernel = kernel
        self.rng = random.Random(seed)
        self.num_keys = num_keys
        self.monitor = monitor
        self.enclave = None
        frames = None
        if monitor is not None:
            # Deploy inside an enclave: the store lives in a contiguous GMS.
            runtime = EnclaveRuntime(system, monitor, kernel)
            store_bytes = 2 * num_keys * 8 + (num_keys + list_nodes + 1024) * 64
            reserve = store_bytes // 4096 + 64
            self.enclave = runtime.launch("redis", text_pages=64, heap_pages=64, reserve_pages=reserve)
            self._runtime = runtime
            frames = self.enclave.frames
            self._space = self.enclave.space
            monitor.switch_to(HOST_DOMAIN_ID)
        else:
            self._space = None
        self.buckets = ArrayMap(system, space=self._space, frames=frames)
        self.num_buckets = 2 * num_keys
        self.buckets.add("buckets", self.num_buckets)
        # Entries and list/set/hash nodes live in one object heap whose slots
        # are scattered malloc-style (even though the backing GMS frames are
        # physically contiguous).
        self.heap = HeapMap(
            system,
            num_objects=num_keys + list_nodes + 1024,
            obj_bytes=64,
            seed=seed,
            space=self.buckets.space,
            frames=frames,
        )
        self.store: Dict[str, str] = {}
        self.lists: Dict[str, List[int]] = {}  # list key -> node object ids
        self._next_node = num_keys  # object ids >= num_keys are nodes
        self._populate()

    def _hash(self, key: str) -> int:
        return stable_hash(key) & 0x7FFF_FFFF

    def _populate(self) -> None:
        """Preload the keyspace (SETs) and one long list for LRANGE."""
        for i in range(self.num_keys):
            self.store[f"key:{i}"] = "xxx"
        self.lists["mylist"] = [self._alloc_node() for _ in range(1200)]

    def _alloc_node(self) -> int:
        node = self._next_node
        self._next_node += 1
        if self._next_node >= self.heap.num_objects:
            self._next_node = self.num_keys  # recycle (bounded heap)
        return node

    # -- traced store primitives ------------------------------------------------

    def _lookup(self, key: str, write: bool = False) -> int:
        """Hash-table lookup: bucket read + entry chase; returns cycles."""
        cycles = self.buckets.read("buckets", self._hash(key) % self.num_buckets)
        entry_id = self._hash(key) % self.num_keys
        cycles += self.heap.touch(entry_id, reads=2, writes=1 if write else 0)
        return cycles

    def _reply(self, client_proc, nbytes: int) -> int:
        return self.kernel.copy_to_user(client_proc, USER_HEAP_VA, max(64, nbytes))

    def execute(self, command: str, client_proc) -> int:
        """One request: host kernel receive path, enclave command execution
        (with the domain switches Penglai pays per ocall), host reply path."""
        kernel = self.kernel
        cycles = kernel.kfetch(220)  # epoll + read + dispatch
        cycles += kernel.ktouch_structs(5, writes_per_struct=1)  # sock, epoll item, client
        cycles += kernel.copy_from_user(client_proc, USER_HEAP_VA, 64)  # request bytes
        if self.monitor is not None:
            cycles += self.monitor.switch_to(self.enclave.domain_id)
        cycles += self._command_body(command)
        if self.monitor is not None:
            cycles += self.monitor.switch_to(HOST_DOMAIN_ID)
        cycles += kernel.kfetch(160)  # write()/reply path
        cycles += kernel.ktouch_structs(3, writes_per_struct=1)
        reply_bytes = 600 * 8 if command.startswith("LRANGE") else 64
        cycles += self._reply(client_proc, reply_bytes)
        return cycles

    def _command_body(self, command: str) -> int:
        rng = self.rng
        key = f"key:{rng.randrange(self.num_keys)}"
        if command in ("PING_INLINE", "PING_BULK"):
            return 20  # parse + static reply, no store access
        if command == "SET":
            self.store[key] = "v"
            return self._lookup(key, write=True)
        if command == "GET":
            return self._lookup(key)
        if command == "INCR":
            return self._lookup(key, write=True) + 8
        if command in ("LPUSH", "RPUSH"):
            node = self._alloc_node()
            self.lists.setdefault("mylist", []).append(node)
            cycles = self._lookup("mylist", write=True)
            cycles += self.heap.touch(node, reads=1, writes=2)  # link in
            return cycles
        if command in ("LPOP", "RPOP"):
            nodes = self.lists.get("mylist") or [self._alloc_node()]
            node = nodes[-1] if command == "RPOP" else nodes[0]
            cycles = self._lookup("mylist", write=True)
            cycles += self.heap.touch(node, reads=2, writes=1)
            return cycles
        if command in ("SADD", "HSET"):
            node = self._alloc_node()
            cycles = self._lookup(key, write=True)
            cycles += self.heap.touch(node, reads=2, writes=2)  # member/field insert
            return cycles
        if command == "SPOP":
            cycles = self._lookup(key, write=True)
            cycles += self.heap.touch(self._alloc_node(), reads=2, writes=1)
            return cycles
        if command.startswith("LRANGE"):
            count = int(command.split("_")[1])
            nodes = self.lists["mylist"]
            cycles = self._lookup("mylist")
            n = min(count, len(nodes))
            touch = self.heap.touch
            for i in range(n):
                cycles += touch(nodes[i], reads=2)  # node + value
                # Each returned element materializes an ephemeral reply
                # object (Redis robj churn) — a fresh heap slot every time.
                cycles += touch(self._alloc_node(), reads=1, writes=1)
            cycles += 4 * n  # serialize elements
            return cycles
        if command == "MSET":
            cycles = 0
            for i in range(10):
                cycles += self._lookup(f"key:{rng.randrange(self.num_keys)}", write=True)
            return cycles
        raise WorkloadError(f"unknown redis command {command!r}")


@dataclass(frozen=True)
class RedisResult:
    command: str
    checker: str
    mean_cycles: float
    requests: int

    def rps(self, freq_mhz: int) -> float:
        return freq_mhz * 1e6 / self.mean_cycles


def run_command(
    command: str,
    checker_kind: str,
    machine: str = "rocket",
    requests: int = 60,
    warmup: int = 15,
    num_keys: int = 8192,
    seed: int = 0,
    server: Optional[Tuple[System, KernelModel, MiniRedis, object]] = None,
) -> RedisResult:
    """Benchmark one command, redis-benchmark style."""
    if command not in COMMANDS:
        raise WorkloadError(f"unknown redis command {command!r}")
    if server is None:
        server = build_server(checker_kind, machine=machine, num_keys=num_keys, seed=seed)
    system, kernel, redis, client = server
    for _ in range(warmup):
        redis.execute(command, client)
    total = 0
    for _ in range(requests):
        total += redis.execute(command, client)
    return RedisResult(command, checker_kind, total / requests, requests)


def build_server(
    checker_kind: str,
    machine: str = "rocket",
    num_keys: int = 8192,
    seed: int = 0,
) -> Tuple[System, KernelModel, MiniRedis, object]:
    """Build a node with a populated enclave-hosted store and one client.

    ``checker_kind == "none"`` builds the non-secure Host baseline (no
    monitor, store in an ordinary process).
    """
    system = System(machine=machine, checker_kind=checker_kind, mem_mib=256, seed=seed)
    kernel = KernelModel(system, heap_pages=4096, seed=seed)
    client, _ = kernel.spawn(text_pages=8, heap_pages=32, stack_pages=2, populate=True)
    monitor = SecureMonitor(system) if checker_kind != "none" else None
    redis = MiniRedis(system, kernel, num_keys=num_keys, seed=seed, monitor=monitor)
    return system, kernel, redis, client


def run_redis_benchmark(
    machine: str = "rocket",
    kinds: Tuple[str, ...] = ("pmp", "pmpt", "hpmp"),
    commands: Tuple[str, ...] = COMMANDS,
    requests: int = 60,
    num_keys: int = 8192,
) -> Dict[str, Dict[str, RedisResult]]:
    """Figure 12 d/e: every command under every isolation scheme.

    One server per checker kind is reused across commands (a long-running
    store, like the real benchmark): command streams against one server
    share its heap layout and RNG stream, while servers of different kinds
    share nothing.  The fig12 redis cells call this once per kind
    (``fig12_apps.run_redis_kind_rows``) and fold the kinds' results."""
    results: Dict[str, Dict[str, RedisResult]] = {cmd: {} for cmd in commands}
    for kind in kinds:
        server = build_server(kind, machine=machine, num_keys=num_keys)
        for command in commands:
            results[command][kind] = run_command(
                command, kind, machine=machine, requests=requests, server=server
            )
    return results
