"""Workload models: microbenchmarks, OS operations, suites, applications."""

from .functionbench import FUNCTIONS, FunctionResult, ServerlessNode, run_function
from .gap import KERNELS, GAPResult, GAPWorkload, run_kernel
from .harness import ArrayMap, HeapMap
from .kernel import KernelModel, Process
from .lmbench import SYSCALLS, SyscallResult, run_syscall, run_table3
from .microbench import (
    FRAGMENTED_VA_STRIDE,
    TEST_CASES,
    FragmentationResult,
    LatencyPoint,
    latency_sweep,
    measure_latency,
    run_fragmentation,
)
from .redis import COMMANDS, MiniRedis, RedisResult, build_server, run_command, run_redis_benchmark
from .rv8 import PROGRAMS, RV8Result, run_program
from .serverless_chain import CHAIN_STAGES, IMAGE_SIZES, ChainResult, run_chain

__all__ = [
    "ArrayMap",
    "CHAIN_STAGES",
    "COMMANDS",
    "ChainResult",
    "FRAGMENTED_VA_STRIDE",
    "FUNCTIONS",
    "FragmentationResult",
    "FunctionResult",
    "GAPResult",
    "GAPWorkload",
    "HeapMap",
    "IMAGE_SIZES",
    "KERNELS",
    "KernelModel",
    "LatencyPoint",
    "MiniRedis",
    "PROGRAMS",
    "Process",
    "RV8Result",
    "RedisResult",
    "SYSCALLS",
    "ServerlessNode",
    "SyscallResult",
    "TEST_CASES",
    "build_server",
    "latency_sweep",
    "measure_latency",
    "run_chain",
    "run_command",
    "run_fragmentation",
    "run_function",
    "run_kernel",
    "run_program",
    "run_redis_benchmark",
    "run_syscall",
    "run_table3",
]
