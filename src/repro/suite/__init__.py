"""Benchmark programs and their executor."""

from repro.suite.executor import (
    STAGING_DIR,
    ExecutionError,
    ExecutionResult,
    ProgramExecutor,
    run_trial,
)
from repro.suite.program import (
    Op,
    Program,
    SetupAction,
    create_dir,
    create_fifo,
    create_file,
    create_symlink,
)
from repro.suite.extended import (
    EXTENDED_BENCHMARKS,
    SEQUENCE_BENCHMARKS,
    SOCKET_BENCHMARKS,
)
from repro.suite.registry import (
    FAILURE_BENCHMARKS,
    SCALABILITY_BENCHMARKS,
    SUITE_REGISTRY,
    RegisteredBenchmark,
    SuiteRegistry,
    SuiteRegistryError,
    TABLE1_GROUPS,
    TABLE2_BENCHMARKS,
    TABLE2_ORDER,
    benchmarks_in_group,
    get_benchmark,
)

__all__ = [
    "EXTENDED_BENCHMARKS",
    "SEQUENCE_BENCHMARKS",
    "SOCKET_BENCHMARKS",
    "ExecutionError",
    "ExecutionResult",
    "FAILURE_BENCHMARKS",
    "Op",
    "Program",
    "ProgramExecutor",
    "SCALABILITY_BENCHMARKS",
    "STAGING_DIR",
    "SUITE_REGISTRY",
    "RegisteredBenchmark",
    "SetupAction",
    "SuiteRegistry",
    "SuiteRegistryError",
    "TABLE1_GROUPS",
    "TABLE2_BENCHMARKS",
    "TABLE2_ORDER",
    "benchmarks_in_group",
    "create_dir",
    "create_fifo",
    "create_file",
    "create_symlink",
    "get_benchmark",
    "run_trial",
]
