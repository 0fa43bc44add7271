"""Benchmarks: the HeteroSync-style inter-WG synchronization suite
(paper Table 2) plus the hash-table and bank-account workloads named in
the Table 2 caption.
"""

from repro.workloads.bank import build_bank_account_kernel
from repro.workloads.hashtable import build_hash_table_kernel
from repro.workloads.registry import (
    BENCHMARKS,
    BenchmarkParams,
    BenchmarkSpec,
    benchmark_names,
    build_benchmark,
    get_spec,
)

__all__ = [
    "BENCHMARKS",
    "BenchmarkParams",
    "BenchmarkSpec",
    "benchmark_names",
    "build_bank_account_kernel",
    "build_benchmark",
    "build_hash_table_kernel",
    "get_spec",
]
