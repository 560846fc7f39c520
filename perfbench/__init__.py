"""Benchmark of the dolbeault_ns solver; see README.md."""
