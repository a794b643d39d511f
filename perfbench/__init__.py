"""Benchmark of the carbonstop package: workloads, output checks and tracing."""
