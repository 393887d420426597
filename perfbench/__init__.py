"""Repository benchmark: workloads, golden checks, span tracing."""
