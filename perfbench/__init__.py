"""Benchmark of the reader-activation scheduler (see README.md)."""
