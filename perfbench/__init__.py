"""Benchmark harness for the normal7 library; run it as ``python3 perfbench/run.py``."""
