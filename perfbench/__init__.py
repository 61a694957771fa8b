"""Layered benchmark for posscheck; run with `python3 perfbench/run.py --help`."""
