"""Closed-loop benchmark for essmpc; `python3 perfbench/run.py --help`."""
