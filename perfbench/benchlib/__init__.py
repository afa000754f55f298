"""Support code for perfbench/run.py (job lists, statistics, workloads)."""
