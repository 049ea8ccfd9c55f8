"""The repo's benchmark: live-path and sim-path workloads with per-layer
attribution.  See bench/README.md; the entry point is bench/run.py."""
