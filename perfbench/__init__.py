"""perfbench: the simulator's end-to-end and per-layer benchmark (see README.md)."""
