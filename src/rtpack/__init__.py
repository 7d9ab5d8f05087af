"""Partitioned EDF packing toolkit: exact schedulability analysis,
partitioning heuristics, worst-case instance families, a brute-force
optimum oracle, and an approximation-ratio bench harness."""
