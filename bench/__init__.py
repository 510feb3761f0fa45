"""The repository's performance benchmark (see ``bench/README.md``).

Six seeded workloads over the RAID-6 stack, each run in a fresh
subprocess against a system built once:

* ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
  is the machine contract recorded in ``BENCHMARK.json``;
* ``python -m bench.run --seed 2015`` runs all six and prints every
  end-to-end metric by name, with unit, bound and estimator;
* ``python -m bench.compare A.json ... -- B.json ...`` compares two
  sets of ``--out`` reports under the benchmark's own bounds.

Nothing under ``src/`` imports this package; it drives the stack only
through the layers' own functions.
"""
