"""Reference implementations that prove the production paths correct.

Each production layer in ``src/`` has one implementation.  The literal
or brute-force versions it was optimized from live here, where tests and
benchmarks compare against them:

* :mod:`tests.oracles.compile` — Algorithm 1 HPDS by full scans, the
  linear-scan best-fit TB merge, and the two-level hazard analysis;
* :mod:`tests.oracles.rates` — the per-pass water-filling invariant of
  the rate solver, plus scalar-only and brute-force flow networks and a
  simulator that recomputes schedule metadata per instance;
* :mod:`tests.oracles.eager` — the eager event discipline, which
  reposts a flow's completion event on every rate change;
* :mod:`tests.oracles.tuning` — exhaustive exact tuning, which simulates
  every candidate the branch-and-bound tuner may skip.
"""
