"""Developer tooling shipped with the library.

It holds the tools that keep the repository honest:

* :mod:`repro.devtools.lint` — *reprolint*, the AST-based invariant
  analyzer behind ``repro-mbb lint`` and the CI ``invariants`` job;
  nothing in the solver runtime imports it;
* :mod:`repro.devtools.faults` — the deterministic fault-injection
  harness whose injection points the engine's batch fault boundaries
  poll, inert unless a test arms a plan.
"""
