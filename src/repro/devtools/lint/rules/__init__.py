"""The shipped rule set.

Importing this package registers every built-in rule with
:data:`repro.devtools.lint.base.RULE_REGISTRY`.  RPL001–RPL004 are
per-file rules; RPL005–RPL009 are project rules driven by the whole-repo
model in :mod:`repro.devtools.lint.project` (import graph, symbol
tables, call graph):

========  =======================  ===========================================
code      name                     invariant
========  =======================  ===========================================
RPL001    budget-checkpoint        no hand-rolled budget/deadline math in the
                                   S1/S2/S3 search modules — poll
                                   ``SearchContext.checkpoint()``
RPL002    determinism              no wall clocks or unseeded ``random`` in
                                   library code; no set-order-dependent
                                   accumulation in kernel modules
RPL003    kernel-parity            every ``kernel="bits"`` dispatch keeps a
                                   reachable ``"sets"`` ablation counterpart
RPL004    pool-safety              ``Process(target=)`` targets and their
                                   arguments stay picklable
RPL005    shared-state             no post-construction mutation of
                                   ``PreparedGraph``/``CSRBipartite`` or
                                   their flat arrays outside their defining
                                   modules
RPL006    checkpoint-reachability  every loop-bearing search entry point in
                                   ``mbb/`` reaches
                                   ``SearchContext.checkpoint()`` through the
                                   call graph
RPL007    layering                 graph/cores/mbb never import
                                   api/cli/bench; no module-level import
                                   cycles
RPL008    wire-format              dataclass fields covered by their
                                   ``to_dict``/``from_dict`` round-trip pair
RPL009    fault-boundary           ``Process(target=)`` targets reach an
                                   ``except Exception`` fault boundary through
                                   the call graph; ``faults.hit()`` injection
                                   points only in designated modules
========  =======================  ===========================================

Each rule encodes an invariant this repository already paid for in a
fixed bug (see the module docstrings for the history).
"""

from repro.devtools.lint.rules import (  # noqa: F401
    budget_checkpoint,
    checkpoint_reachability,
    determinism,
    fault_boundary,
    kernel_parity,
    layering,
    pool_safety,
    shared_state,
    wire_format,
)
