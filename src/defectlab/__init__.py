"""Exact-arithmetic laboratory for mixed vector systems and their defects.

The package imports none of its modules, so that a CLI process compiles
only those its subcommand runs; import each name from its module:

- `exact`: sparse rational vectors, the one exact elimination kernel
  and the biorthogonality check;
- `indexsets`: eventually periodic index sets, rho and the sigma grammar;
- `families`: the family contract, the biorthogonality check of a
  family and the family descriptor parser;
- `heads`: the head families `e1-plus-ek`, `young`, `defect-pair` and
  `finite-set`;
- `infiniteset`: the `infinite-set(...)` family;
- `oracle`: the seeded `random(...)` family, the hereditary scan and the
  `oracle` subcommand;
- `mixed`: mixed systems, defect certification, `defect` and `sweep`;
- `topology`: projector metrics, chains, convergence probes, `metric`,
  `chain` and `converge`;
- `reports`: JSON and CSV serialization and the report writer `emit`;
- `cli`: the parser, the shared input checks, the exit codes and
  `construct`; each subcommand's handler returns its report, and
  `cli._run` writes it through `emit`; no module imports `cli`.
"""

__version__ = "0.1.0"
