"""The four workloads: the CLI calls each pass makes, and the checks on each call.

Every workload drives momtraj the way a user does, through momtraj.cli.main.
An operation is one CLI call plus its checks. The program's sampling seed is
pinned to the acceptance seed 42: its verdicts are hypothesis tests at fixed
confidence (a 99 % KS band, 4-sigma bands), so a fresh sampling seed on every
run would fail some verdict on a few percent of runs by design. The
benchmark seed instead fixes the order in which catalog-1d runs its six
scenarios; the work done, and with it every per-layer count, is the same for
every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks

SAMPLING_SEED = "42"
ACCEPTANCE_N = "10000"
MEASUREMENT_C1SQ = 0.64


@dataclass(frozen=True)
class Operation:
    """One call of momtraj.cli.main and the checks its outputs must pass.

    ``checks`` take the captured RunResult of a ``run`` call. A ``validate``
    call writes no artifacts and is checked from its report alone.
    """

    label: str
    argv: tuple[str, ...]
    checks: tuple[Callable[[object], list[str]], ...] = ()

    @property
    def validate(self) -> bool:
        return self.argv[0] == "validate"


CATALOG_1D = {
    "collapse": (),
    "free-particle": (checks.check_free_particle,),
    "harmonic-coherent": (checks.check_harmonic,),
    "linear-drift": (checks.check_linear_drift,),
    "macroscopic": (),
    "superposition": (checks.check_superposition,),
}

WORKLOADS = ("catalog-1d", "measurement-2d", "frames-poisson", "validate-threads")


def operations(workload: str, seed: int) -> list[Operation]:
    """The operations of one pass of `workload`, made from the benchmark seed."""
    if workload == "catalog-1d":
        names = sorted(CATALOG_1D)
        random.Random(seed).shuffle(names)
        return [Operation(name, ("run", name, "--n", ACCEPTANCE_N, "--seed", SAMPLING_SEED),
                          CATALOG_1D[name]) for name in names]
    if workload == "measurement-2d":
        return [Operation(
            "measurement",
            ("run", "measurement", "--c1sq", str(MEASUREMENT_C1SQ), "--n", ACCEPTANCE_N,
             "--seed", SAMPLING_SEED),
            (lambda res: checks.check_born_weights(res, MEASUREMENT_C1SQ),),
        )]
    if workload == "frames-poisson":
        return [Operation(
            "harmonic-poisson",
            ("run", "harmonic-coherent", "--n", "1000", "--frames", "1600",
             "--current", "poisson", "--seed", SAMPLING_SEED),
            (checks.check_coherent_final,),
        )]
    if workload == "validate-threads":
        return [Operation("validate", ("validate", "--n", "2000", "--threads", "2",
                                       "--seed", SAMPLING_SEED))]
    raise KeyError(workload)
