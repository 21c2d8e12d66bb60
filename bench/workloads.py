"""The benchmark's workloads: fixed lists of ``uqcm`` command lines.

Each workload is a list of argv lists, always in the same order.  The
workload seed only picks the ``--seed`` passed to each op, so the amount
of work is the same for every seed while the random inputs differ.
"""

from __future__ import annotations

import random

# uqcm.hilbert.ORACLE_CAP when the workloads were defined.  Kept as the
# benchmark's own constant so that a change to the cap cannot silently
# change the work a run does; a point that stops running in full mode
# fails the correctness gate instead.
ORACLE_CAP = 4096
# Above d^M = 343 one verify op spends 3-140 s in a single dense LAPACK
# call, which would swamp the many small configs this workload is about.
ORACLE_OUT_DIM_MAX = 343
ORACLE_D_MAX = 8


def _oracle_verify() -> list[list[str]]:
    ops = []
    for d in range(2, ORACLE_D_MAX + 1):
        m = 2
        while d**m <= ORACLE_OUT_DIM_MAX:
            for n in range(1, m):
                if d ** (2 * m - n) <= ORACLE_CAP:
                    ops.append(["verify", "--d", str(d), "--n", str(n), "--m", str(m),
                                "--trials", "1"])
            m += 1
    return ops


def _table(d: int, n: int, m: int, machine: str) -> list[str]:
    return ["table", "--d", str(d), "--n", str(n), "--m", str(m), "--machine", machine]


def _many_copies() -> list[list[str]]:
    # werner at (3,2,12) is left out: one op would take half of the pass.
    ops = [_table(2, n, m, machine)
           for n, m in ((1, 40), (8, 48))
           for machine in ("werner", "fan", "unified")]
    ops += [_table(3, 2, 12, machine) for machine in ("fan", "unified")]
    ops.append(["identity-check", "--d-max", "6", "--n-max", "16", "--m-max", "24"])
    return ops


def _qudit_dense() -> list[list[str]]:
    # werner is left out: its entry loop takes minutes per op at D_out >= 495.
    # D_out = 495, 792 and 1287; the machines alternate to keep each pass short.
    return [_table(d, n, m, machine)
            for (d, n, m), machine in (((5, 2, 8), "fan"), ((6, 2, 7), "unified"),
                                       ((9, 2, 5), "fan"))]


WORKLOADS = {
    "oracle-verify": _oracle_verify,
    "many-copies": _many_copies,
    "qudit-dense": _qudit_dense,
}


def build_ops(workload: str, seed: int) -> list[list[str]]:
    """The workload's argv lists, each given its own ``--seed`` derived from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    return [argv + ["--seed", str(rng.randrange(2**31))] for argv in WORKLOADS[workload]()]
