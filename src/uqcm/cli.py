"""Command-line front end: verification reports and fidelity tables.

Four subcommands, each returning its exit status, its JSON payload
(which validates against the shipped ``report_schema.json``) and its
rows.  :func:`main` renders the payload as JSON or the rows as CSV,
headed by the rows' keys:

* ``table``          — numeric vs closed-form F_L for one machine.
* ``verify``         — cross-checks the three machine constructions.
                       Both modes compare the machines by the certified
                       bounds ``pairwise-bound-*``, ||V_a - V_b||_F on
                       their amplitude tables.  Full mode (the problem
                       under the oracle cap, a trial under the fast-path
                       cap) adds ``covariance-bound``, the largest
                       ||J(u phi) - u_out J(phi) u_anc^dagger||_F, and the
                       three oracle checks, exact trace distances between
                       factors, each oracle's on D_(m_out-n_in) columns in
                       place of d^(m_out-n_in) (the same density; see
                       :func:`~uqcm.machines.werner_output_oracle`);
                       fast-path-only mode every F_L against its closed
                       form.  u_out J u_anc^dagger is a
                       factor of u_out rho u_out^dagger, so neither bound is
                       ever below the exact distance or passes falsely; a
                       table in another gauge fails them loudly.
* ``asym-sweep``     — 1 -> 2 asymmetric fidelity trade-off curve of
                       ``weighted_clone``, Cerf's optimal cloner.
* ``identity-check`` — exact rational check of the summation identity
                       behind the single-copy fidelity.

The exact values a report prints, ``table``'s closed forms, fast-path-only
``verify``'s closed values and ``identity-check``'s two sides, come from
the integer cores :func:`~uqcm.fidelity.closed_form_pairs` and
:func:`~uqcm.combinatorics.identity_rows` as reduced ``(numerator,
denominator)`` pairs: each is printed as ``f"{num}/{den}"``, and its float
is ``num / den``, the correctly rounded quotient that
``float(Fraction(num, den))`` also gives.  No ``Fraction`` is built on
those paths; ``asym-sweep``'s one symmetric reference is a ``Fraction``.

The JSON report is the text of ``json.dumps(payload, indent=2,
allow_nan=False)``, byte for byte, but written by the C encoder: any
``indent`` selects :mod:`json`'s pure-Python encoder, so :func:`main`
renders each container of scalars with one C-encoder call whose item
separator carries the newline and the indent.  A list of dicts of
scalars that share one key list, in one order (``rows``, ``checks``),
takes one call for all their values, one a line, and the key texts and
indents, built once per key, are spliced between the lines.  The bytes
cannot change, because with ``ensure_ascii`` no encoded string holds a
raw newline: every newline is a separator placed there.

Exit codes: 0 pass, 1 verification failure, numeric failure (a
ValueError inside a subcommand) or an ``--output`` that cannot be
written, the last two with one ``uqcm: error:`` line on stderr, 2 usage error
(a problem above the fast-path cap, an ``asym-sweep`` dimension above
the oracle cap, or a negative seed, counts as one).  Identical configurations
(including seed) produce byte-identical output.

:func:`main` builds its parser once per process, on the first call, and
reuses it: a caller that runs many commands in one process (a script or
a test suite calling ``uqcm.cli.main``) pays for it once.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from itertools import combinations
from typing import Sequence

import numpy as np

from .combinatorics import IDENTITY_NOTE, PRINTED_SUMMAND_EVALUABLE, identity_rows
from .fidelity import closed_form_pairs, fidelities_numeric, fidelity_single_closed
from .hilbert import (
    FAST_PATH_CAP,
    ORACLE_CAP,
    OracleCapError,
    PureState,
    check_cap,
    random_pure_state,
    random_unitary,
    trace_distance_factors,
)
from .machines import (
    MACHINES,
    AsymmetryWeights,
    CloneSpec,
    check_fast_path,
    full_mode_entries,
    run_machine,
    unified_output_oracle,
    weighted_clone,
    werner_output_oracle,
)
from .symmetric import (
    project_symmetric,
    sym_to_full_density,
    sym_unitary,
    trace_distance_bound,
)

DISTANCE_TOL = 1e-10
OUTPUT_DIR_ENV = "UQCM_OUTPUT_DIR"
# Exact types that json encodes as one token; a member of any other type
# sends its container down the recursive path of _json_text.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # An overflow fails a machine's finite or norm check; report only that.
        with np.errstate(over="ignore", invalid="ignore"):
            status, payload, rows = args.run(args)
    except ValueError as exc:
        print(f"uqcm: error: {exc}", file=sys.stderr)
        return 1
    if args.format == "csv":
        text = _csv_text(rows)
    else:
        text = _json_text(payload) + "\n"
    try:
        _write_output(text, args.output)
    except OSError as exc:
        where = args.output or "stdout"
        print(f"uqcm: error: cannot write report to {where}: {exc.strerror}", file=sys.stderr)
        return 1
    return status


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call of :func:`main`.

    Parsing leaves it unchanged: every call gets a fresh namespace filled
    from the same defaults, so reusing it carries nothing between calls.
    """
    parser = argparse.ArgumentParser(
        prog="uqcm",
        description="Universal qudit cloning: fidelity tables and verification reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, handler) -> None:
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="output file (default: stdout)")
        p.add_argument("--seed", type=_seed, default=0)
        # Usage errors print the subcommand's own usage line.
        p.set_defaults(run=functools.partial(handler, parser=p))

    p_table = sub.add_parser("table", help="numeric vs closed-form fidelities")
    p_table.add_argument("--d", type=int, required=True)
    p_table.add_argument("--n", type=int, required=True, help="input copies")
    p_table.add_argument("--m", type=int, required=True, help="output copies")
    p_table.add_argument("--machine", choices=MACHINES, default="werner")
    p_table.add_argument("--l", type=int, default=None, help="restrict to one L")
    common(p_table, _cmd_table)

    p_verify = sub.add_parser("verify", help="cross-check the machine constructions")
    p_verify.add_argument("--d", type=int, required=True)
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--m", type=int, required=True)
    p_verify.add_argument("--trials", type=int, default=20)
    common(p_verify, _cmd_verify)

    p_sweep = sub.add_parser("asym-sweep", help="1 -> 2 asymmetric trade-off curve")
    p_sweep.add_argument("--d", type=int, required=True)
    p_sweep.add_argument("--sweep-points", type=int, default=None)
    p_sweep.add_argument("--alpha", type=float, default=None)
    p_sweep.add_argument("--beta", type=float, default=None)
    common(p_sweep, _cmd_asym_sweep)

    p_ident = sub.add_parser("identity-check", help="exact summation-identity check")
    p_ident.add_argument("--d", type=int, default=None)
    p_ident.add_argument("--n", type=int, default=None)
    p_ident.add_argument("--m", type=int, default=None)
    p_ident.add_argument("--d-max", type=int, default=None)
    p_ident.add_argument("--n-max", type=int, default=None)
    p_ident.add_argument("--m-max", type=int, default=None)
    common(p_ident, _cmd_identity_check)

    return parser


def _seed(text: str) -> int:
    """A nonnegative integer seed; anything else is a usage error of the subcommand."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _cmd_table(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> tuple[int, dict, list[dict]]:
    spec = _clone_spec(args, parser)
    upto = spec.m_out
    if args.l is not None:
        if not 1 <= args.l <= spec.m_out:
            parser.error(f"--l must be in 1..{spec.m_out}, got {args.l}")
        upto = args.l

    phi = random_pure_state(spec.d, args.seed)
    rho = run_machine(spec, phi, args.machine)
    # One sweep stopped at the last level wanted gives every F_L up to it.
    numerics = fidelities_numeric(rho, phi, upto)
    exact = closed_form_pairs(spec, upto)
    levels = range(1, upto + 1) if args.l is None else [args.l]

    def row(L: int) -> dict:
        numeric = numerics[L - 1]
        num, den = exact[L - 1]
        closed_float = num / den
        return {
            "L": L,
            "numeric": numeric,
            "closed_rational": f"{num}/{den}",
            "closed_float": closed_float,
            "abs_diff": abs(numeric - closed_float),
        }

    rows = [row(L) for L in levels]
    payload = {
        "command": "table",
        "config": {
            "d": spec.d,
            "n_in": spec.n_in,
            "m_out": spec.m_out,
            "machine": args.machine,
            "seed": args.seed,
            "L": args.l,
        },
        "rows": rows,
    }
    return 0, payload, rows


def _cmd_verify(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> tuple[int, dict, list[dict]]:
    # A trial holds every machine's table while it compares them.
    spec = _clone_spec(args, parser, tables=len(MACHINES))
    if args.trials < 1:
        parser.error(f"--trials must be positive, got {args.trials}")
    d, n, m = spec.d, spec.n_in, spec.m_out
    reason = None
    try:
        check_cap(d, 2 * m - n)  # the oracles' factors
    except OracleCapError as exc:
        reason = str(exc)
    if reason is None and (entries := full_mode_entries(spec)) > FAST_PATH_CAP:
        reason = (
            f"the oracle and covariance checks bring a trial to {entries} "
            f"entries, above the fast-path cap {FAST_PATH_CAP}"
        )
    full_mode = reason is None
    if not full_mode:
        sys.stderr.write(
            f"warning: {reason}; skipping the covariance and oracle checks, "
            "running the closed-form check\n"
        )
        closed = [num / den for num, den in closed_form_pairs(spec)]

    def trial(t: int) -> dict[str, float]:
        phi = random_pure_state(d, args.seed + t)
        outs = {name: run_machine(spec, phi, name) for name in MACHINES}
        # Certified bounds on the D_in x r tables: never below the exact
        # trace distance, and no factor J is scattered.
        values = {
            f"pairwise-bound-{a}-{b}": trace_distance_bound(outs[a], outs[b])
            for a, b in combinations(MACHINES, 2)
        }
        if not full_mode:
            # Every F_L of every machine, one sweep each, against the closed
            # form.  The tables are released first and each machine is run
            # again, so a sweep block is alive beside its own table only.
            del outs
            values["closed-form"] = max(
                abs(numeric - exact)
                for name in MACHINES
                for numeric, exact in zip(
                    fidelities_numeric(run_machine(spec, phi, name), phi), closed
                )
            )
            return values
        u = random_unitary(d, 10_000 + args.seed + t)
        u_out, u_anc = sym_unitary(u, m), sym_unitary(u, m - n)
        rotated = PureState(u @ phi.amplitudes)
        # u_out J u_anc^dagger is a factor of u_out rho u_out^dagger, so its
        # Frobenius distance from the rotated input's factor bounds the
        # covariance trace distance, as the pairwise bound does.
        gaps = (
            run_machine(spec, rotated, name).joint
            - u_out @ outs[name].joint @ u_anc.conj().T
            for name in MACHINES
        )
        values["covariance-bound"] = max(float(np.linalg.norm(gap)) for gap in gaps)
        # Each oracle check is the exact trace distance between two
        # factors of d^m_out x D_(m_out-n_in) entries; no d^m_out x
        # d^m_out array is formed.
        oracle_w = werner_output_oracle(spec, phi).factor
        values["symmetric-support"] = trace_distance_factors(
            project_symmetric(oracle_w, d, m), oracle_w
        )
        values["werner-vs-oracle"] = trace_distance_factors(
            sym_to_full_density(outs["werner"]).factor, oracle_w
        )
        values["unified-vs-oracle"] = trace_distance_factors(
            sym_to_full_density(outs["unified"]).factor,
            unified_output_oracle(spec, phi).factor,
        )
        return values

    per_trial = [trial(t) for t in range(args.trials)]
    names = list(per_trial[0])
    checks = []
    for name in names:
        distances = [result[name] for result in per_trial]
        # The first trial to reach the maximum; trial t is reproduced alone
        # by --seed (seed + t) --trials 1.
        worst_trial = max(range(args.trials), key=distances.__getitem__)
        worst = distances[worst_trial]
        checks.append(
            {
                "name": name,
                "max_distance": worst,
                "worst_trial": worst_trial,
                "worst_seed": args.seed + worst_trial,
                "threshold": DISTANCE_TOL,
                "pass": bool(worst < DISTANCE_TOL),
            }
        )
    all_pass = all(c["pass"] for c in checks)

    payload = {
        "command": "verify",
        "config": {
            "d": d,
            "n_in": n,
            "m_out": m,
            "trials": args.trials,
            "seed": args.seed,
        },
        "mode": "full" if full_mode else "fast-path-only",
        "oracle_cap": ORACLE_CAP,
        "checks": checks,
        "pass": all_pass,
    }
    return (0 if all_pass else 1), payload, checks


def _cmd_asym_sweep(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> tuple[int, dict, list[dict]]:
    spec = _checked(parser, CloneSpec, args.d, 1, 2)
    # The 1 -> 2 machine is built in the full space of three qudits.
    _checked(parser, check_cap, args.d, 3)
    single_point = args.alpha is not None or args.beta is not None
    if single_point:
        if args.alpha is None or args.beta is None:
            parser.error("--alpha and --beta must be given together")
        if args.sweep_points is not None:
            parser.error("--sweep-points conflicts with an explicit --alpha/--beta")
        try:
            AsymmetryWeights.pair(args.alpha, args.beta)
        except ValueError as exc:
            parser.error(f"--alpha/--beta: {exc}")
        pairs = [(args.alpha, args.beta)]
    else:
        points = 51 if args.sweep_points is None else args.sweep_points
        if points < 2:
            parser.error(f"--sweep-points must be >= 2, got {points}")
        pairs = [_sweep_pair(i, points) for i in range(points)]

    phi = random_pure_state(args.d, args.seed)

    def row(pair: tuple[float, float]) -> dict:
        alpha, beta = pair
        result = weighted_clone(spec, phi, AsymmetryWeights.pair(alpha, beta))
        fidelity_a, fidelity_b = result.slot_fidelities
        ratio = beta / alpha if alpha > 0 else math.inf
        return {
            "ratio": ratio,
            "alpha": alpha,
            "beta": beta,
            "fidelity_a": fidelity_a,
            "fidelity_b": fidelity_b,
        }

    rows = [row(pair) for pair in pairs]
    # JSON has no infinity: a ratio that is not finite is null there, inf in the CSV.
    json_rows = [{**r, "ratio": None} if math.isinf(r["ratio"]) else r for r in rows]
    symmetric = fidelity_single_closed(spec)
    payload = {
        "command": "asym-sweep",
        "config": {
            "d": args.d,
            "sweep_points": len(rows),
            "seed": args.seed,
        },
        "rows": json_rows,
        "symmetric_reference": {
            "closed_rational": f"{symmetric.numerator}/{symmetric.denominator}",
            "closed_float": float(symmetric),
        },
    }
    return 0, payload, rows


def _cmd_identity_check(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> tuple[int, dict, list[dict]]:
    point_flags = (args.d, args.n, args.m)
    if any(v is not None for v in point_flags):
        if any(v is None for v in point_flags):
            parser.error("single-point mode needs all of --d, --n and --m")
        if any(v is not None for v in (args.d_max, args.n_max, args.m_max)):
            parser.error("give either a single point or grid bounds, not both")
        # The point is the last row of its family.
        last = _checked(parser, identity_rows, args.n, args.m, args.d)[-1:]
        families = [(args.d, args.n, last)]
        config = {"d": args.d, "n_in": args.n, "m_out": args.m}
    else:
        d_max = 3 if args.d_max is None else args.d_max
        n_max = 3 if args.n_max is None else args.n_max
        m_max = 5 if args.m_max is None else args.m_max
        if d_max < 2 or n_max < 1 or m_max < 1:
            parser.error(
                f"empty grid: need d_max >= 2, n_max >= 1, m_max >= 1, "
                f"got d_max={d_max}, n_max={n_max}, m_max={m_max}"
            )
        # One (d, N) family at a time, M = N..m_max within each.
        families = [
            (d, n, identity_rows(n, m_max, d))
            for d in range(2, d_max + 1)
            for n in range(1, min(n_max, m_max) + 1)
        ]
        config = {"d_max": d_max, "n_max": n_max, "m_max": m_max}

    rows = []
    for d, n_in, family in families:
        for m_out, lhs, rhs, equal in family:
            rhs_text = f"{rhs[0]}/{rhs[1]}"
            rows.append(
                {
                    "d": d,
                    "n_in": n_in,
                    "m_out": m_out,
                    # An equal left side is the right side's own pair.
                    "lhs": rhs_text if lhs is rhs else f"{lhs[0]}/{lhs[1]}",
                    "rhs": rhs_text,
                    "equal": equal,
                    "printed_summand_evaluable": PRINTED_SUMMAND_EVALUABLE,
                }
            )
    all_equal = all(r["equal"] for r in rows)
    payload = {
        "command": "identity-check",
        "config": config,
        "rows": rows,
        "all_equal": all_equal,
        "note": IDENTITY_NOTE,
    }
    return (0 if all_equal else 1), payload, rows


def _sweep_pair(i: int, points: int) -> tuple[float, float]:
    """(alpha, beta) on the unit circle; endpoints and midpoint made exact."""
    if i == 0:
        return 1.0, 0.0
    if i == points - 1:
        return 0.0, 1.0
    if 2 * i == points - 1:
        half = math.sqrt(0.5)
        return half, half
    theta = (math.pi / 2) * i / (points - 1)
    return math.cos(theta), math.sin(theta)


def _clone_spec(
    args: argparse.Namespace, parser: argparse.ArgumentParser, tables: int = 1
) -> CloneSpec:
    spec = _checked(parser, CloneSpec, args.d, args.n, args.m)
    _checked(parser, check_fast_path, spec, tables)
    return spec


def _checked(parser: argparse.ArgumentParser, call, *args):
    """call(*args), a ValueError from the library becoming a usage error.

    That is the library's message under the usage line, and exit status 2.
    """
    try:
        return call(*args)
    except ValueError as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")


def _json_text(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2, allow_nan=False)``, from the C encoder.

    ``pad`` is the indent of the line ``value`` starts on.  A container of
    scalars, or a list of dicts of scalars sharing one key list, takes one
    encoder call (see the module docstring); everything else recurses.
    """
    if isinstance(value, dict):
        members, brackets = value.values(), "{}"
    elif isinstance(value, (list, tuple)):
        members, brackets = value, "[]"
    else:
        return json.dumps(value, allow_nan=False)
    if not members:
        return brackets
    inner = pad + "  "
    keys = list(value[0]) if brackets == "[]" and type(value[0]) is dict else None
    if _SCALARS.issuperset(map(type, members)):
        body = json.dumps(value, separators=(",\n" + inner, ": "), allow_nan=False)[1:-1]
    elif (
        keys
        and all(type(m) is dict and list(m) == keys for m in value)
        and _SCALARS.issuperset(map(type, flat := [v for m in value for v in m.values()]))
    ):
        row = inner + "  "
        first = f"{{\n{row}{_key_text(keys[0])}: "
        heads = [f",\n{row}{_key_text(k)}: " for k in keys]
        heads[0] = f"\n{inner}}},\n{inner}{first}"
        parts = [None] * (2 * len(flat))
        parts[::2] = heads * len(value)
        parts[0] = first
        # No encoded value holds a raw newline: each "\n" ends one value.
        parts[1::2] = json.dumps(flat, separators=("\n", ": "), allow_nan=False)[1:-1].split("\n")
        body = "".join(parts) + f"\n{inner}}}"
    elif brackets == "{}":
        body = (",\n" + inner).join(
            f"{_key_text(k)}: {_json_text(v, inner)}" for k, v in value.items()
        )
    else:
        body = (",\n" + inner).join(_json_text(v, inner) for v in value)
    return f"{brackets[0]}\n{inner}{body}\n{pad}{brackets[1]}"


def _key_text(key) -> str:
    """A dict key as json writes it; a non-str key's text is cut from ``{key: 0}``'s."""
    return json.dumps(key) if isinstance(key, str) else json.dumps({key: 0}, allow_nan=False)[1:-4]


def _csv_text(rows: list[dict]) -> str:
    """The rows as CSV, headed by the first row's keys."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(rows[0])
    for row in rows:
        writer.writerow([_csv_cell(value) for value in row.values()])
    return buffer.getvalue()


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    path = output
    if not os.path.isabs(path):
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            path = os.path.join(base, path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", newline="") as handle:
        handle.write(text)
