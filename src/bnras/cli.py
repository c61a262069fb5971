"""Command-line harness: validate and query networks, run the samplers,
print requirement tables, and sweep parameter grids into CSV.

Exit codes are a stable contract: 0 success, 1 usage error, 2 validation
error (unparseable or invalid network, positivity refusals), 3 runtime or
capacity error (I/O failures, caps, impossible evidence, bound overflows).

All result output shares one flat CSV schema (header below); checkpoint
rows carry the cumulative transition count in the ``checkpoint`` column,
summary rows leave it empty. The randomized-restart runs of one (trials,
transitions) and the straight-simulation runs of one total (every seed of
a ``sweep`` grid point, or of a ``compare``) each run as one batch, in
lock step, and each row's ``cpu_seconds`` and ``wall_seconds`` are its
equal share of the batch's time, so that the rows sum to it. A batch's
checkpoint and summary rows are scored together, off its tallies held as
arrays. The ``BNRAS_ENUM_CAP`` environment variable overrides the
enumeration cap used for oracle computations and exact-mode bounds.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys

import numpy as np

from . import exact as exact_mod
from .bounds import ErrorTolerances, report_bounds
from .errors import (
    CapacityError,
    DeterministicConflictError,
    ImpossibleEvidenceError,
    MixingOverflowError,
    NetworkFormatError,
    NetworkValidationError,
    PositivityError,
)
from .estimate import _bnras_tallies, _row_errors, _straight_tallies
from .exact import enumerate_posteriors
from .model_io import builtin_networks, format_evidence, parse_evidence, parse_network
from .network import BeliefNetwork
from .rng import RandomStream

CSV_HEADER = (
    "run_id,seed,algorithm,network,evidence,trials,transitions_per_trial,"
    "total_transitions,checkpoint,avg_error,max_error,worst_node,"
    "cpu_seconds,wall_seconds"
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that exits with the package's usage code instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _enum_cap() -> int:
    raw = os.environ.get("BNRAS_ENUM_CAP")
    if raw is None:
        return exact_mod.DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
        if cap < 1:
            raise ValueError
    except ValueError:
        raise UsageError(f"BNRAS_ENUM_CAP must be a positive integer, got {raw!r}")
    return cap


def _read_network(path: str) -> BeliefNetwork:
    """Parse (and so validate) a UTF-8 network file, which may start with a
    byte-order mark. A refusal is printed to stderr prefixed with the path,
    and a byte that is not UTF-8 is refused there too, placed by the text
    before it as the parser counts lines and columns."""
    try:
        try:
            with open(path, "r", encoding="utf-8-sig") as handle:
                text = handle.read()
        except UnicodeDecodeError as exc:
            # read() decodes the whole file at once, and utf-8-sig hands the
            # bytes after the mark to utf-8, so exc.object is those bytes
            before = exc.object[: exc.start].decode("utf-8")
            lines = before.replace("\r\n", "\n").replace("\r", "\n").split("\n")
            raise NetworkFormatError(f"byte {exc.object[exc.start]:#04x} is not UTF-8",
                                     len(lines), len(lines[-1]) + 1) from None
        return parse_network(text)
    except NetworkFormatError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        raise NetworkFormatError(f"{path}: could not parse network") from None


def _load_network(ref: str) -> BeliefNetwork:
    """Resolve a builtin name or parse a file path."""
    catalog = builtin_networks()
    return catalog[ref] if ref in catalog else _read_network(ref)


def _require_seeds(seeds) -> None:
    """Refuse a seed outside [0, 2^64) as a usage error, before any run:
    :class:`RandomStream` refuses one too, but only when a run reaches it."""
    for seed in seeds:
        if not 0 <= seed < 1 << 64:
            raise UsageError(f"seed {seed} is outside [0, 2^64)")


def _parse_seeds(text: str) -> list[int]:
    text = text.strip()
    if not text:
        raise UsageError("empty --seeds")
    if ":" in text:
        lo, _, hi = text.partition(":")
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise UsageError(f"bad seed range {text!r}")
        if hi_i <= lo_i:
            raise UsageError(f"empty seed range {text!r}")
        _require_seeds((lo_i, hi_i - 1))
        return list(range(lo_i, hi_i))
    try:
        seeds = [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"bad seed list {text!r}")
    _require_seeds(seeds)
    if len(set(seeds)) != len(seeds):
        raise UsageError("seeds must be distinct")
    return seeds


def _parse_int_list(text: str | None, flag: str) -> list[int] | None:
    if text is None:
        return None
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers, got {text!r}")


def cmd_validate(args) -> int:
    net = _read_network(args.path)
    positive = all(nd.cpt.positive for nd in net.nodes)
    positivity = "strictly positive" if positive else "contains 0/1 entries"
    print(f"{net.name}: ok ({len(net.nodes)} nodes, {positivity})")
    return EXIT_OK


def cmd_exact(args) -> int:
    net = _load_network(args.network)
    ev = parse_evidence(args.evidence, net)
    table = enumerate_posteriors(net, ev, cap=_enum_cap())
    suffix = f"|{format_evidence(ev, net)}" if len(ev) else ""
    for name, labels, row in zip(table.nodes, table.outcome_labels, table.probs):
        for label, p in zip(labels, row):
            print(f"P({name}={label}{suffix})={p:.6f}")
    print(f"P(evidence)={table.evidence_probability:.6g}")
    return EXIT_OK


def _batches(net, ev, runs, stride: int) -> list[tuple]:
    """The tallies of each (algorithm, trials, transitions, total, seed), in
    order, as (its batch's tallies, its place in the batch). The runs of
    each group, the bnras runs of one (trials, transitions) or the straight
    runs of one total, run as one batch, the groups in the order of their
    first runs."""
    groups: dict[tuple, list[int]] = {}  # group -> the indices of its runs, in order
    for index, run in enumerate(runs):
        groups.setdefault(run[:4], []).append(index)
    placed = {}  # run index -> (batch, place)
    for (algorithm, trials, transitions, total), indices in groups.items():
        streams = [RandomStream(runs[i][4]) for i in indices]
        if algorithm == "bnras":
            batch = _bnras_tallies(net, ev, trials, transitions, streams, stride)
        else:
            batch = _straight_tallies(net, ev, total, streams, stride)
        placed.update((i, (batch, place)) for place, i in enumerate(indices))
    return [placed[i] for i in range(len(runs))]


def _write_runs(net, ev, runs, stride: int, out: str) -> int:
    """Run each (algorithm, trials, transitions, total, seed), score it
    against one oracle, and write its checkpoint rows and then its summary
    row as CSV to ``out`` (``-`` for stdout), in the order of ``runs``.

    The bnras runs of one (trials, transitions) run as one batch (see
    :func:`bnras.estimate.bnras_estimates`), and so do the straight runs of
    one total (:func:`bnras.estimate.straight_estimates`); each run reports
    an equal share of its batch's processor and wall seconds. If a batch
    meets a deterministic conflict, the runs are made again one at a time
    in order, so that the error reported is the one that order meets first.
    Every row of a batch is scored at once, straight off its tallies
    (:func:`bnras.estimate._row_errors`), with the values
    :func:`bnras.estimate.error_metrics` gives each run's estimate and
    checkpoints. A negative stride is a usage error, refused before any run.
    """
    if stride < 0:
        raise UsageError("--stride must be >= 0")
    oracle = enumerate_posteriors(net, ev, cap=_enum_cap())
    try:
        placed = _batches(net, ev, runs, stride)
    except DeterministicConflictError:
        placed = [_batches(net, ev, [run], stride)[0] for run in runs]
    exact = np.array([p for row in oracle.probs for p in row], dtype=np.float64)
    errors = {}  # batch -> the (avg_error, max_error, worst_node) of its rows, run by run
    ev_str = format_evidence(ev, net)
    buffer = io.StringIO()
    buffer.write(CSV_HEADER + "\n")
    writer = csv.writer(buffer, lineterminator="\n")  # quotes a field that holds a comma
    for (algorithm, trials, transitions, total, seed), (batch, place) in zip(runs, placed):
        if batch not in errors:
            errors[batch] = list(zip(*_row_errors(batch.nodes, batch.edges, batch.probs, exact)))
        if algorithm == "bnras":
            run_id = f"bnras-{net.name}-N{trials}-t{transitions}-s{seed}"
        else:
            run_id = f"straight-{net.name}-T{total}-s{seed}"
        common = [run_id, seed, algorithm, net.name, ev_str, batch.trials,
                  batch.transitions, batch.total_transitions]  # None is written empty
        marks = batch.marks.tolist()
        rows = errors[batch][place * (len(marks) + 1) : (place + 1) * (len(marks) + 1)]
        timings = [("", "")] * len(marks)
        timings.append((f"{batch.cpu_seconds:.6f}", f"{batch.wall_seconds:.6f}"))
        writer.writerows([*common, mark, f"{avg:.9g}", f"{worst_error:.9g}", worst, *timing]
                         for mark, (avg, worst_error, worst), timing
                         in zip([*marks, ""], rows, timings))
    text = buffer.getvalue()
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return EXIT_OK


def _runs(algorithm: str, trials, transitions, totals, seeds) -> list[tuple]:
    """The runs of ``run`` and ``sweep``, (algorithm, trials, transitions,
    total, seed) tuples: each bnras (trials, transitions) pair, or each
    straight total, with each seed. ``trials``, ``transitions`` and
    ``totals`` are lists, None where the flag is not given; only the
    algorithm's own are read, and a missing or out-of-range one is a usage
    error."""
    if algorithm == "bnras":
        if trials is None or transitions is None:
            raise UsageError("bnras needs --trials and --transitions")
        if any(n < 1 for n in trials):
            raise UsageError("--trials must be >= 1")
        if any(t < 0 for t in transitions):
            raise UsageError("--transitions must be >= 0")
        return [("bnras", n, t, None, seed) for n in trials for t in transitions for seed in seeds]
    if totals is None:
        raise UsageError("straight needs --total")
    if any(total < 1 for total in totals):
        raise UsageError("--total must be >= 1")
    return [("straight", None, None, total, seed) for total in totals for seed in seeds]


def cmd_run(args) -> int:
    net = _load_network(args.network)
    ev = parse_evidence(args.evidence, net)
    grids = [None if value is None else [value]
             for value in (args.trials, args.transitions, args.total)]
    _require_seeds([args.seed])
    return _write_runs(net, ev, _runs(args.algorithm, *grids, [args.seed]), args.stride, "-")


def cmd_bounds(args) -> int:
    net = _load_network(args.network)
    ev = parse_evidence(args.evidence, net)
    tol = ErrorTolerances(alpha=args.alpha, delta=args.delta, gamma=args.gamma)
    report = report_bounds(net, ev, tol, mode=args.mode, enum_cap=_enum_cap())
    ev_str = format_evidence(ev, net) or "(none)"
    inputs = "exact inputs" if report.mode == "exact" else "lower-bound inputs"
    print(f"network {net.name}  evidence {ev_str}  mode {report.mode} ({inputs})")
    print(f"alpha={tol.alpha:g} delta={tol.delta:g} gamma={tol.gamma:g}")
    print(f"pi_min={report.pi_min:.9g} p0={report.p0:.9g}")
    print(f"trials required            N = {report.trials}")
    print(f"mixing transitions     t_mix = {report.t_mix}")
    print(f"transitions per trial      t = {report.t_per_trial}")
    print("network,evidence,mode,alpha,delta,gamma,pi_min,p0,trials,t_mix,t_per_trial")
    csv.writer(sys.stdout, lineterminator="\n").writerow([
        net.name, format_evidence(ev, net), report.mode, f"{tol.alpha:g}", f"{tol.delta:g}",
        f"{tol.gamma:g}", f"{report.pi_min:.9g}", f"{report.p0:.9g}", report.trials,
        report.t_mix, report.t_per_trial,
    ])
    return EXIT_OK


def cmd_sweep(args) -> int:
    net = _load_network(args.network)
    ev = parse_evidence(args.evidence, net)
    seeds = _parse_seeds(args.seeds)
    if args.algorithm == "bnras":  # only the algorithm's own grids are parsed
        grids = (_parse_int_list(args.trials, "--trials"),
                 _parse_int_list(args.transitions, "--transitions"), None)
    else:
        grids = (None, None, _parse_int_list(args.total, "--total"))
    return _write_runs(net, ev, _runs(args.algorithm, *grids, seeds), args.stride, args.out)


def cmd_compare(args) -> int:
    net = _load_network(args.network)
    ev = parse_evidence(args.evidence, net)
    seeds = _parse_seeds(args.seeds)
    if args.total < 1:
        raise UsageError("--total budget must be >= 1")
    if args.transitions < 1:
        raise UsageError("--transitions must be >= 1")
    trials = args.total // args.transitions
    if trials < 1:
        raise UsageError("budget smaller than one trial")
    runs = [run for seed in seeds for run in (
        ("bnras", trials, args.transitions, None, seed),
        ("straight", None, None, args.total, seed),
    )]
    return _write_runs(net, ev, runs, args.stride, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="bnras", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a network file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    def common(p):
        p.add_argument("--network", required=True,
                       help="builtin name (AB, PATH2, CHAIN5, MINIALARM) or file path")
        p.add_argument("--evidence", default="", help="Name=outcome,... (default none)")

    p = sub.add_parser("exact", help="exact posteriors by enumeration")
    common(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("run", help="one sampler run, CSV on stdout")
    common(p)
    p.add_argument("--algorithm", choices=("bnras", "straight"), required=True)
    p.add_argument("--trials", type=int)
    p.add_argument("--transitions", type=int)
    p.add_argument("--total", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stride", type=int, default=0,
                   help="checkpoint every this many transitions (0: none)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bounds", help="a-priori requirement table")
    common(p)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--mode", choices=("exact", "factored"), default="exact")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="grid of runs to CSV")
    common(p)
    p.add_argument("--algorithm", choices=("bnras", "straight"), required=True)
    p.add_argument("--trials", help="comma-separated trial counts (bnras)")
    p.add_argument("--transitions", help="comma-separated transition counts (bnras)")
    p.add_argument("--total", help="comma-separated totals (straight)")
    p.add_argument("--seeds", default="0", help="list 1,2,3 or range 0:30")
    p.add_argument("--stride", type=int, default=0)
    p.add_argument("--out", default="-", help="CSV path, - for stdout")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="both samplers at a matched budget")
    common(p)
    p.add_argument("--total", type=int, required=True, help="transition budget")
    p.add_argument("--transitions", type=int, default=100,
                   help="transitions per trial for the randomized sampler")
    p.add_argument("--seeds", default="0")
    p.add_argument("--stride", type=int, default=100)
    p.add_argument("--out", default="-", help="CSV path, - for stdout")
    p.set_defaults(func=cmd_compare)

    return parser


#: The parser, built at the first call of :func:`main` and kept: building
#: it costs about 1.2 ms, and one process may call ``main`` many times.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NetworkFormatError, NetworkValidationError, PositivityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (
        CapacityError,
        ImpossibleEvidenceError,
        MixingOverflowError,
        DeterministicConflictError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
