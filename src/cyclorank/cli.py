"""Command-line surface.

Subcommands: classify, rep4n, rank3, invariants, bounds, scan, validate.
Exit codes: 0 success, 1 domain/usage error, 2 I/O error, 3 validate found
mismatches or bound violations, 4 internal error (a failed result guard,
rank-3 methods that disagree in rank3 --method all, bounds --p 3 or validate,
MemoryError, or a scan worker process that died), 130 interrupted
(KeyboardInterrupt).  Every nonzero exit prints one line on stderr and no
traceback.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures.process import BrokenProcessPool

from . import __version__
from .errors import DomainError
from .eisenstein import represent_4n
from .invariants import invariant_record
from .modmath import classify_target
from .rank import RANK3_METHODS, bounds, rank3_detail
from .reporting import emit
from .scan import scan_alpha, scan_rank3
from .validation import ingest_truth


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _classes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers like 4,7, got {text!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="cyclorank", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cyclorank {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="ramification/norm class of N for p")
    sp.add_argument("n", type=int)
    sp.add_argument("--p", type=int, default=3)

    sp = sub.add_parser("rep4n", help="the representation 4N = A^2 + 27B^2")
    sp.add_argument("n", type=int)

    sp = sub.add_parser("rank3", help="exact 3-rank with its (A, B) witness")
    sp.add_argument("n", type=int)
    sp.add_argument("--method", default="cornacchia", choices=RANK3_METHODS + ("all",))

    sp = sub.add_parser("invariants", help="product invariants, mu, and alpha for (N, p)")
    sp.add_argument("n", type=int)
    sp.add_argument("--p", type=int, required=True)

    sp = sub.add_parser("bounds", help="rank bounds (exact value when p = 3)")
    sp.add_argument("n", type=int)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--clk", type=int, default=0, help="known p-rank of the cyclotomic field")
    sp.add_argument("--mu", action="store_true", help="include the O(N) mu-based bound")
    sp.add_argument("--format", default=None, choices=("csv", "json"))
    sp.add_argument("--out", default=None, help="file for the --format report (default: stdout)")

    sp = sub.add_parser("scan", help="density experiment over a prime range")
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--limit", type=int, required=True)
    sp.add_argument(
        "--classes", type=_classes, help="residues of N mod 9; default 1,4,7 (p = 3 only)"
    )
    sp.add_argument("--workers", type=int, default=None)
    sp.add_argument("--format", default="csv", choices=("csv", "json"))
    sp.add_argument("--out", default="-")

    sp = sub.add_parser("validate", help="check a truth table of externally computed ranks")
    sp.add_argument("--table", required=True)
    return parser


def _cmd_classify(args: argparse.Namespace) -> int:
    t = classify_target(args.n, args.p)
    ram = "pi ramified (totally)" if t.pi_ramified else "pi unramified (splits)"
    norm = f"zeta_{args.p} is a norm" if t.zeta_is_norm else f"zeta_{args.p} is not a norm"
    rel = "=" if t.zeta_is_norm else "!="
    print(f"N{rel}1 (mod {args.p * args.p}): {ram}, {norm}")
    print(f"N={t.n} p={t.p} residue_mod_p2={t.residue_mod_p2}")
    return 0


def _cmd_rep4n(args: argparse.Namespace) -> int:
    rep = represent_4n(args.n)
    print(f"N={rep.n} A={rep.A} B={rep.B}  (4N = A^2 + 27B^2)")
    return 0


def _cmd_rank3(args: argparse.Namespace) -> int:
    value, split, runs = rank3_detail(args.n, args.method)
    rep = split.rep
    print(f"rank3={value} N={args.n} A={rep.A} B={rep.B} method={args.method}")
    if args.method == "all":
        print("methods: " + " ".join(f"{m}={r}" for m, r in sorted(runs.items())))
    return 0


def _cmd_invariants(args: argparse.Namespace) -> int:
    rec = invariant_record(args.n, args.p)
    print(f"N={rec.n} p={rec.p} f={rec.f}")
    print(f"M: index={rec.m_cls.index} pth_power={rec.m_cls.index == 0}")
    for i, cls in sorted(rec.mi_classes.items()):
        print(f"M_{i}: index={cls.index} pth_power={cls.index == 0}")
    if rec.mu is None:
        print("mu: n/a (p fails the regularity guard)")
    else:
        print(f"mu={rec.mu} cl_f_upper={rec.cl_f_upper}")
    for k, up in sorted(rec.mk_products.items()):
        print(f"U_{k}: value={up.value} index={up.cls.index}")
    print(f"alpha={rec.alpha}")
    for i, flag in sorted(rec.power_flags.items()):
        print(f"twist i={i}: U_{rec.p - 1 - i} is a p-th power: {flag}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    if args.out is not None and not args.format:
        raise DomainError("--out applies only with --format")
    if args.mu and args.format == "csv":
        raise DomainError("--mu has no CSV column: use --format json or no --format")
    report = bounds(args.n, args.p, cl_k_rank=args.clk, include_cl_f=args.mu)
    if args.format:  # the report is the only output, as with scan
        emit(report, args.format, args.out or "-")
        return 0
    alpha = report.alpha if report.alpha is not None else "n/a"
    line = f"N={report.n} p={report.p} alpha={alpha} lower={report.lower} upper={report.upper}"
    line += f" coarse=[{report.coarse_lower},{report.coarse_upper}]"
    if report.exact_rank3 is not None:
        line += f" rank3={report.exact_rank3}"
    if report.cl_f_upper is not None:
        line += f" cl_f_upper={report.cl_f_upper}"
    print(line)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.p == 3:
        classes = args.classes or (1, 4, 7)
        summary = scan_rank3(args.limit, classes, workers=args.workers)
    elif args.classes:
        raise DomainError("--classes applies to p = 3 only")
    else:
        summary = scan_alpha(args.p, args.limit, workers=args.workers)
    emit(summary, args.format, args.out)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    report = ingest_truth(args.table)
    print(
        f"rows={report.rows_checked} rank3_rows={report.rank3_rows} "
        f"matches={report.matches} mismatches={len(report.mismatches)} "
        f"bounds_rows={report.bounds_rows} violations={len(report.bound_violations)} "
        f"skipped={len(report.skipped)}"
    )
    for m in report.mismatches:
        print(f"mismatch line {m.line}: N={m.n} p={m.p} predicted={m.expected} observed={m.observed}")
    for m in report.bound_violations:
        print(f"violation line {m.line}: N={m.n} p={m.p} expected {m.expected}, observed={m.observed}")
    for line, reason in report.skipped:
        print(f"skipped line {line}: {reason}")
    return 0 if report.ok else 3


_COMMANDS = {
    "classify": _cmd_classify,
    "rep4n": _cmd_rep4n,
    "rank3": _cmd_rank3,
    "invariants": _cmd_invariants,
    "bounds": _cmd_bounds,
    "scan": _cmd_scan,
    "validate": _cmd_validate,
}


def cli_dispatch(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, MemoryError, BrokenProcessPool) as exc:
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
