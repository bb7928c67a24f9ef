"""Command-line surface: computation, verification, charts.

Every command writes byte-deterministic output for a fixed invocation;
parallel fan-out merges results in canonical order so --jobs never changes
the bytes.  Exit codes: 0 success/pass, 1 verification or stabilization
failure, 2 usage error, a window the guards refuse or one that ran out of
memory.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from . import charts, cobar, hopf, koszul, xadic
from .grading import RO2Degree, parse_monomial, word_label


class UsageError(Exception):
    pass


def parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise UsageError(f"expected a range like -4..4, got {text!r}")
    try:
        bounds = int(lo), int(hi)
    except ValueError:
        raise UsageError(f"expected integer bounds in {text!r}") from None
    if bounds[0] > bounds[1]:
        raise UsageError(f"empty range {text!r}")
    return bounds


def parse_level(text: str):
    if text == "inf":
        return None
    try:
        n = int(text)
    except ValueError:
        raise UsageError(f"level must be a positive integer or 'inf', got {text!r}") from None
    if n < 1:
        raise UsageError(f"level must be a positive integer or 'inf', got {text!r}")
    return n


def emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def emit_json(obj, path: str | None) -> None:
    import json  # loaded only when a document is written

    emit(json.dumps(obj, indent=2, ensure_ascii=False) + "\n", path)


def run_report(report, path: str | None) -> int:
    """Print a verifier report's progress lines, then emit its JSON document.

    Every report has `ok`, `lines()` and `to_dict()`; the exit code is 0
    when it passed and 1 when it did not."""
    for line in report.lines():
        print(line)
    emit_json(report.to_dict(), path)
    return 0 if report.ok else 1


def default_jobs() -> int:
    return os.cpu_count() or 1


def parse_jobs(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"need a positive worker count, got {text!r}")
    return int(text)


def pool_map(fn, items, jobs: int):
    """Map preserving input order; fan out only when it can actually help.

    The first item runs here before any pool starts, so a window whose
    first item is refused starts no worker.  A fork pool starts all its
    workers at the first submit, so it gets at most one per remaining item
    and per CPU, whatever jobs asks for.  The pool is imported here, not at
    start-up: it pulls in multiprocessing, which a serial run never needs."""
    items = list(items)
    workers = min(jobs, len(items) - 1, default_jobs())
    if workers <= 1:
        return [fn(it) for it in items]
    first, rest = fn(items[0]), items[1:]
    from concurrent.futures import ProcessPoolExecutor
    chunk = max(1, len(rest) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [first, *pool.map(fn, rest, chunksize=chunk)]


# -- workers (top level so they pickle) --------------------------------------

def _ext_cell(args):
    n, s, p, q, invert = args
    res = cobar.ext_dim(s, RO2Degree(p, q), n, invert)
    return s, p, q, res.dim, res.rep_labels


# -- commands -----------------------------------------------------------------

def _fixed_level(args):
    """The --n of a fixed-level command, refusing u inverted at inf."""
    n = parse_level(args.n)
    if args.invert_u and n is None:
        raise UsageError(
            "u cannot be inverted at level inf; use limit-ext for the completed value"
        )
    return n


def cmd_ext(args) -> int:
    n = _fixed_level(args)
    res = cobar.ext_dim(args.s, RO2Degree(args.p, args.q), n, args.invert_u)
    emit_json(
        {"s": args.s, "p": args.p, "q": args.q, "n": hopf.level_str(n),
         "dim": res.dim, "basis": list(res.rep_labels)},
        args.out,
    )
    return 0


def cmd_ext_table(args) -> int:
    n = _fixed_level(args)
    s_lo, s_hi = parse_range(args.s)
    p_lo, p_hi = parse_range(args.p)
    q_lo, q_hi = parse_range(args.q)
    cells = [
        (n, s, p, q, args.invert_u)
        for s in range(s_lo, s_hi + 1)
        for p in range(p_lo, p_hi + 1)
        for q in range(q_lo, q_hi + 1)
    ]
    rows = pool_map(_ext_cell, cells, args.jobs)
    lines = ["n\ts\tp\tq\tdim\tbasis"]
    for s, p, q, dim, labels in rows:
        lines.append(f"{hopf.level_str(n)}\t{s}\t{p}\t{q}\t{dim}\t{';'.join(labels)}")
    emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_limit_ext(args) -> int:
    d = RO2Degree(args.p, args.q)
    n = koszul.stable_level(args.s, d)  # the tower is constant from level n on
    return run_report(cobar.limit_ext_report(args.s, d, range(n, n + 4)), args.out)


def cmd_verify_axioms(args) -> int:
    return run_report(hopf.verify_axioms(args.nmax, args.window), args.out)


def cmd_verify_coboundary(args) -> int:
    return run_report(
        xadic.verify_coboundaries(args.rmax, args.mmax, args.nmax), args.out)


def cmd_verify_einfty(args) -> int:
    return run_report(xadic.verify_einfty(
        parse_level(args.n), args.window, args.smax,
        map_fn=functools.partial(pool_map, jobs=args.jobs),
    ), args.out)


def cmd_verify_vanishing(args) -> int:
    return run_report(xadic.verify_vanishing(
        parse_range(args.p), parse_range(args.budget), args.smax), args.out)


def cmd_verify_localization(args) -> int:
    return run_report(cobar.verify_localization(
        tuple(map(parse_level, args.n)), window=args.window, s_max=args.smax), args.out)


def cmd_xadic(args) -> int:
    n = parse_level(args.n)
    d = RO2Degree(args.p, args.q)
    basis = xadic.xadic_stage(n, args.t, args.s, d)
    diffs = []
    for mono in basis:
        targets = xadic.xadic_differential(n, args.t, mono)
        diffs.append({
            "source": mono.label(),
            "targets": sorted(t.label() for t in targets),
        })
    emit_json(
        {"n": hopf.level_str(n), "t": args.t, "s": args.s, "p": args.p, "q": args.q,
         "basis": [m.label() for m in basis], "differentials": diffs},
        args.out,
    )
    return 0


def cmd_chart(args) -> int:
    if args.conjectural_d2 and args.format == "tsv" and args.arrows_out is None:
        raise UsageError("tsv with --conjectural-d2 needs --arrows-out")
    stem_lo, stem_hi = parse_range(args.stems)
    if args.sigma is None:
        dots = charts.integer_stem_chart(
            stem_hi, args.smax, stem_lo,
            map_fn=functools.partial(pool_map, jobs=args.jobs))
    else:
        dots = charts.slice_chart(args.sigma, (stem_lo, stem_hi), args.smax)
    arrows: tuple[charts.ChartArrow, ...] = ()
    if args.conjectural_d2:
        overlay = charts.conjectural_d2_overlay(dots)
        arrows = overlay.arrows
        for drop in overlay.dropped:
            print(f"dropped arrow {drop.source.label} -> {drop.target_label}: "
                  f"{drop.reason}", file=sys.stderr)
    emit(charts.render(dots, arrows, args.format), args.out)
    if args.arrows_out is not None:
        emit(charts.render_arrows_tsv(arrows), args.arrows_out)
    return 0


_ETAR_USAGE = "give either --theta I J or a word-free monomial like 'a^2 u'"


def cmd_etar(args) -> int:
    if (args.theta is None) == (not args.expr):
        raise UsageError(_ETAR_USAGE)
    if args.theta is not None:
        i, j = args.theta
        if i < 0 or j < 0:
            raise UsageError("--theta needs i, j >= 0")
        terms = hopf.eta_r_negative(hopf.NegativeConeClass(i, j))
        emit(hopf.cone_element_label(terms) + "\n", args.out)
    else:
        mono = parse_monomial(" ".join(args.expr))
        if mono.word:
            raise UsageError(f"unknown factor {word_label(mono.word)!r}; {_ETAR_USAGE}")
        if mono.beta < 0:
            raise UsageError(
                "negative u-powers have no polynomial expansion; --theta handles the cone")
        terms = hopf.coaction(mono.alpha, mono.beta, None)
        emit(hopf.positive_element_label(terms) + "\n", args.out)
    return 0


# -- parser -------------------------------------------------------------------

def _add_out(p):
    p.add_argument("--out", default=None, help="write the document here instead of stdout")


def _add_spq(p):
    for name in ("--s", "--p", "--q"):
        p.add_argument(name, type=int, required=True)


def _add_jobs(p):
    p.add_argument("--jobs", type=parse_jobs, default=default_jobs(),
                   help="worker processes, at most one per CPU "
                        "(never affects output bytes)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cobarext",
        description="Completed Ext over the truncated polynomial Hopf algebras "
                    "F2[x]/x^(2^n), with verification suites and charts.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ext", help="one Ext group as JSON")
    p.add_argument("--n", required=True, help="truncation level, or 'inf'")
    _add_spq(p)
    p.add_argument("--invert-u", action="store_true")
    _add_out(p)
    p.set_defaults(func=cmd_ext)

    p = sub.add_parser("ext-table", help="Ext dims over a window as TSV")
    p.add_argument("--n", required=True, help="truncation level, or 'inf'")
    p.add_argument("--s", default="0..4", help="filtration window lo..hi")
    p.add_argument("--p", default="-4..4", help="p window lo..hi")
    p.add_argument("--q", default="-4..4", help="q window lo..hi")
    p.add_argument("--invert-u", action="store_true")
    _add_jobs(p)
    _add_out(p)
    p.set_defaults(func=cmd_ext_table)

    p = sub.add_parser("limit-ext", help="completed Ext via the level tower")
    _add_spq(p)
    _add_out(p)
    p.set_defaults(func=cmd_limit_ext)

    p = sub.add_parser("verify", help="verification suites")
    checks = p.add_subparsers(dest="check", required=True)

    c = checks.add_parser("axioms", help="coalgebra/comodule/right-unit laws")
    c.add_argument("--nmax", type=int, default=4)
    c.add_argument("--window", type=int, default=6,
                   help="bound on coefficient exponents in the suite")
    _add_out(c)
    c.set_defaults(func=cmd_verify_axioms)

    # no abbreviations: --r and --m would otherwise be read as --rmax and --mmax
    c = checks.add_parser("coboundary", allow_abbrev=False,
                          help="u^(2^r(2m+1)) bounds a^(2^(r+1))[x^(2^r)]")
    c.add_argument("--rmax", type=int, default=3, help="check r = 0..rmax")
    c.add_argument("--mmax", type=int, default=3, help="check m = 0..mmax")
    c.add_argument("--nmax", type=int, default=4,
                   help="check levels r+1..max(nmax, r+1)")
    _add_out(c)
    c.set_defaults(func=cmd_verify_coboundary)

    c = checks.add_parser("einfty", help="Koszul dims equal closed-form counts")
    c.add_argument("--n", required=True, help="truncation level, or 'inf'")
    c.add_argument("--window", type=int, default=8, help="|p|, |q| bound")
    c.add_argument("--smax", type=int, default=4)
    _add_jobs(c)
    _add_out(c)
    c.set_defaults(func=cmd_verify_einfty)

    c = checks.add_parser("vanishing", help="completed Ext vanishes for p+q<0")
    c.add_argument("--p", default="-8..8", help="p window lo..hi")
    c.add_argument("--budget", default="-8..-1", help="p+q window lo..hi, below 0")
    c.add_argument("--smax", type=int, default=6)
    _add_out(c)
    c.set_defaults(func=cmd_verify_vanishing)

    c = checks.add_parser("localization",
                          help="inverting u agrees with large u^(2^n) shifts")
    c.add_argument("--n", nargs="+", default=["1", "2"], help="levels to sample")
    c.add_argument("--window", type=int, default=6, help="|p|, |q| bound")
    c.add_argument("--smax", type=int, default=4)
    _add_out(c)
    c.set_defaults(func=cmd_verify_localization)

    p = sub.add_parser("xadic", help="one weight-filtration page slice as JSON")
    p.add_argument("--n", required=True, help="truncation level, or 'inf'")
    p.add_argument("--t", type=int, required=True, help="page stage")
    _add_spq(p)
    _add_out(p)
    p.set_defaults(func=cmd_xadic)

    p = sub.add_parser("chart", help="Adams-style dot chart")
    p.add_argument("--stems", default="0..7", help="stem window lo..hi")
    p.add_argument("--smax", type=int, default=8)
    p.add_argument("--sigma", type=int, default=None,
                   help="draw this sigma-slice of the completed page "
                        "(default: integer stems, sigma 0)")
    p.add_argument("--conjectural-d2", action="store_true",
                   help="overlay the conjectural degree-2 differential")
    p.add_argument("--format", default="tsv", choices=("tsv", "json", "svg"))
    p.add_argument("--arrows-out", default=None,
                   help="write the arrow table here (tsv overlay requires it)")
    _add_jobs(p)
    _add_out(p)
    p.set_defaults(func=cmd_chart)

    p = sub.add_parser("etar", help="expand the right unit on an element")
    p.add_argument("--theta", type=int, nargs=2, metavar=("I", "J"), default=None,
                   help="cone class theta/(a^I u^J)")
    p.add_argument("expr", nargs="*", help="word-free monomial, e.g. 'u' or 'a^3'")
    _add_out(p)
    p.set_defaults(func=cmd_etar)

    return ap


_NEG_RANGE = re.compile(r"^-\d+\.\.-?\d+$")


def normalize_argv(argv) -> list[str]:
    """Attach range values that start with '-' to their flag so argparse
    does not mistake them for options (e.g. --p -8..8 becomes --p=-8..8)."""
    out: list[str] = []
    for tok in argv:
        if (_NEG_RANGE.match(tok) and out and out[-1].startswith("--")
                and "=" not in out[-1]):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    args = build_parser().parse_args(normalize_argv(
        sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (UsageError, cobar.UnboundedBasisError, cobar.ComplexTooLargeError,
            hopf.UnboundedCoactionError, xadic.StageOutOfRangeError,
            ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except charts.ChartMismatchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        pass
    # out of memory: a window no guard refused.  Reported here, once the
    # exception and the frames holding the work's data are released.
    command = " ".join(filter(None, (args.command, getattr(args, "check", None))))
    print(f"error: {command} ran out of memory; try a smaller window", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
