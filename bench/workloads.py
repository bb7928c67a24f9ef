"""The four benchmark workloads, one pass each, with a canonical dump of
their per-cell results.

Each workload fills an ``Outcome``: how many cells its window holds, how
many it finished, how many of those were wrong by the program's own check,
and text lines whose SHA-256 the runner compares with a pinned digest.
Why each workload exists is written in NOTES.md.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field

from cobarext import cli, cobar, hopf, xadic
from cobarext.grading import RO2Degree

# seed t moves the ext_table window by t * EXT_TABLE_SHIFT: multiplication by
# the unit u^4, which leaves p mod 4 and p + q (the slice-complex key at
# level 2) unchanged, so every seed does the same work
EXT_TABLE_SHIFT = 4
EXT_TABLE_SMAX, EXT_TABLE_PQ = 6, (-8, 8)
EXT_TABLE_CELLS = (EXT_TABLE_SMAX + 1) * (EXT_TABLE_PQ[1] - EXT_TABLE_PQ[0] + 1) ** 2

EINFTY_WINDOW, EINFTY_SMAX = 12, 6
EINFTY_CELLS = 3 * (EINFTY_SMAX + 1) * (2 * EINFTY_WINDOW + 1) ** 2

VANISHING_P, VANISHING_BUDGET, VANISHING_SMAX = (-8, 8), (-8, -1), 6
VANISHING_CELLS = ((VANISHING_P[1] - VANISHING_P[0] + 1)
                   * (VANISHING_BUDGET[1] - VANISHING_BUDGET[0] + 1) * (VANISHING_SMAX + 1))

# 378 distinct slice complexes (n <= 3, u not inverted) lie in the ACCEPT-04
# window; fixing the count here means an exception mid-scan still fails the
# cells it never reached
DD_WINDOW, DD_SMAX, AXIOM_LEVELS = 12, 6, (1, 2, 3, 4)
DD_CELLS = 378 * (DD_SMAX + 1) + 7 * len(AXIOM_LEVELS)


@dataclass
class Outcome:
    attempted: int
    finished: int = 0
    failed: int = 0
    lines: list[str] = field(default_factory=list)
    certs: dict[str, int] = field(default_factory=dict)

    def text(self) -> str:
        return "".join(line + "\n" for line in self.lines)


def einfty(out: Outcome, seed: int) -> None:
    """ACCEPT-01: cobar Ext dims equal closed-form counts, n = 1..3."""
    for n in (1, 2, 3):
        rep = xadic.verify_einfty(n, window=EINFTY_WINDOW, s_max=EINFTY_SMAX)
        out.finished += min(rep.checked, EINFTY_CELLS // 3)
        out.failed += len(rep.mismatches)
        out.lines.append(f"einfty n={n} window={EINFTY_WINDOW} s_max={EINFTY_SMAX} "
                         f"checked={rep.checked}")
        out.lines.extend(
            f"mismatch n={m.n} s={m.s} p={m.p} q={m.q} ext={m.ext} closed_form={m.closed_form}"
            for m in rep.mismatches
        )


def vanishing(out: Outcome, seed: int) -> None:
    """ACCEPT-02: completed Ext vanishes for p + q < 0, via level towers."""
    rep = xadic.verify_vanishing(VANISHING_P, VANISHING_BUDGET, VANISHING_SMAX)
    for e in rep.entries:
        out.certs[e.rule] = out.certs.get(e.rule, 0) + 1
        out.lines.append(
            f"{e.p} {e.q} {e.s} levels={','.join(map(str, e.levels))} rule={e.rule} "
            f"stabilized={e.stabilized} dim={e.got_dim} basis={';'.join(e.got_basis)} "
            f"{'ok' if e.ok else 'FAIL'}"
        )
    out.finished = min(len(rep.entries), out.attempted)
    out.failed = len(rep.failures())


def _u_power(beta: int) -> str:
    return "" if beta == 0 else "u" if beta == 1 else f"u^{beta}"


def _shift_term(term: str, du: int) -> str:
    """Re-render one cobar monomial label with its u-exponent moved by du.

    Only canonical labels (``a^i u^j [word]``, each part optional, or "1")
    are accepted, so that the mapping cannot tidy up malformed output.
    """
    tokens = [] if term == "1" else term.split(" ")
    a = tokens[:1] if tokens and (tokens[0] == "a" or tokens[0].startswith("a^")) else []
    rest = tokens[len(a):]
    u = rest[:1] if rest and (rest[0] == "u" or rest[0].startswith("u^")) else []
    word = rest[len(u):]
    beta = 0 if not u else 1 if u[0] == "u" else int(u[0][2:])
    if (len(word) > 1 or (word and not word[0].startswith("["))
            or (u and _u_power(beta) != u[0])):
        raise ValueError(f"not a canonical cobar monomial label: {term!r}")
    shifted = _u_power(beta + du)
    return " ".join(a + ([shifted] if shifted else []) + word) or "1"


def unshift_ext_table(text: str, t: int) -> str:
    """Map ext-table output for the window shifted by t * (4, -4) back to t = 0.

    Dims must match as they are; p, q and every label's u-exponent move back
    by 4t, so the result is byte-identical to the unshifted run's output
    exactly when the shifted run is right.
    """
    shift = EXT_TABLE_SHIFT * t
    lines = text.split("\n")
    out = [lines[0]]
    for line in lines[1:]:
        if not line:
            out.append(line)
            continue
        n, s, p, q, dim, basis = line.split("\t")
        labels = [
            " + ".join(_shift_term(term, -shift) for term in label.split(" + "))
            for label in basis.split(";")
        ] if basis else []
        out.append("\t".join([n, s, str(int(p) - shift), str(int(q) + shift), dim,
                              ";".join(labels)]))
    return "\n".join(out)


def ext_table(out: Outcome, seed: int) -> None:
    """`cobarext ext-table` at level 2 with u inverted, through cli.main."""
    lo, hi = EXT_TABLE_PQ
    shift = EXT_TABLE_SHIFT * seed
    argv = ["ext-table", "--n", "2", "--s", f"0..{EXT_TABLE_SMAX}",
            "--p", f"{lo + shift}..{hi + shift}", "--q", f"{lo - shift}..{hi - shift}",
            "--invert-u", "--jobs", "1"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        out.lines.append(f"exit {code}")
        return
    text = unshift_ext_table(buf.getvalue(), seed)
    out.lines.extend(text.split("\n")[:-1])
    out.finished = min(len(out.lines) - 1, out.attempted)


def dd_axioms(out: Outcome, seed: int) -> None:
    """ACCEPT-04: d after d vanishes on every distinct slice, and the axioms.

    Complexes are deduplicated by their cache key, not by id(): once the LRU
    evicts a complex its id can be reused by a different one.
    """
    seen = set()
    for n in (1, 2, 3):
        for p in range(-DD_WINDOW, DD_WINDOW + 1):
            for q in range(-DD_WINDOW, DD_WINDOW + 1):
                cx = cobar.get_complex(RO2Degree(p, q), n, False)
                key = (cx.n, cx.invert_u, cx.p_key, cx.e_floor)
                if key in seen:
                    continue
                seen.add(key)
                for s in range(DD_SMAX + 1):
                    ok = cx.matrix(s + 1).mul(cx.matrix(s)).is_zero()
                    out.finished += 1
                    out.failed += not ok
                    out.lines.append(f"dd n={n} p_key={cx.p_key} e_floor={cx.e_floor} "
                                     f"s={s} {'ok' if ok else 'FAIL'}")
    for n in AXIOM_LEVELS:
        rep = hopf.check_axioms(n, coeff_window=6, cone_window=6)
        out.finished += len(rep.checks)
        out.failed += sum(not c.ok for c in rep.checks)
        out.lines.extend(rep.lines())
    out.attempted = max(out.attempted, out.finished)


# name -> (cells in the window, pass function)
WORKLOADS = {
    "einfty": (EINFTY_CELLS, einfty),
    "vanishing": (VANISHING_CELLS, vanishing),
    "ext_table": (EXT_TABLE_CELLS, ext_table),
    "dd_axioms": (DD_CELLS, dd_axioms),
}

