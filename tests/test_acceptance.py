"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single ACCEPT-NN line (visible with pytest -s) and fails
loudly if its window produces a single discrepancy.
"""

import json
import os
import subprocess
import sys

from cobarext import charts, cobar, hopf, koszul, xadic
from cobarext.grading import RO2Degree

CLI = [sys.executable, "-m", "cobarext"]


def report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPT-{num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed"


def test_accept_01_oracle_equivalence():
    bad = []
    for n in (1, 2, 3):
        rep = xadic.verify_einfty(n, window=12, s_max=6)
        if not rep.ok:
            bad.extend(rep.mismatches)
        # verify_einfty reads Koszul dims: the cobar complex must give the
        # same dims on the whole window
        for p in range(-12, 13):
            for q in range(-12, 13):
                d = RO2Degree(p, q)
                for s in range(7):
                    if (cobar.ext_dim(s, d, n, False).dim
                            != koszul.get_koszul(d, n, False).cohomology(s).dim):
                        bad.append(("cobar", n, s, p, q))
    report(1, "oracle equivalence, n in {1,2,3}, s <= 6, |p|,|q| <= 12",
           not bad)


def test_accept_02_vanishing():
    rep = xadic.verify_vanishing(p_range=(-8, 8), budget=(-8, -1), s_max=6)
    report(2, "completed Ext vanishes for p+q < 0 (a-powers at p=0, s=0)",
           rep.ok)


def test_accept_03_coboundary_lemma():
    ok = all(
        xadic.verify_coboundary(r, m, n).ok
        for r in range(4)
        for m in range(4)
        for n in range(r + 1, 5)
    )
    report(3, "u^(2^r(2m+1)) bounds the leading coboundary, r,m <= 3", ok)


def test_accept_04_dd_zero_and_axioms():
    seen = set()
    dd_ok = True
    for n in (1, 2, 3):
        for p in range(-12, 13):
            for q in range(-12, 13):
                cx = cobar.get_complex(RO2Degree(p, q), n, False)
                # ids are reused once the complex cache evicts, so key on data
                key = (cx.n, cx.invert_u, cx.p_key, cx.e_floor)
                if key in seen:
                    continue
                seen.add(key)
                for s in range(7):
                    lo, hi = cx.matrix(s), cx.matrix(s + 1)
                    if not hi.mul(lo).is_zero():
                        dd_ok = False
    axioms_ok = all(
        hopf.check_axioms(n, coeff_window=6, cone_window=6).ok
        for n in (1, 2, 3, 4)
    )
    report(4, "d after d vanishes on every assembled slice; axiom suite n <= 4",
           dd_ok and axioms_ok)


def _cobar_a_rank(s, d, n):
    """a_multiplication_rank on cobar complexes: the same-level image."""
    return cobar._image_in_lower(cobar.get_complex(d, n, False),
                                 cobar.get_complex(RO2Degree(d.p, d.q - 1), n, False), s)[0]


def test_accept_05_a_module_structure():
    ok = True
    for r in range(3):
        n = r + 1
        bound = 2 ** (r + 1)
        for m in range(3):
            p0 = bound * m + 2**r
            q0 = 2**r - bound * m
            for step in range(bound):
                d = RO2Degree(p0, q0 - step)
                dim = cobar.ext_dim(1, d, n).dim
                rank = cobar.a_multiplication_rank(1, d, n)
                want = 1 if step < bound - 1 else 0
                if dim != 1 or rank != want or rank != _cobar_a_rank(1, d, n):
                    ok = False
    report(5, "a-tower of each u^(2^(r+1)m) y_r class has exact length 2^(r+1)",
           ok)


def test_accept_06_localization():
    rep = cobar.verify_localization(n_values=(1, 2), window=6, s_max=4)
    report(6, "inverting u equals large u^(2^n) shifts, n in {1,2}", rep.ok)


def test_accept_07_chart_anchors():
    dots = charts.integer_stem_chart(6, 6)
    cells = {}
    for d in dots:
        cells.setdefault((d.stem, d.filtration), []).append(d.label)
    anchors_ok = (
        {c: v for c, v in cells.items() if c[0] == 0}
        == {(0, 0): ["1"], (0, 1): ["a y_0"]}
        and {c: v for c, v in cells.items() if c[0] == 1} == {(1, 1): ["a^2 y_1"]}
    )
    overlay = charts.conjectural_d2_overlay(dots)
    arrow_ok = any(
        (a.source.stem, a.source.filtration, a.target.stem, a.target.filtration)
        == (5, 3, 4, 5)
        and a.source.label == "u^4 y_0^2 y_1" and a.target.label == "a u^4 y_0^5"
        for a in overlay.arrows
    )
    report(7, "chart anchors in stems 0,1 and the (5,3)->(4,5) overlay arrow",
           anchors_ok and arrow_ok)


def test_accept_08_eta_r_negative_cone():
    t = hopf.NegativeConeClass
    pinned = (
        hopf.eta_r_negative(t(0, 0)) == frozenset({(t(0, 0), 0)})
        and hopf.eta_r_negative(t(0, 1)) == frozenset({(t(0, 1), 0)})
        and hopf.eta_r_negative(t(2, 1))
        == frozenset({(t(2, 1), 0), (t(0, 2), 1)})
    )
    sweep = True
    x_deg = RO2Degree(1, 1)
    for i in range(9):
        for j in range(9):
            c = t(i, j)
            terms = hopf.eta_r_negative(c)
            if not terms:
                sweep = False
            for cls, k in terms:
                if cls.i < 0 or cls.degree() + x_deg.scaled(k) != c.degree():
                    sweep = False
    report(8, "right unit on the torsion cone: pinned expansions and sweep",
           pinned and sweep)


def test_accept_09_determinism():
    jobs_hi = str(max(2, os.cpu_count() or 1))
    commands = [
        ["verify", "einfty", "--n", "2", "--window", "6", "--smax", "4"],
        ["chart", "--stems", "0..7", "--smax", "8", "--format", "tsv"],
        ["ext-table", "--n", "2", "--s", "0..3", "--p", "-4..4", "--q", "-4..4"],
    ]
    ok = True
    for cmd in commands:
        outs = []
        for jobs in ("1", "1", "1", jobs_hi):
            r = subprocess.run(
                CLI + cmd + ["--jobs", jobs],
                capture_output=True, text=True, encoding="utf-8")
            if r.returncode != 0:
                ok = False
            outs.append(r.stdout)
        if len(set(outs)) != 1:
            ok = False
    report(9, "byte-identical output across 3 runs and jobs 1 vs max", ok)
