"""Adams-style charts: dots on (stem, filtration), sigma-slices, and the
conjectural degree-2 differential overlay, rendered as TSV/JSON/SVG."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from . import cobar, xadic
from .grading import RO2Degree
from .xadic import EinftyMonomial, parse_einfty_label


class UnknownFormatError(Exception):
    """Requested render format is not one of svg, tsv, json."""


class ChartMismatchError(Exception):
    """Closed-form dot names disagree with the computed dimension."""


@dataclass(frozen=True)
class ChartDot:
    stem: int
    filtration: int
    sigma: int
    label: str

    def sort_key(self):
        return (self.stem, self.filtration, self.sigma, self.label)


@dataclass(frozen=True)
class ChartArrow:
    source: ChartDot
    target: ChartDot
    page: int
    conjectural: bool


@dataclass(frozen=True)
class DroppedArrow:
    source: ChartDot
    target_label: str
    reason: str


@dataclass(frozen=True)
class OverlayResult:
    arrows: tuple[ChartArrow, ...]
    dropped: tuple[DroppedArrow, ...]


def _dot(mono: EinftyMonomial) -> ChartDot:
    d = mono.degree()
    return ChartDot(d.p - mono.filtration, mono.filtration, d.q, mono.label())


def stem_dots(stem: int, s_max: int) -> list[ChartDot]:
    """Dots of one integer stem column of the uncompleted limit page."""
    return [
        _dot(mono)
        for s in range(s_max + 1)
        for mono in xadic.einfty_basis(None, s, RO2Degree(stem + s, 0))
    ]


def integer_stem_chart(stem_max: int, s_max: int, stem_min: int = 0,
                       map_fn=map) -> list[ChartDot]:
    """Dots of the uncompleted limit page in integer stems (sigma-part 0).

    map_fn(fn, stems) must return the columns in stem order; a process
    pool's ordered map fits, since the column function pickles.
    """
    columns = map_fn(functools.partial(stem_dots, s_max=s_max),
                     range(stem_min, stem_max + 1))
    return sorted((dot for col in columns for dot in col), key=ChartDot.sort_key)


def slice_chart(q_slice: int, stems: tuple[int, int], s_max: int, n: int,
                max_dim: int = cobar.DEFAULT_MAX_DIM) -> list[ChartDot]:
    """Dots of the completed limit page in one sigma-slice.

    Dimensions come from a certified tower of truncation levels (u inverted,
    Koszul complexes); labels come from the completed closed-form names, and the two are
    required to agree.  A class named y_r is only visible from level r+1
    onward, and a tower sitting entirely below that level would certify a
    false zero, so each cell's window starts at the birth level of its
    closed-form names.  n caps the top level a window may use.
    """
    if n < 3:
        raise ValueError("need n >= 3 to fit a three-level tower window")
    dots = []
    for stem in range(stems[0], stems[1] + 1):
        for s in range(s_max + 1):
            d = RO2Degree(stem + s, q_slice)
            names = xadic.completed_basis(s, d)
            birth = max((len(m.powers) for m in names), default=1)
            start = max(1, birth)
            if start + 2 > n:
                raise ValueError(
                    f"(stem {stem}, s {s}, sigma {q_slice}) holds a class born "
                    f"at level {birth}; certifying it needs n >= {start + 2}"
                )
            report = cobar.limit_ext_report(s, d, range(start, start + 3), max_dim)
            if not report.stabilized and start + 3 <= n:
                report = cobar.limit_ext_report(
                    s, d, range(start + 1, start + 4), max_dim)
            if not report.stabilized:
                raise cobar.NotStabilizedError(report)
            if len(names) != report.limit_dim:
                raise ChartMismatchError(
                    f"(stem {stem}, s {s}, sigma {q_slice}): computed dim "
                    f"{report.limit_dim}, closed form lists "
                    f"{[m.label() for m in names]}"
                )
            dots.extend(_dot(m) for m in names)
    return sorted(dots, key=ChartDot.sort_key)


def d2_targets(mono: EinftyMonomial) -> list[EinftyMonomial]:
    """Leibniz expansion of the conjectural degree-2 differential.

    Generator rule: y_(t+1) maps to (a y_0) y_t^2 and y_0 to zero; a and u
    map to zero.  In characteristic 2 only odd exponents contribute, and
    inadmissible targets are zero in the limit page (dropped by callers
    with a reason).
    """
    targets = []
    for r in range(1, len(mono.powers)):
        if mono.powers[r] % 2 == 0:
            continue
        powers = list(mono.powers) + [0]
        powers[r] -= 1
        powers[r - 1] += 2
        powers[0] += 1
        while powers and powers[-1] == 0:
            powers.pop()
        targets.append(EinftyMonomial(mono.m + 1, mono.k, tuple(powers)))
    return targets


def conjectural_d2_overlay(dots: list[ChartDot]) -> OverlayResult:
    """Arrows of the conjectural degree-2 differential between chart dots."""
    index = {(d.stem, d.filtration, d.sigma, d.label): d for d in dots}
    arrows = []
    dropped = []
    for dot in sorted(dots, key=ChartDot.sort_key):
        mono = parse_einfty_label(dot.label)
        for target in d2_targets(mono):
            if not xadic.completed_admissible(target):
                # zero in the limit page
                dropped.append(DroppedArrow(dot, target.label(), "target inadmissible"))
                continue
            coords = (dot.stem - 1, dot.filtration + 2, dot.sigma, target.label())
            tgt_dot = index.get(coords)
            if tgt_dot is None:
                dropped.append(DroppedArrow(dot, target.label(), "target outside chart"))
                continue
            arrows.append(ChartArrow(dot, tgt_dot, 2, True))
    return OverlayResult(tuple(arrows), tuple(dropped))


DOT_HEADER = "stem\tfiltration\tsigma\tlabel"
ARROW_HEADER = "src_stem\tsrc_filt\ttgt_stem\ttgt_filt\tpage\tconjectural"


def render_arrows_tsv(arrows) -> str:
    lines = [ARROW_HEADER]
    for a in sorted(arrows, key=lambda a: (a.source.sort_key(), a.target.sort_key())):
        lines.append(
            f"{a.source.stem}\t{a.source.filtration}\t{a.target.stem}\t"
            f"{a.target.filtration}\t{a.page}\t{'true' if a.conjectural else 'false'}"
        )
    return "\n".join(lines) + "\n"


def _dot_dict(d: ChartDot) -> dict:
    return {"stem": d.stem, "filtration": d.filtration, "sigma": d.sigma,
            "label": d.label}


def render(dots, arrows=(), fmt: str = "tsv") -> str:
    """Deterministic chart document in the requested format."""
    dots = sorted(dots, key=ChartDot.sort_key)
    arrows = sorted(arrows, key=lambda a: (a.source.sort_key(), a.target.sort_key()))
    if fmt == "tsv":
        lines = [DOT_HEADER]
        for d in dots:
            lines.append(f"{d.stem}\t{d.filtration}\t{d.sigma}\t{d.label}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {
            "dots": [_dot_dict(d) for d in dots],
            "arrows": [
                {
                    "source": _dot_dict(a.source),
                    "target": _dot_dict(a.target),
                    "page": a.page,
                    "conjectural": a.conjectural,
                }
                for a in arrows
            ],
        }
        return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    if fmt == "svg":
        return _render_svg(dots, arrows)
    raise UnknownFormatError(f"unknown format {fmt!r} (expected svg, tsv, json)")


CELL = 44
MARGIN = 52
DOT_SPREAD = 11


def _render_svg(dots, arrows) -> str:
    stems = [d.stem for d in dots] or [0]
    filts = [d.filtration for d in dots] or [0]
    stem_lo, stem_hi = min(stems + [0]), max(stems)
    filt_hi = max(filts)
    width = MARGIN * 2 + (stem_hi - stem_lo + 1) * CELL
    height = MARGIN * 2 + (filt_hi + 1) * CELL

    def x_of(stem: int, offset: float = 0.0) -> float:
        return MARGIN + (stem - stem_lo + 0.5) * CELL + offset

    def y_of(filt: int) -> float:
        return height - MARGIN - (filt + 0.5) * CELL

    # spread dots sharing a cell so each stays visible
    cell_members: dict[tuple[int, int], list[ChartDot]] = {}
    for d in dots:
        cell_members.setdefault((d.stem, d.filtration), []).append(d)
    position: dict[tuple, tuple[float, float]] = {}
    for (stem, filt), members in sorted(cell_members.items()):
        for i, d in enumerate(members):
            off = (i - (len(members) - 1) / 2) * DOT_SPREAD
            position[(d.stem, d.filtration, d.sigma, d.label)] = (
                x_of(stem, off), y_of(filt),
            )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<style>text{font-family:Helvetica,Arial,sans-serif}</style>',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for stem in range(stem_lo, stem_hi + 1):
        x = x_of(stem)
        parts.append(
            f'<line x1="{x:.1f}" y1="{MARGIN}" x2="{x:.1f}" y2="{height - MARGIN}" '
            'stroke="#eeeeee" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{height - MARGIN + 18}" font-size="11" '
            f'text-anchor="middle" fill="#444444">{stem}</text>'
        )
    for filt in range(filt_hi + 1):
        y = y_of(filt)
        parts.append(
            f'<line x1="{MARGIN}" y1="{y:.1f}" x2="{width - MARGIN}" y2="{y:.1f}" '
            'stroke="#eeeeee" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN - 10}" y="{y + 4:.1f}" font-size="11" '
            f'text-anchor="end" fill="#444444">{filt}</text>'
        )
    if any(a.conjectural for a in arrows):
        parts.append(
            f'<text x="{width - 8}" y="16" font-size="12" text-anchor="end" '
            'fill="#b03030">conjectural differentials shown dashed</text>'
        )
    for a in arrows:
        x1, y1 = position[(a.source.stem, a.source.filtration, a.source.sigma, a.source.label)]
        x2, y2 = position[(a.target.stem, a.target.filtration, a.target.sigma, a.target.label)]
        dash = ' stroke-dasharray="5,3"' if a.conjectural else ""
        parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="#b03030" stroke-width="1.2"{dash}>'
            f"<title>d{a.page}: {a.source.label} → {a.target.label}"
            f"{' (conjectural)' if a.conjectural else ''}</title></line>"
        )
    for d in dots:
        x, y = position[(d.stem, d.filtration, d.sigma, d.label)]
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3.4" fill="#222222">'
            f"<title>{d.label} (stem {d.stem}, filtration {d.filtration}, "
            f"σ {d.sigma})</title></circle>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
