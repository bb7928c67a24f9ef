"""Adams-style charts: dots on (stem, filtration), sigma-slices, and the
conjectural degree-2 differential overlay, rendered as TSV/JSON/SVG.

Each dot carries the closed-form monomial it names, so the overlay
expands that monomial directly and never parses a label."""

from __future__ import annotations

import functools

from . import koszul, xadic
from .grading import RO2Degree
from .records import Record
from .xadic import EinftyMonomial


class UnknownFormatError(Exception):
    """Requested render format is not one of svg, tsv, json."""


class ChartMismatchError(Exception):
    """Closed-form dot names disagree with the computed dimension."""


class ChartDot(Record):
    stem: int
    filtration: int
    sigma: int
    label: str
    mono: EinftyMonomial
    __slots__ = tuple(__annotations__)

    def sort_key(self):
        return (self.stem, self.filtration, self.sigma, self.label)


class ChartArrow(Record):
    source: ChartDot
    target: ChartDot
    __slots__ = tuple(__annotations__)


class DroppedArrow(Record):
    source: ChartDot
    target_label: str
    reason: str
    __slots__ = tuple(__annotations__)


class OverlayResult(Record):
    arrows: tuple[ChartArrow, ...]
    dropped: tuple[DroppedArrow, ...]
    __slots__ = tuple(__annotations__)


def _dot(mono: EinftyMonomial) -> ChartDot:
    d = mono.degree()
    return ChartDot(d.p - mono.filtration, mono.filtration, d.q, mono.label(), mono)


def _filtration_dots(s: int, stems: tuple[int, int]) -> list[ChartDot]:
    """Dots of one filtration row of the uncompleted limit page over the
    stems, from one listing of its closed-form pages."""
    pages = xadic._pages(None, None, s, (stems[0] + s, stems[1] + s), (0, 0))
    return [_dot(mono) for monos in pages.values() for mono in monos]


def _filtrations(s_max: int) -> range:
    if s_max < 0:
        raise ValueError(f"no chart at negative filtration s={s_max}")
    return range(s_max + 1)


def integer_stem_chart(stem_max: int, s_max: int, stem_min: int = 0,
                       map_fn=map) -> list[ChartDot]:
    """Dots of the uncompleted limit page in integer stems (sigma-part 0).

    map_fn(fn, filtrations) must return the rows in filtration order; a
    process pool's ordered map fits, since the row function pickles.
    """
    rows = map_fn(functools.partial(_filtration_dots, stems=(stem_min, stem_max)),
                  _filtrations(s_max))
    return sorted((dot for row in rows for dot in row), key=ChartDot.sort_key)


def slice_chart(q_slice: int, stems: tuple[int, int], s_max: int) -> list[ChartDot]:
    """Dots of the completed limit page in one sigma-slice.

    Each cell's dimension is the cohomology of one u-inverted Koszul complex
    at koszul.stable_level(s, d), where the tower of truncation levels is
    constant (the tests check that against three-level towers); labels come
    from the completed closed-form names, and the two are required to agree,
    else ChartMismatchError.
    """
    dots = []
    filtrations = _filtrations(s_max)
    for stem in range(stems[0], stems[1] + 1):
        for s in filtrations:
            d = RO2Degree(stem + s, q_slice)
            dim = koszul.get_koszul(d, koszul.stable_level(s, d)).cohomology(s).dim
            names = xadic.completed_basis(s, d)
            if len(names) != dim:
                raise ChartMismatchError(
                    f"(stem {stem}, s {s}, sigma {q_slice}): computed dim {dim}, "
                    f"closed form lists {[m.label() for m in names]}")
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
    """Arrows of the conjectural degree-2 differential between chart dots.

    A target's monomial fixes its dot: it sits at stem - 1, filtration + 2
    and the same sigma as its source."""
    index = {d.mono: d for d in dots}
    arrows = []
    dropped = []
    for dot in sorted(dots, key=ChartDot.sort_key):
        for target in d2_targets(dot.mono):
            if not target.admissible(None):
                # zero in the limit page
                dropped.append(DroppedArrow(dot, target.label(), "target inadmissible"))
                continue
            tgt_dot = index.get(target)
            if tgt_dot is None:
                dropped.append(DroppedArrow(dot, target.label(), "target outside chart"))
                continue
            arrows.append(ChartArrow(dot, tgt_dot))
    return OverlayResult(tuple(arrows), tuple(dropped))


DOT_HEADER = "stem\tfiltration\tsigma\tlabel"
ARROW_HEADER = "src_stem\tsrc_filt\ttgt_stem\ttgt_filt\tpage\tconjectural"


def render_arrows_tsv(arrows) -> str:
    lines = [ARROW_HEADER]
    for a in sorted(arrows, key=lambda a: (a.source.sort_key(), a.target.sort_key())):
        lines.append(
            f"{a.source.stem}\t{a.source.filtration}\t{a.target.stem}\t"
            f"{a.target.filtration}\t2\ttrue"
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
        import json  # loaded only when a document is written

        doc = {
            "dots": [_dot_dict(d) for d in dots],
            "arrows": [
                {
                    "source": _dot_dict(a.source),
                    "target": _dot_dict(a.target),
                    "page": 2,
                    "conjectural": True,
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
    position: dict[ChartDot, tuple[float, float]] = {}
    for (stem, filt), members in sorted(cell_members.items()):
        for i, d in enumerate(members):
            off = (i - (len(members) - 1) / 2) * DOT_SPREAD
            position[d] = (x_of(stem, off), y_of(filt))

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
    if arrows:
        parts.append(
            f'<text x="{width - 8}" y="16" font-size="12" text-anchor="end" '
            'fill="#b03030">conjectural differentials shown dashed</text>'
        )
    for a in arrows:
        x1, y1 = position[a.source]
        x2, y2 = position[a.target]
        parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            'stroke="#b03030" stroke-width="1.2" stroke-dasharray="5,3">'
            f"<title>d2: {a.source.label} → {a.target.label} (conjectural)</title></line>"
        )
    for d in dots:
        x, y = position[d]
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3.4" fill="#222222">'
            f"<title>{d.label} (stem {d.stem}, filtration {d.filtration}, "
            f"σ {d.sigma})</title></circle>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
