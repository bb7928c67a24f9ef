import json

import pytest

from cobarext import charts, cobar, koszul, xadic
from cobarext.charts import ChartDot
from cobarext.grading import RO2Degree


def cells(dots):
    out = {}
    for d in dots:
        out.setdefault((d.stem, d.filtration), []).append(d.label)
    return out


def test_integer_stem_anchors():
    by_cell = cells(charts.integer_stem_chart(2, 3))
    assert {c: v for c, v in by_cell.items() if c[0] == 0} == {
        (0, 0): ["1"], (0, 1): ["a y_0"]}
    assert {c: v for c, v in by_cell.items() if c[0] == 1} == {
        (1, 1): ["a^2 y_1"]}
    assert by_cell[(2, 2)] == ["u^2 y_0^2"]
    # a stem window, fed through any ordered map, is a slice of the chart
    window = charts.integer_stem_chart(
        2, 3, 1, map_fn=lambda fn, filts: [fn(s) for s in reversed(filts)][::-1])
    assert window == [d for d in charts.integer_stem_chart(2, 3) if d.stem >= 1]


@pytest.mark.parametrize("stem_max,s_max,stem_min",
                         [(7, 8, 0), (7, 6, -2), (5, 5, -9), (3, 0, 0), (12, 9, 5),
                          (-1, 4, -6), (4, 0, 2)])
def test_integer_stem_chart_matches_the_one_degree_pages(stem_max, s_max, stem_min):
    # each filtration row is listed over its window of stems at once; the
    # one-degree closed-form pages, cell by cell, are the oracle
    want = sorted((charts._dot(mono)
                   for stem in range(stem_min, stem_max + 1)
                   for s in range(s_max + 1)
                   for mono in xadic.einfty_basis(None, s, RO2Degree(stem + s, 0))),
                  key=ChartDot.sort_key)
    assert charts.integer_stem_chart(stem_max, s_max, stem_min) == want


def test_dot_labels_roundtrip():
    for dot in charts.integer_stem_chart(7, 8):
        mono = dot.mono
        assert dot.label == mono.label()
        d = mono.degree()
        assert (d.p - mono.filtration, mono.filtration, d.q) == \
            (dot.stem, dot.filtration, dot.sigma)


def test_chart_counts_match_cobar():
    for dot_stem in range(5):
        for s in range(5):
            d = RO2Degree(dot_stem + s, 0)
            count = sum(
                1 for dot in charts.integer_stem_chart(6, 6)
                if dot.stem == dot_stem and dot.filtration == s)
            assert count == cobar.ext_dim(s, d, None).dim


def test_overlay_pinned_arrow():
    dots = charts.integer_stem_chart(6, 6)
    overlay = charts.conjectural_d2_overlay(dots)
    arrows = {
        (a.source.stem, a.source.filtration, a.source.label,
         a.target.stem, a.target.filtration, a.target.label)
        for a in overlay.arrows
    }
    assert (5, 3, "u^4 y_0^2 y_1", 4, 5, "a u^4 y_0^5") in arrows
    for a in overlay.arrows:
        assert a.target.stem == a.source.stem - 1
        assert a.target.filtration == a.source.filtration + 2
        assert a.target.sigma == a.source.sigma


def test_overlay_generator_instance():
    dots = charts.slice_chart(2, (0, 1), 3)
    overlay = charts.conjectural_d2_overlay(dots)
    assert {(a.source.label, a.target.label) for a in overlay.arrows} == {
        ("y_1", "a y_0^3")}


def test_overlay_skips_y_free_dots_and_drops_inadmissible():
    dots = charts.integer_stem_chart(6, 6)
    overlay = charts.conjectural_d2_overlay(dots)
    sources = {a.source.label for a in overlay.arrows}
    for dot in dots:
        assert dot.label == dot.mono.label()
        if not any(dot.mono.powers):
            assert dot.label not in sources
    assert any(d.source.label == "a^2 y_1" and d.reason == "target inadmissible"
               for d in overlay.dropped)


def test_slice_chart_consistency_windows():
    dots = charts.slice_chart(0, (0, 2), 2)
    assert cells(dots) == {
        (0, 0): ["1"], (0, 1): ["a y_0"], (1, 1): ["a^2 y_1"],
        (2, 2): ["u^2 y_0^2"]}
    # a negative-budget slice holds only the a-power dot at stem 0, s=0
    dots = charts.slice_chart(-4, (-2, 1), 2)
    assert [(d.stem, d.filtration, d.label) for d in dots] == [(0, 0, "a^4")]
    assert charts.slice_chart(0, (2, 1), 2) == []


def test_slice_chart_reads_one_koszul_complex_per_cell_at_its_stable_level(monkeypatch):
    calls = []
    real = koszul.get_koszul

    def recording(d, n, invert_u=True):
        calls.append((d, n, invert_u))
        return real(d, n, invert_u)

    monkeypatch.setattr(koszul, "get_koszul", recording)
    sigma, stems, s_max = 2, (-2, 5), 4
    assert charts.slice_chart(sigma, stems, s_max)
    cells = [(s, RO2Degree(stem + s, sigma))
             for stem in range(stems[0], stems[1] + 1) for s in range(s_max + 1)]
    assert calls == [(d, koszul.stable_level(s, d), True) for s, d in cells]


def test_slice_chart_refuses_a_window_below_the_stable_level(monkeypatch):
    # a^2 y_1 in (s=1, d=(2,0)) is born at level 2: the Koszul dim at level 1
    # is 0 while the closed form lists it, so the chart refuses
    monkeypatch.setattr(koszul, "stable_level", lambda s, d: 1)
    with pytest.raises(charts.ChartMismatchError, match="a\\^2 y_1"):
        charts.slice_chart(0, (1, 1), 1)


def test_render_tsv():
    assert charts.render([], (), "tsv") == "stem\tfiltration\tsigma\tlabel\n"
    text = charts.render(charts.integer_stem_chart(2, 2), (), "tsv")
    lines = text.strip().split("\n")
    assert lines[0] == "stem\tfiltration\tsigma\tlabel"
    assert len(lines) == 1 + 4
    assert lines[1] == "0\t0\t0\t1"


def test_render_json_single_dot():
    doc = json.loads(charts.render(charts.integer_stem_chart(0, 0), (), "json"))
    assert doc["dots"] == [
        {"stem": 0, "filtration": 0, "sigma": 0, "label": "1"}]
    assert doc["arrows"] == []


def test_render_svg_deterministic_and_wellformed():
    import xml.etree.ElementTree as ET

    dots = charts.integer_stem_chart(7, 8)
    overlay = charts.conjectural_d2_overlay(dots)
    svg1 = charts.render(dots, overlay.arrows, "svg")
    svg2 = charts.render(list(reversed(dots)), overlay.arrows, "svg")
    assert svg1 == svg2
    root = ET.fromstring(svg1)
    assert root.tag.endswith("svg")
    assert "stroke-dasharray" in svg1 and "conjectural" in svg1
    assert svg1.count("<circle") == len(dots)


def test_render_rejects_unknown_format():
    with pytest.raises(charts.UnknownFormatError):
        charts.render([], (), "pdf")


def test_arrows_tsv():
    dots = charts.integer_stem_chart(6, 6)
    overlay = charts.conjectural_d2_overlay(dots)
    text = charts.render_arrows_tsv(overlay.arrows)
    lines = text.strip().split("\n")
    assert lines[0] == "src_stem\tsrc_filt\ttgt_stem\ttgt_filt\tpage\tconjectural"
    assert "5\t3\t4\t5\t2\ttrue" in lines[1:]
    assert charts.render_arrows_tsv(()) == lines[0] + "\n"


def test_chart_dot_sorting_is_total():
    dots = charts.integer_stem_chart(5, 5)
    keys = [d.sort_key() for d in dots]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
