import argparse
import functools
import hashlib
import json
import re
import subprocess
import sys

import pytest

from cobarext import cli, cobar, hopf, xadic
from helpers import replace

BASE = [sys.executable, "-m", "cobarext"]


def run(*args, **kw):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, encoding="utf-8", **kw)


def test_ext_single_tridegree():
    r = run("ext", "--n", "2", "--s", "1", "--p", "1", "--q", "1")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc == {"s": 1, "p": 1, "q": 1, "n": "2", "dim": 1, "basis": ["[x]"]}


def test_ext_primitive_square():
    r = run("ext", "--n", "1", "--s", "0", "--p", "2", "--q", "-2")
    doc = json.loads(r.stdout)
    assert doc["dim"] == 1 and doc["basis"] == ["u^2"]


def test_ext_dead_class():
    r = run("ext", "--n", "1", "--s", "1", "--p", "1", "--q", "-1")
    doc = json.loads(r.stdout)
    assert doc["dim"] == 0 and doc["basis"] == []


def test_ext_rejects_inverted_infinite_level():
    r = run("ext", "--n", "inf", "--s", "0", "--p", "0", "--q", "0", "--invert-u")
    assert r.returncode == 2
    assert "limit-ext" in r.stderr


def test_ext_inf_level_works_plain():
    r = run("ext", "--n", "inf", "--s", "1", "--p", "1", "--q", "1")
    assert r.returncode == 0 and json.loads(r.stdout)["dim"] == 1


def test_ext_table_deterministic_across_jobs():
    outs = [
        run("ext-table", "--n", "2", "--s", "0..2", "--p", "-3..3",
            "--q", "-3..3", "--jobs", str(jobs)).stdout
        for jobs in (1, 2, 1)
    ]
    assert outs[0] == outs[1] == outs[2]
    lines = outs[0].strip().split("\n")
    assert lines[0] == "n\ts\tp\tq\tdim\tbasis"
    assert len(lines) == 1 + 3 * 49


def test_limit_ext_stabilized():
    r = run("limit-ext", "--s", "1", "--p", "1", "--q", "1")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["stabilized"] is True and doc["limit_dim"] == 1
    assert doc["basis"] == ["[x]"] and doc["rule"] == "three-level"


def test_limit_ext_window_defaults_to_the_stable_level():
    # [x^16] is born at level 5; a window from level 1 certified a false 0
    r = run("limit-ext", "--s", "1", "--p", "16", "--q", "16")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["levels"] == [5, 6, 7, 8] and doc["stabilized"] is True
    assert doc["limit_dim"] == 1 and doc["basis"] == ["[x^16]"]


def test_verify_axioms():
    r = run("verify", "axioms", "--nmax", "2", "--window", "3")
    assert r.returncode == 0
    assert "comodule coassociativity" in r.stdout
    assert json.loads(r.stdout.split("\n", 14)[-1])["ok"] is True


def test_verify_coboundary_single_and_sweep(capsys):
    # the suite runs only its sweep: a single case is not an option, and
    # --r, --m, --n are not taken as abbreviations of --rmax, --mmax, --nmax
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "coboundary", "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert re.findall(r"--\w+", usage) == ["--rmax", "--mmax", "--nmax", "--out"]
    for argv in (("--r", "1", "--m", "1"), ("--n", "2")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "coboundary", *argv])
        assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    r = run("verify", "coboundary", "--rmax", "1", "--mmax", "1", "--nmax", "2")
    assert r.returncode == 0


def test_verify_einfty_deterministic_across_jobs():
    outs = []
    for jobs in ("1", "2", "1"):
        r = run("verify", "einfty", "--n", "1", "--window", "4", "--smax", "3",
                "--jobs", jobs)
        assert r.returncode == 0
        outs.append(r.stdout)
    assert outs[0] == outs[1] == outs[2]
    assert "0 mismatches: pass" in outs[0]


def test_pool_starts_at_most_one_worker_per_item_and_cpu(monkeypatch, capsys):
    # a stand-in executor records its size and maps in process, so no
    # worker is ever started
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    # the first item runs before the pool, which maps the rest
    assert cli.pool_map(str, range(2), 5000) == ["0", "1"]
    assert cli.pool_map(str, range(3), 5000) == ["0", "1", "2"]
    assert cli.pool_map(str, range(10), 5000) == [str(i) for i in range(10)]
    assert cli.pool_map(str, range(10), 2) == [str(i) for i in range(10)]
    assert cli.pool_map(str, range(10), 1) == [str(i) for i in range(10)]
    assert sizes == [2, 4, 2]
    argv = ["chart", "--stems", "0..7", "--smax", "2"]
    assert cli.main(argv + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert cli.main(argv + ["--jobs", "5000"]) == 0
    # one work item per filtration: three of them at --smax 2
    assert sizes == [2, 4, 2, 2]
    assert capsys.readouterr().out == serial


def test_a_refused_first_cell_starts_no_pool(monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    # the first cell, s = -1, is refused in this process
    assert cli.main(["ext-table", "--n", "2", "--s", "-1..1", "--jobs", "2"]) == 2
    assert "negative filtration s=-1" in capsys.readouterr().err


def test_importing_the_cli_leaves_lazy_modules_unloaded():
    # start-up cost that every command pays: the pool and multiprocessing
    # load only when pool_map fans out, json only when a document is
    # written, and the records need neither dataclasses nor inspect
    lazy = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect", "json")
    r = subprocess.run(
        [sys.executable, "-c",
         f"import sys, cobarext.cli; print([m for m in {lazy!r} if m in sys.modules])"],
        capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


def _out_of_memory(*args, **kwargs):
    raise MemoryError


# (argv, owner, name): a command and a function on its path that is made to
# raise MemoryError; no test allocates real memory
OUT_OF_MEMORY = [
    (("chart", "--stems", "0..47", "--smax", "20", "--jobs", "1"), "charts",
     "integer_stem_chart"),
    (("ext-table", "--n", "3", "--s", "0..0", "--p", "0..0", "--q", "0..0",
      "--invert-u", "--jobs", "1"), "cobar", "ext_dim"),
    (("verify", "einfty", "--n", "3", "--jobs", "1"), "xadic", "verify_einfty"),
]


@pytest.mark.parametrize("argv,owner,name", OUT_OF_MEMORY,
                         ids=[" ".join(case[0][:2]) for case in OUT_OF_MEMORY])
def test_out_of_memory_exits_2_with_one_error_line(monkeypatch, capsys, argv, owner, name):
    monkeypatch.setattr(getattr(cli, owner), name, _out_of_memory)
    assert cli.main(list(argv)) == 2
    out, err = capsys.readouterr()
    command = " ".join(argv[:2] if argv[0] == "verify" else argv[:1])
    assert out == ""
    assert err == f"error: {command} ran out of memory; try a smaller window\n"


JOBS_COMMANDS = [
    ("ext-table", "--n", "1", "--s", "0..0", "--p", "0..0", "--q", "0..0"),
    ("verify", "einfty", "--n", "1", "--window", "0", "--smax", "0"),
    ("chart", "--stems", "0..0", "--smax", "0"),
]


@pytest.mark.parametrize("jobs", ["0", "-2", "x"])
@pytest.mark.parametrize("argv", JOBS_COMMANDS, ids=[a[0] for a in JOBS_COMMANDS])
def test_jobs_must_be_a_positive_integer(capsys, argv, jobs):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv) + ["--jobs", jobs])
    assert exc.value.code == 2
    assert f"need a positive worker count, got '{jobs}'" in capsys.readouterr().err


def test_verify_vanishing_small_window():
    r = run("verify", "vanishing", "--p", "-2..2", "--budget", "-3..-1",
            "--smax", "2")
    assert r.returncode == 0 and "0 failures: pass" in r.stdout


def test_verify_vanishing_rejects_bad_budget():
    r = run("verify", "vanishing", "--p", "0..0", "--budget", "-1..0")
    assert r.returncode == 2


def test_verify_localization_small_window():
    r = run("verify", "localization", "--window", "2", "--smax", "2")
    assert r.returncode == 0 and "0 failures: pass" in r.stdout


@pytest.mark.parametrize("level,err", [
    ("0", "error: level must be a positive integer or 'inf', got '0'\n"),
    ("inf", "error: u cannot be inverted at level inf; sample finite levels\n"),
    ("1", "error: level 1 is sampled twice; sample each level once\n"),
], ids=["0", "inf", "repeated"])
def test_verify_localization_levels_are_usage_checked(capsys, level, err):
    assert cli.main(["verify", "localization", "--n", "1", level]) == 2
    assert capsys.readouterr() == ("", err)


def test_xadic_stage_dump():
    r = run("xadic", "--n", "2", "--t", "0", "--s", "0", "--p", "1", "--q", "-1")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["basis"] == ["u"]
    assert doc["differentials"] == [{"source": "u", "targets": ["a^2 y_0"]}]


def test_chart_tsv_pinned_window():
    outs = [run("chart", "--stems", "0..2", "--smax", "2").stdout for _ in range(3)]
    assert outs[0] == outs[1] == outs[2]
    lines = outs[0].strip().split("\n")
    assert lines[0] == "stem\tfiltration\tsigma\tlabel"
    assert lines[1:] == [
        "0\t0\t0\t1",
        "0\t1\t0\ta y_0",
        "1\t1\t0\ta^2 y_1",
        "2\t2\t0\tu^2 y_0^2",
    ]


def test_chart_json_trivial():
    r = run("chart", "--stems", "0..0", "--smax", "0", "--format", "json")
    doc = json.loads(r.stdout)
    assert doc["dots"] == [{"stem": 0, "filtration": 0, "sigma": 0, "label": "1"}]


def test_chart_svg_overlay(tmp_path):
    args = ("chart", "--stems", "0..7", "--smax", "8", "--conjectural-d2",
            "--format", "svg")
    r1, r2 = run(*args), run(*args, "--jobs", "2")
    assert r1.returncode == 0 and r1.stdout == r2.stdout
    assert "stroke-dasharray" in r1.stdout
    assert "d2: u^4 y_0^2 y_1 → a u^4 y_0^5 (conjectural)" in r1.stdout
    assert "dropped arrow" in r1.stderr and "dropped arrow" not in r1.stdout


def test_chart_tsv_overlay_needs_arrows_out(tmp_path):
    r = run("chart", "--stems", "0..5", "--smax", "5", "--conjectural-d2")
    assert r.returncode == 2
    # refused before any dot is built or any arrow dropped
    assert r.stderr.startswith("error:") and "dropped arrow" not in r.stderr
    arrows = tmp_path / "arrows.tsv"
    r = run("chart", "--stems", "0..5", "--smax", "5", "--conjectural-d2",
            "--arrows-out", str(arrows), "--out", str(tmp_path / "dots.tsv"))
    assert r.returncode == 0
    body = arrows.read_text(encoding="utf-8").strip().split("\n")
    assert body[0] == "src_stem\tsrc_filt\ttgt_stem\ttgt_filt\tpage\tconjectural"
    assert body[1] == "5\t3\t4\t5\t2\ttrue"


def test_chart_sigma_slice():
    r = run("chart", "--sigma", "2", "--stems", "0..1", "--smax", "3")
    assert r.returncode == 0
    assert "1\t1\t2\ty_1" in r.stdout


def test_chart_sigma_slice_reaches_late_born_classes():
    # y_4 sits at (stem 15, s 1, sigma 16) and is born at level 5, the
    # stable level at which the chart reads the cell
    r = run("chart", "--sigma", "16", "--stems", "15..15", "--smax", "1")
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[1:] == ["15\t1\t16\ty_4"]


def test_chart_sigma_zero_at_defaults():
    # stems 0..7, s <= 8, each cell read at its stable level: cobar towers
    # from a fixed level ran past 150 s
    r = run("chart", "--sigma", "0", timeout=60)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == "stem\tfiltration\tsigma\tlabel" and len(lines) > 1


def test_chart_rejects_unknown_format():
    r = run("chart", "--stems", "0..1", "--smax", "1", "--format", "pdf")
    assert r.returncode == 2


def test_etar_examples():
    assert run("etar", "--theta", "2", "1").stdout == "θ/(a^2 u) ⊗ 1 + θ/u^2 ⊗ x\n"
    assert run("etar", "u").stdout == "u + a^2 x\n"
    assert run("etar", "a^3").stdout == "a^3\n"
    assert run("etar", "a^2", "u").stdout == run("etar", "a^2 u").stdout


def test_etar_usage_errors():
    assert run("etar").returncode == 2
    assert run("etar", "--theta", "1", "1", "u").returncode == 2
    assert run("etar", "u^-1").returncode == 2
    assert run("etar", "x").returncode == 2
    assert "unknown factor '[x]'" in run("etar", "u [x]").stderr
    # only canonical spellings, as labels print them
    for spelling in ("u a", "a^1", "a a"):
        assert cli.main(["etar", spelling]) == 2, spelling


def test_bad_range_is_usage_error():
    assert run("ext-table", "--n", "1", "--p", "3..1").returncode == 2
    assert run("ext-table", "--n", "1", "--p", "junk").returncode == 2
    assert run("ext-table", "--n", "0", "--p", "0..0").returncode == 2


NEGATIVE_FILTRATION = [
    ("ext", "--n", "2", "--s", "-1", "--p", "0", "--q", "0"),
    ("limit-ext", "--s", "-1", "--p", "0", "--q", "0"),
    ("xadic", "--n", "2", "--t", "0", "--s", "-1", "--p", "0", "--q", "0"),
    ("chart", "--smax", "-1"),
    ("chart", "--sigma", "0", "--smax", "-1"),
    ("ext-table", "--n", "2", "--s", "-1..1"),
]


@pytest.mark.parametrize("argv", NEGATIVE_FILTRATION,
                         ids=[" ".join(a) for a in NEGATIVE_FILTRATION])
def test_negative_filtration_is_usage_error(argv):
    r = run(*argv)
    assert r.returncode == 2
    assert "error:" in r.stderr and "s=-1" in r.stderr
    assert "Traceback" not in r.stderr


UNWRITABLE_OUT = [
    ("ext", "--n", "2", "--s", "1", "--p", "1", "--q", "1"),
    ("verify", "coboundary", "--rmax", "0", "--mmax", "0", "--nmax", "1"),
]


@pytest.mark.parametrize("argv", UNWRITABLE_OUT, ids=[" ".join(a) for a in UNWRITABLE_OUT])
def test_unwritable_out_is_usage_error(tmp_path, argv):
    r = run(*argv, "--out", str(tmp_path / "missing" / "x.json"))
    assert r.returncode == 2
    assert "error:" in r.stderr
    assert "Traceback" not in r.stderr


def test_limit_ext_deep_cell():
    # levels 1..4; s = 5 at level 3 took about 280 s on cobar towers
    r = run("limit-ext", "--s", "5", "--p", "5", "--q", "-3", timeout=60)
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["levels"] == [1, 2, 3, 4]
    assert doc["stabilized"] is True and doc["limit_dim"] == 0


def test_limit_ext_oversized_koszul_slice_exits_2():
    # the stable level is 18 here, and its Koszul slice s = 8 is too large
    r = run("limit-ext", "--s", "8", "--p", "262146", "--q", "0", timeout=60)
    assert r.returncode == 2
    assert r.stderr == "error: slice s=8 exceeds 200000 monomials\n"


def test_oversized_slice_exits_2():
    r = run("ext", "--n", "inf", "--s", "3", "--p", "200", "--q", "0")
    assert r.returncode == 2
    assert "error: slice s=3 exceeds 200000 monomials" in r.stderr


def test_wide_untruncated_and_long_slices_are_refused_from_counts():
    # 100,000 one-letter words at s = 1, then about 5e9 two-letter words
    r = run("ext", "--n", "inf", "--s", "1", "--p", "100000", "--q", "-100000", timeout=30)
    assert r.returncode == 2
    assert r.stderr == "error: slice s=2 exceeds 200000 monomials\n"
    # a slice of words of length 2999 is refused before any word is built
    r = run("ext", "--n", "2", "--s", "3000", "--p", "0", "--q", "0", "--invert-u", timeout=30)
    assert r.returncode == 2
    assert r.stderr == "error: slice s=2999 exceeds 200000 monomials\n"


def test_high_cut_slice_is_refused_without_listing_the_words_below_the_cut():
    # about 11M words of length 6 at level 4 lie below the cut E >= 85, and
    # listing them took minutes before the refusal of the s = 7 slice
    r = run("ext", "--n", "4", "--s", "6", "--p", "0", "--q", "170", "--invert-u",
            timeout=30)
    assert r.returncode == 2
    assert r.stderr == "error: slice s=7 exceeds 200000 monomials\n"


# SHA-256 of stdout for fast invocations of every subcommand, recorded before
# the CLI was rewired onto the library verifiers; never regenerate them
PINNED_STDOUT = [
    (('verify', 'einfty', '--n', '2', '--window', '5', '--smax', '4', '--jobs', '1'),
     "3ba785ee8169a262fabd193356f0beab75c0916711b0b3f705349394b1685648"),
    (('verify', 'einfty', '--n', 'inf', '--window', '5', '--smax', '4', '--jobs', '2'),
     "6082eceeb2b9d74a008b6f8f96597e549de5aaef40aeb57dea4beaa479aa89fc"),
    (('verify', 'axioms', '--nmax', '2', '--window', '3'),
     "56ffeead95907adf64d223e482dba40fc5ddf8451f3a170a05d4ad7d7b74465a"),
    (('verify', 'axioms'),
     "773e0526a23edd72dec9c55ae589398d0cee98e538b42beae726686c5def3058"),
    (('verify', 'coboundary', '--rmax', '1', '--mmax', '1', '--nmax', '2'),
     "491c4ef03f0c322aa0879d388ecd5473f6d6d21e349b4769eebca996246155fc"),
    (('verify', 'vanishing', '--p', '-2..2', '--budget', '-3..-1', '--smax', '2'),
     "67e2f3a0991cb48fd29221c499fb69f24746c5ec75afffa57d92447498c9c90b"),
    (('verify', 'localization', '--window', '2', '--smax', '2'),
     "d8b15934874f741f5a628dd1fe658658d3f45eba49485e0d7e7fe4bf91c34d1e"),
    (('chart', '--stems', '0..5', '--smax', '5', '--jobs', '1'),
     "b3fb87242585d1d2208499ad0f45942881dc8dc49c7b1b7d96b56a71c5561996"),
    (('chart', '--stems', '-2..7', '--smax', '6', '--format', 'json', '--jobs', '2'),
     "ede5db3a9df723731fc3f211572d322b9ed2ebfc1ca19ea52a830fd2967fac1d"),
    (('chart', '--stems', '0..7', '--smax', '8', '--conjectural-d2', '--format', 'svg', '--jobs', '1'),
     "346b5e225fb9fbf5bc892fe623c6e9d4f7b2112e876bd629cee7c0b662ee0606"),
    (('chart', '--stems', '0..31', '--smax', '16', '--jobs', '2'),
     "0392f4a99c0964883e922c25bf0523285eea787eff31637ea2acf759ea59f88e"),
    (('chart', '--sigma', '2', '--stems', '0..1', '--smax', '3'),
     "bca461420332a4282e89adbd503fc8581c293b626a94ca7c2c14f5d1fbea9911"),
    (('limit-ext', '--s', '1', '--p', '1', '--q', '1'),
     "7c4b7ba327b850835c8b6e2c76b53dd0d73443416015d56c794eb94cbf04c8f2"),
    (('ext-table', '--n', '2', '--s', '0..2', '--p', '-3..3', '--q', '-3..3', '--jobs', '1'),
     "fac135666edf92a54d24a97e1b53c5bada92ef79f76b74aa6f83cb3c581acfb3"),
    (('ext-table', '--n', '2', '--s', '0..5', '--p', '-4..4', '--q', '-4..4', '--invert-u',
      '--jobs', '1'),
     "b8485afb8cd127dfa20df941a42a548b0f92666e8755bd3ef901deae00b29dcf"),
    (('ext-table', '--n', '3', '--s', '0..4', '--p', '-4..4', '--q', '-4..4', '--invert-u',
      '--jobs', '2'),
     "9ced758536cbb833a6a5444cbc44a33848ffffb7ad79f89860c24994833f2ecf"),
    (('xadic', '--n', '2', '--t', '0', '--s', '2', '--p', '3', '--q', '-1'),
     "1ad326b55d946d5a1d0150f419adb2bb19b27cd08435c79d41ff0043b0d0dad4"),
    (('etar', '--theta', '4', '3'),
     "843f3549c693faa2dae2857d0b61bfa055f2b86bff63653f434d223626591fab"),
    (('etar', 'a^2 u^3'),
     "d906de72f66b05408fb1cc555f4951b6cd71b219dc1a6da8a9607ac7ab376804"),
    (('ext', '--n', '3', '--s', '2', '--p', '4', '--q', '0', '--invert-u'),
     "2f2c2f674fcdf9e15974f261e9841c2b81678b18dc6e16f92172a2e3abe44adf"),
]


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT,
                         ids=[" ".join(argv) for argv, _ in PINNED_STDOUT])
def test_pinned_output_bytes(argv, digest):
    r = subprocess.run(BASE + list(argv), capture_output=True)
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(r.stdout).hexdigest() == digest


def _leaf_commands(parser, prefix=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [prefix]
    return [leaf for name, sub in subs[0].choices.items()
            for leaf in _leaf_commands(sub, prefix + (name,))]


def test_every_command_has_a_pinned_argv():
    leaves = _leaf_commands(cli.build_parser())
    assert ("verify", "axioms") in leaves and ("ext",) in leaves
    for leaf in leaves:
        assert any(argv[:len(leaf)] == leaf for argv, _ in PINNED_STDOUT), leaf


def _drop_counit_of_u(alpha, beta, n):
    terms = hopf.coaction(alpha, beta, n)
    return terms - {(0, 1, 0)} if (alpha, beta) == (0, 1) else terms


def _on_result(corrupt):
    """Replace a verifier by one that corrupts the real verifier's result."""
    return lambda real: lambda *a, **k: corrupt(real(*a, **k))


def _fail_first_entry(**changes):
    return _on_result(lambda rep: replace(
        rep, entries=(replace(rep.entries[0], **changes),) + rep.entries[1:]))


def _fail_coboundary(real):
    def check(r, m, n):
        c = real(r, m, n)
        return replace(c, ok=False) if (r, m, n) == (1, 0, 2) else c
    return check


# one failing entry per verifier, so the failure lines and the failure JSON
# are pinned too; SHA-256 of stdout recorded before the reports carried
# their own lines and JSON
FAILING = [
    (('verify', 'axioms', '--nmax', '2', '--window', '2'), hopf, "check_axioms",
     lambda real: functools.partial(real, coaction_fn=_drop_counit_of_u),
     "252c79436fee0ae343b6d5e927e10105754bf7ab4cf1f0ba4c76ca123bdf2943"),
    (('verify', 'coboundary', '--rmax', '1', '--mmax', '1', '--nmax', '2'),
     xadic, "verify_coboundary", _fail_coboundary,
     "b57ae3e11c5f34253482886c3f131b1b8cb2537b37ac38b38dfb166c00f4255f"),
    (('verify', 'einfty', '--n', 'inf', '--window', '2', '--smax', '2', '--jobs', '1'),
     xadic, "verify_einfty",
     _on_result(lambda rep: replace(
         rep, mismatches=(xadic.EinftyMismatch(rep.n, 1, 1, 1, 2, 1),))),
     "f09e90320842b84e69a33e23340b7ef8ae6c1b27daad7053bba5d821929803da"),
    (('verify', 'vanishing', '--p', '-1..1', '--budget', '-2..-1', '--smax', '1'),
     xadic, "verify_vanishing", _fail_first_entry(got_dim=1, got_basis=("a",)),
     "4f2b86f9cd87ea40d0d8cd03c140c78e4ef390bf967c6eda36d8c6736883040e"),
    (('verify', 'localization', '--n', '1', '--window', '1', '--smax', '1'),
     cobar, "verify_localization", _fail_first_entry(shifted_dims=(0, 1)),
     "4d2b298f32fddae98bc8f0bfd24edcf96f44c08de6cdf621c6c3a65270ffcc54"),
    (('limit-ext', '--s', '1', '--p', '1', '--q', '1'), cobar, "limit_ext_report",
     _on_result(lambda rep: replace(rep, stabilized=False, limit_dim=None)),
     "2679eaa0e92720ee71f69ad037999726265c178a52822dad3a3842a77c0b8e14"),
]


@pytest.mark.parametrize("argv,owner,name,wrap,digest", FAILING,
                         ids=[" ".join(case[0]) for case in FAILING])
def test_failure_output_bytes(monkeypatch, capsys, argv, owner, name, wrap, digest):
    monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    assert cli.main(list(argv)) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, out


# windows that hold nothing to check: a gate that checked nothing must fail
EMPTY_WINDOWS = [
    ("verify", "axioms", "--nmax", "0"),
    ("verify", "einfty", "--n", "1", "--window", "-1"),
    ("verify", "vanishing", "--smax", "-1"),
    ("verify", "localization", "--smax", "-1"),
    ("verify", "coboundary", "--rmax", "-1"),
]


@pytest.mark.parametrize("argv", EMPTY_WINDOWS, ids=[" ".join(a) for a in EMPTY_WINDOWS])
def test_empty_window_fails(capsys, argv):
    assert cli.main(list(argv)) == 1
    out = capsys.readouterr().out
    assert json.loads(out[out.index("{"):])["ok"] is False
    assert "pass" not in out
