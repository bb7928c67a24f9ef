import hashlib
import json
import subprocess
import sys

import pytest

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


def test_limit_ext_not_stabilized_exit_1():
    r = run("limit-ext", "--s", "1", "--p", "2", "--q", "0",
            "--start", "1", "--depth", "2")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["stabilized"] is False and doc["limit_dim"] is None


def test_verify_axioms():
    r = run("verify", "axioms", "--nmax", "2", "--window", "3")
    assert r.returncode == 0
    assert "comodule coassociativity" in r.stdout
    assert json.loads(r.stdout.split("\n", 14)[-1])["ok"] is True


def test_verify_coboundary_single_and_sweep():
    r = run("verify", "coboundary", "--r", "1", "--m", "1", "--n", "2")
    assert r.returncode == 0 and "pass" in r.stdout
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
    arrows = tmp_path / "arrows.tsv"
    r = run("chart", "--stems", "0..5", "--smax", "5", "--conjectural-d2",
            "--arrows-out", str(arrows), "--out", str(tmp_path / "dots.tsv"))
    assert r.returncode == 0
    body = arrows.read_text(encoding="utf-8").strip().split("\n")
    assert body[0] == "src_stem\tsrc_filt\ttgt_stem\ttgt_filt\tpage\tconjectural"
    assert body[1] == "5\t3\t4\t5\t2\ttrue"


def test_chart_sigma_slice():
    r = run("chart", "--sigma", "2", "--stems", "0..1", "--smax", "3",
            "--n", "4")
    assert r.returncode == 0
    assert "1\t1\t2\ty_1" in r.stdout


def test_chart_sigma_zero_at_defaults():
    # stems 0..7, s <= 8, levels up to 6: the cobar towers ran past 150 s
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


def test_bad_range_is_usage_error():
    assert run("ext-table", "--n", "1", "--p", "3..1").returncode == 2
    assert run("ext-table", "--n", "1", "--p", "junk").returncode == 2
    assert run("ext-table", "--n", "0", "--p", "0..0").returncode == 2


def test_limit_ext_deep_cell():
    # s = 5 at level 3 took about 280 s on cobar towers
    r = run("limit-ext", "--s", "5", "--p", "5", "--q", "-3", "--start", "1",
            "--depth", "2", timeout=60)
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["stabilized"] is True and doc["limit_dim"] == 0


def test_limit_ext_oversized_koszul_slice_exits_2():
    # C(24, 7) Koszul chains at level 18, s = 7
    r = run("limit-ext", "--s", "8", "--p", "0", "--q", "0", "--start", "18",
            "--depth", "2", timeout=60)
    assert r.returncode == 2
    assert "error: slice s=7 exceeds 200000 monomials" in r.stderr


def test_oversized_slice_exits_2():
    r = run("ext", "--n", "inf", "--s", "3", "--p", "200", "--q", "0")
    assert r.returncode == 2
    assert "error: slice s=3 exceeds 200000 monomials" in r.stderr


# SHA-256 of stdout for fast invocations of every subcommand, recorded before
# the CLI was rewired onto the library verifiers; never regenerate them
PINNED_STDOUT = [
    (('verify', 'einfty', '--n', '2', '--window', '5', '--smax', '4', '--jobs', '1'),
     "3ba785ee8169a262fabd193356f0beab75c0916711b0b3f705349394b1685648"),
    (('verify', 'einfty', '--n', 'inf', '--window', '5', '--smax', '4', '--jobs', '2'),
     "6082eceeb2b9d74a008b6f8f96597e549de5aaef40aeb57dea4beaa479aa89fc"),
    (('verify', 'axioms', '--nmax', '2', '--window', '3'),
     "56ffeead95907adf64d223e482dba40fc5ddf8451f3a170a05d4ad7d7b74465a"),
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
    (('chart', '--sigma', '2', '--stems', '0..1', '--smax', '3', '--n', '4'),
     "bca461420332a4282e89adbd503fc8581c293b626a94ca7c2c14f5d1fbea9911"),
    (('limit-ext', '--s', '1', '--p', '1', '--q', '1'),
     "7c4b7ba327b850835c8b6e2c76b53dd0d73443416015d56c794eb94cbf04c8f2"),
    (('ext-table', '--n', '2', '--s', '0..2', '--p', '-3..3', '--q', '-3..3', '--jobs', '1'),
     "fac135666edf92a54d24a97e1b53c5bada92ef79f76b74aa6f83cb3c581acfb3"),
    (('xadic', '--n', '2', '--t', '0', '--s', '2', '--p', '3', '--q', '-1'),
     "1ad326b55d946d5a1d0150f419adb2bb19b27cd08435c79d41ff0043b0d0dad4"),
    (('etar', '--theta', '4', '3'),
     "843f3549c693faa2dae2857d0b61bfa055f2b86bff63653f434d223626591fab"),
    (('etar', 'a^2 u^3'),
     "d906de72f66b05408fb1cc555f4951b6cd71b219dc1a6da8a9607ac7ab376804"),
]


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT,
                         ids=[" ".join(argv) for argv, _ in PINNED_STDOUT])
def test_pinned_output_bytes(argv, digest):
    r = subprocess.run(BASE + list(argv), capture_output=True)
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(r.stdout).hexdigest() == digest
