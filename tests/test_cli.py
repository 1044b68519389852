"""CLI behavior: formats, round trips, exit codes, file emission."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path, PurePosixPath

import pytest

from krawtchouk import cli, generalized, hadamard, sympow
from krawtchouk.matrix import Matrix

REPORT_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["suite", "n_max", "pass", "failures"],
        "properties": {
            "suite": {"type": "string"},
            "n_max": {"type": "integer"},
            "pass": {"type": "boolean"},
            "failures": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["n", "location", "lhs", "rhs"],
                },
            },
        },
    },
}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_csv(capsys):
    code, out, _ = run_cli(capsys, "gen", "krawtchouk", "--n", "3",
                           "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == \
        ["1,1,1,1", "3,1,-1,-3", "3,-1,-1,3", "1,-1,1,-1"]


def test_gen_kac_pretty(capsys):
    code, out, _ = run_cli(capsys, "gen", "kac", "--n", "3")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert rows[1] == ["3", "0", "2", "0"]


def test_gen_phase(capsys):
    # pi/3 prints imaginary parts with exponents, such as 3.885780586188048e-16
    for n, text, phi in ((2, "pi/2", math.pi / 2), (3, "pi/3", math.pi / 3)):
        code, out, _ = run_cli(capsys, "gen", "phase", "--n", str(n),
                               "--phi", text, "--format", "json")
        assert code == 0
        mat = Matrix.from_json(out)
        assert mat == generalized.k_phase(n, phi)
        assert mat.to_json() == out.strip()


@pytest.mark.parametrize("kind,extra", [
    ("krawtchouk", []),
    ("symmetric", []),
    ("kac", []),
    ("lambda", []),
    ("binomial", []),
    ("sylvester", []),
    ("general", []),
    ("general", ["--alpha", "2", "--beta", "-3"]),
    ("phase", ["--phi", "pi/2"]),
    ("phase", ["--phi", "pi"]),
    ("phase", ["--phi", "0.7"]),
])
def test_gen_json_round_trip(capsys, kind, extra):
    code, out, _ = run_cli(capsys, "gen", kind, "--n", "4",
                           "--format", "json", *extra)
    assert code == 0
    mat = Matrix.from_json(out)
    assert Matrix.from_json(mat.to_json()) == mat


def test_gen_bounds(capsys):
    code, _, err = run_cli(capsys, "gen", "sylvester", "--n", "20")
    assert code == 2
    assert "bound" in err
    code, _, err = run_cli(capsys, "gen", "krawtchouk", "--n", "70",
                           "--format", "csv")
    assert code == 0  # works, but warns about size
    assert "warning" in err


def test_gen_sylvester_refuses_before_building(capsys, monkeypatch):
    # 4^14 entries would take about 5 GB; the refusal must come first
    def never(*args):
        raise AssertionError("kron_power called above the entry bound")

    monkeypatch.setattr(sympow, "kron_power", never)
    for n in (sympow.KRON_BOUND + 1, 14):
        code, out, err = run_cli(capsys, "gen", "sylvester", "--n", str(n))
        assert code == 2 and out == ""
        assert "bound" in err and str(sympow.KRON_ENTRY_BOUND) in err
    assert 4 ** sympow.KRON_BOUND <= sympow.KRON_ENTRY_BOUND \
        < 4 ** (sympow.KRON_BOUND + 1)


def test_verify_all_small(capsys):
    code, out, err = run_cli(capsys, "verify", "--suites", "all",
                             "--n-max", "4")
    assert code == 0
    reports = json.loads(out)
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(reports, REPORT_SCHEMA)
    names = [r["suite"] for r in reports]
    assert names == sorted(names)
    assert all(r["pass"] for r in reports)


def test_verify_single_suite_and_determinism(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--suites", "master",
                             "--n-max", "8")
    code2, out2, _ = run_cli(capsys, "verify", "--suites", "master",
                             "--n-max", "8")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)[0]
    assert report["suite"] == "master"
    assert report["n_max"] == 8


def test_verify_reports_a_wrong_shape_as_a_failed_cell(capsys, monkeypatch):
    # a construction of the wrong order is a named, unlocated failure
    # (exit 1), not a usage error
    real = hadamard.k_pyramid
    monkeypatch.setattr(hadamard, "k_pyramid", lambda n: real(n + 1))
    code, out, _ = run_cli(capsys, "verify", "--suites",
                           "construction-equivalence", "--n-max", "3")
    assert code == 1
    [report] = json.loads(out)
    assert report["failures"][0] == {
        "n": 0, "check": "pyramid recurrence = K", "location": None,
        "lhs": "(2, 2)", "rhs": "(1, 1)"}
    assert [f["n"] for f in report["failures"]] == [0, 1, 2, 3]


def test_verify_seeded_macwilliams(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suites", "macwilliams",
                           "--n-max", "10", "--seed", "42")
    assert code == 0
    assert json.loads(out)[0]["pass"]


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suites", "bogus")
    assert code == 2
    assert "unknown suites" in err


def test_verify_refuses_a_negative_order(capsys):
    code, out, err = run_cli(capsys, "verify", "--suites", "master",
                             "--n-max", "-5")
    assert code == 2
    assert out == ""
    assert "n_max must be non-negative" in err


def test_pathsum_command(capsys):
    code, out, _ = run_cli(capsys, "pathsum", "--n", "4", "--p", "3",
                           "--q", "2")
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run_cli(capsys, "pathsum", "--n", "3", "--p", "1",
                           "--q", "2")
    assert out.strip() == "-1"


def test_pathsum_command_refuses_above_word_bound(capsys):
    code, out, err = run_cli(capsys, "pathsum", "--n", "30", "--p", "15",
                             "--q", "2")
    assert code == 2 and out == ""
    assert "enumeration bound" in err


def test_transform_command(capsys):
    code, out, _ = run_cli(capsys, "transform", "--n", "3",
                           "--covector", "8,4,2,1")
    assert code == 0
    assert out.strip() == "27,9,3,1"
    code, out, _ = run_cli(capsys, "transform", "--n", "3",
                           "--vector", "1,1,0,0")
    assert out.strip() == "2,4,2,0"
    code, _, err = run_cli(capsys, "transform", "--n", "3")
    assert code == 2


def test_snake_command(tmp_path, capsys):
    outdir = tmp_path / "figs"
    code, out, _ = run_cli(capsys, "snake", "--n", "5", "--phi", "pi/2",
                           "--out", str(outdir))
    assert code == 0
    csvs = sorted(outdir.glob("*.csv"))
    assert len(csvs) == 5
    for path in csvs:
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 6  # n + 1 points per column
        for line in lines:
            float(line.split(",")[0]), float(line.split(",")[1])
    svg = (outdir / "snake_n5.svg").read_text()
    assert svg.count("<polyline") == 5
    assert "viewBox" in svg


def test_a_negative_phase_may_follow_phi_as_its_own_argument(tmp_path, capsys):
    for command in (["gen", "phase", "--n", "3", "--format", "csv"],
                    ["snake", "--n", "3", "--out", str(tmp_path)]):
        outputs = []
        for phi in (["--phi", "-pi/2"], ["--phi=-pi/2"]):
            code, out, err = run_cli(capsys, *command, *phi)
            assert code == 0, err
            files = {p.name: p.read_text() for p in tmp_path.iterdir()}
            outputs.append((out, files))
        assert outputs[0] == outputs[1]


def test_snake_builds_the_phase_matrix_once(tmp_path, capsys, monkeypatch):
    calls = []
    k_phase = generalized.k_phase

    def counted(n, phi):
        calls.append((n, phi))
        return k_phase(n, phi)

    monkeypatch.setattr(generalized, "k_phase", counted)
    code, out, _ = run_cli(capsys, "snake", "--n", "7", "--phi", "0.7",
                           "--out", str(tmp_path / "figs"))
    assert code == 0
    assert len(out.splitlines()) == 8  # 7 CSV files and the SVG
    assert calls == [(7, 0.7)]


@pytest.mark.parametrize("out", ["figs", "figs/", "./figs", "figs//sub/./",
                                 ".", "./", "", "{tmp}//abs/"])
def test_snake_prints_its_paths_as_pathlib_spells_them(tmp_path, capsys,
                                                       monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    out = out.format(tmp=tmp_path)
    code, printed, _ = run_cli(capsys, "snake", "--n", "2", "--out", out)
    assert code == 0
    names = ["snake_n2_col1.csv", "snake_n2_col2.csv", "snake_n2.svg"]
    assert printed.splitlines() == [str(Path(out) / name) for name in names]
    assert all((Path(out) / name).is_file() for name in names)


@pytest.mark.parametrize("out", ["//net", "///net", "/", "a/../b", "..",
                                 "x/.", ".hidden"])
def test_snake_path_spelling_matches_pathlib(out):
    assert cli._out_path(out, "f.svg") == str(PurePosixPath(out) / "f.svg")


def test_snake_refuses_order_zero_before_writing(tmp_path, capsys):
    outdir = tmp_path / "figs"
    for n in ("0", "-1"):
        code, out, err = run_cli(capsys, "snake", "--n", n, "--out",
                                 str(outdir))
        assert code == 2 and out == ""
        assert "order" in err
        assert not outdir.exists()


def test_macwilliams_command(capsys):
    code, out, _ = run_cli(capsys, "macwilliams", "--n", "3",
                           "--basis", "110")
    assert code == 0
    assert "2*[1, 1, 1, 1] = K*[1, 0, 1, 0]" in out
    assert "ok" in out


def test_pyramid_command(capsys):
    code, out, _ = run_cli(capsys, "pyramid", "--direction", "west-down",
                           "--depth", "0", "--rows", "6", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[-1] == "1,5,10,10,5,1"
    code, _, err = run_cli(capsys, "pyramid", "--direction", "west-down",
                           "--depth", "0", "--rows", "0")
    assert code == 2


def test_phi_parsing():
    assert cli.parse_phi("pi") == math.pi
    assert cli.parse_phi("pi/2") == math.pi / 2
    assert cli.parse_phi("3pi/4") == pytest.approx(3 * math.pi / 4)
    assert cli.parse_phi("-pi/2") == -math.pi / 2
    assert cli.parse_phi("0.75") == 0.75
    with pytest.raises(ValueError):
        cli.parse_phi("pi2pi")


@pytest.mark.parametrize("text, why", [
    ("pi/0", "divides by zero"), ("-3pi/0.0", "divides by zero"),
    ("nan", "not finite"), ("inf", "not finite"), ("-inf", "not finite"),
    ("infpi", "not finite"), ("pi/nan", "not finite"), ("1e400", "not finite"),
])
def test_phi_parsing_refuses_bad_angles(text, why):
    with pytest.raises(ValueError, match=why) as info:
        cli.parse_phi(text)
    assert repr(text) in str(info.value)


@pytest.mark.parametrize("phi", ["pi/0", "nan", "inf"])
def test_bad_angles_are_usage_errors(tmp_path, capsys, phi):
    code, out, err = run_cli(capsys, "gen", "phase", "--n", "2",
                             f"--phi={phi}")
    assert (code, out) == (2, "")
    assert repr(phi) in err
    outdir = tmp_path / "snakes"
    code, out, err = run_cli(capsys, "snake", "--n", "3", f"--phi={phi}",
                             "--out", str(outdir))
    assert (code, out) == (2, "")
    assert repr(phi) in err
    assert not outdir.exists()


@pytest.mark.parametrize("flag", ["--vector", "--covector"])
def test_transform_refuses_a_zero_denominator(capsys, flag):
    code, out, err = run_cli(capsys, "transform", "--n", "2",
                             flag, "1/0,1,1")
    assert code == 2
    assert out == ""
    assert err.strip() == "zero denominator in '1/0'"


def test_transform_rejects_bad_length(capsys):
    code, _, err = run_cli(capsys, "transform", "--n", "3",
                           "--covector", "1,2")
    assert code == 2
    assert "length" in err


def test_import_does_not_load_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "import sys, krawtchouk; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
