import io
import json
import os
import subprocess
import sys
import time
from collections.abc import Iterator
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcove import chareval, cli, conventions, identities, levelshift, rootdata, verify, \
    verlinde, weyl
from alcove.rootdata import TorusPoint, from_name


def run(capsys, *args):
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def test_roots_g2(capsys):
    code, out, _ = run(capsys, "roots", "--series", "G", "--rank", "2")
    assert code == 0
    data = json.loads(out)
    assert data["dual_coxeter"] == 4
    assert data["weyl_order"] == 12
    assert data["schema"] == "alcove/roots/v1"


def test_roots_a1_single_positive_root(capsys):
    code, out, _ = run(capsys, "roots", "--series", "A", "--rank", "1")
    assert code == 0
    assert len(json.loads(out)["positive_roots"]) == 1


def test_roots_with_elements(capsys):
    code, out, _ = run(capsys, "roots", "--series", "A", "--rank", "2", "--elements")
    data = json.loads(out)
    assert len(data["weyl_elements"]) == 6
    assert sum(e["sign"] for e in data["weyl_elements"]) == 0


def test_roots_elements_stream_without_listing_the_weyl_group(capsys, monkeypatch):
    rs = from_name("F4")
    expected = [{"word": list(w.word), "sign": w.sign, "action": [list(row) for row in w.action]}
                for w in weyl.enumerate_weyl(rs)]

    def refuse(*args):
        raise AssertionError("roots --elements listed W")

    monkeypatch.setattr(weyl, "enumerate_weyl", refuse)
    monkeypatch.setattr(weyl, "_enumerate_cached", refuse)
    code, out, _ = run(capsys, "roots", "--series", "F", "--rank", "4", "--elements")
    assert code == 0
    assert json.loads(out)["weyl_elements"] == expected


def test_invalid_series_exits_2(capsys):
    code, out, err = run(capsys, "roots", "--series", "H", "--rank", "2")
    assert code == 2
    assert "invalid" in err


def test_faces_output(capsys):
    code, out, _ = run(capsys, "faces", "--series", "B", "--rank", "2")
    assert code == 0
    data = json.loads(out)
    assert len(data["faces"]) == 7
    wall_rows = [r for r in data["faces"] if r["on_affine_wall"]]
    assert all(r["isotropy_order"] >= 1 for r in wall_rows)


def test_char_command(capsys):
    code, out, _ = run(capsys, "char", "--series", "A", "--rank", "1",
                       "--weight", "1", "--point", "1/3")
    assert code == 0
    data = json.loads(out)
    assert abs(data["re"] - 1.0) < 1e-9 and abs(data["im"]) < 1e-9


def test_char_singular_point_is_config_error(capsys):
    code, _, err = run(capsys, "char", "--series", "A", "--rank", "1",
                       "--weight", "1", "--point", "2")  # (alpha|x) = 2: singular
    assert code == 2
    assert "singular" in err


def test_grid_trivial_row_is_ones(capsys):
    code, out, _ = run(capsys, "grid", "--series", "A", "--rank", "1", "--level", "1")
    data = json.loads(out)
    assert data["schema"] == "alcove/grid/v1"
    trivial = next(r for r in data["rows"] if r["weight"] == "0")
    assert all(abs(v["re"] - 1) < 1e-9 and abs(v["im"]) < 1e-9 for v in trivial["values"])
    assert len(data["points"]) == 2


def test_grid_csv_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for target in (a, b):
        code = cli.main(["grid", "--series", "A", "--rank", "2", "--level", "1",
                         "--format", "csv", "--out", str(target)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_fusion_pair(capsys):
    code, out, _ = run(capsys, "fusion", "--series", "A", "--rank", "1",
                       "--level", "2", "--pair", "1", "1")
    assert code == 0
    data = json.loads(out)
    triples = {(t["a"], t["b"], t["c"]): t["n"] for t in data["triples"]}
    assert triples == {("1w0", "1w0", "0"): 1, ("1w0", "1w0", "2w0"): 1}


def test_fusion_table_sorted(capsys):
    code, out, _ = run(capsys, "fusion", "--series", "A", "--rank", "2", "--level", "1")
    data = json.loads(out)
    keys = [(t["a"], t["b"], t["c"]) for t in data["triples"]]
    assert keys == sorted(keys)
    assert data["max_rounding_residual"] < 1e-6


def test_verify_default_passes(capsys):
    code, out, _ = run(capsys, "verify", "--samples", "5", "--level", "1")
    assert code == 0
    data = json.loads(out)
    assert all(r["passed"] for r in data["reports"])
    systems = {r["system"] for r in data["reports"]}
    assert systems == {"A1", "A2"}


def test_verify_wrong_grid_mode_fails(capsys):
    code, out, _ = run(capsys, "verify", "--samples", "3", "--level", "1",
                       "--grid", "full")
    assert code == 1
    data = json.loads(out)
    bad = [r for r in data["reports"] if not r["passed"]]
    assert bad and all(r["name"] == "orthogonality" for r in bad)


def test_verify_single_system(capsys):
    code, out, _ = run(capsys, "verify", "--series", "B", "--rank", "2",
                       "--samples", "3", "--level", "1")
    assert code == 0
    assert {r["system"] for r in json.loads(out)["reports"]} == {"B2"}


def test_verify_overtight_tolerance_fails(capsys):
    code, out, _ = run(capsys, "verify", "--samples", "3", "--level", "1",
                       "--tolerance", "1e-15")
    assert code == 1


def test_verify_needs_both_series_and_rank(capsys):
    code, _, err = run(capsys, "verify", "--series", "A")
    assert code == 2


@pytest.mark.parametrize("tolerance", ["-1", "0", "nan", "inf"])
def test_negative_tolerance_rejected(capsys, tolerance):
    code, out, err = run(capsys, "verify", "--tolerance", tolerance)
    assert code == 2 and out == ""
    assert err == "error: tolerance must be positive and finite\n"


@pytest.mark.parametrize("args,expected", [
    (["char", "--series", "A", "--rank", "1", "--weight", "1", "--point", "1/0"], ""),
    (["char", "--series", "A", "--rank", "1", "--weight", "x", "--point", "1/3"], ""),
    (["char", "--series", "A", "--rank", "1", "--weight", "-1", "--point", "1/3"], ""),
    (["char", "--series", "A", "--rank", "1", "--weight", "1.5", "--point", "1/3"],
     "weight '1.5' needs integer coordinates"),
    (["fusion", "--series", "A", "--rank", "2", "--level", "2", "--pair", "1,x", "0,0"],
     "weight '1,x' needs integer coordinates"),
    (["fusion", "--series", "A", "--rank", "1", "--level", "1", "--pair", "5", "0"], ""),
    (["grid", "--series", "E", "--rank", "8"], ""),
    (["roots", "--series", "A", "--rank", "1", "--level", "-1"], ""),
    (["grid", "--series", "A", "--rank", "1", "--level", "-1"], ""),
    (["roots", "--series", "A", "--rank", "1", "--out", "/nonexistent/x.json"], ""),
    (["roots", "--series", "E", "--rank", "7", "--elements"], ""),
    (["faces", "--series", "A", "--rank", "10"], ""),
    (["verify", "--series", "A", "--rank", "1", "--level", "100", "--samples", "1"], ""),
    (["roots", "--series", "A", "--rank", "300"], ""),
    (["bogus", "--series", "A", "--rank", "1"], "invalid choice: 'bogus'"),
    (["roots", "--series", "A"], "the following arguments are required: --rank"),
    (["roots", "--series", "A", "--rank", "x"], "argument --rank: "),
    (["fusion", "--series", "A", "--rank", "2", "--level", "2", "--pair", "1,0"],
     "argument --pair: expected 2"),
    (["roots", "--series", "A", "--rank", "1", "--lev", "2"], "unrecognized arguments: --lev"),
], ids=["point-1/0", "weight-x", "weight-negative", "weight-not-an-int", "pair-not-an-int",
        "pair-above-level", "grid-E8-cap",
        "roots-level-negative", "grid-level-negative", "out-unwritable", "roots-E7-elements",
        "faces-A10-cap", "verify-fusion-cap", "roots-A300-rank-cap", "unknown-subcommand",
        "missing-rank", "rank-not-an-int", "pair-one-value", "flag-abbreviation"])
def test_bad_input_exits_2_with_one_line_error(capsys, monkeypatch, args, expected):
    def suite(rs, settings):
        raise AssertionError("a verify suite ran before the input was refused")

    monkeypatch.setattr(verify, "SUITES", (suite,))
    assert_one_line_error(capsys, args, expected)


def assert_one_line_error(capsys, args, expected=""):
    """The command line exits 2 with empty stdout and one `error: ` line holding expected."""
    code, out, err = run(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and expected in err


@pytest.mark.parametrize("args", [
    ["grid", "--series", "A", "--rank", "1", "--seed", "1"],
    ["fusion", "--series", "A", "--rank", "1", "--samples", "3"],
    ["char", "--series", "A", "--rank", "1", "--weight", "1", "--point", "1/3",
     "--tolerance", "1e-9"],
], ids=["grid-seed", "fusion-samples", "char-tolerance"])
def test_verify_only_flags_rejected_elsewhere(capsys, args):
    assert_one_line_error(capsys, args, "unrecognized arguments")


@pytest.mark.parametrize("args", [
    ["faces", "--series", "B", "--rank", "2", "--level", "7"],
    ["faces", "--series", "B", "--rank", "2", "--grid", "full"],
    ["char", "--series", "A", "--rank", "1", "--weight", "1", "--point", "1/3", "--level", "2"],
    ["char", "--series", "A", "--rank", "1", "--weight", "1", "--point", "1/3",
     "--grid", "full"],
    ["roots", "--series", "A", "--rank", "1", "--grid", "full"],
], ids=["faces-level", "faces-grid", "char-level", "char-grid", "roots-grid"])
def test_unread_flags_rejected(capsys, args):
    assert_one_line_error(capsys, args, "unrecognized arguments")


@pytest.mark.parametrize("args", [
    ["roots", "--series", "A", "--rank", "1"],
    ["faces", "--series", "A", "--rank", "1"],
    ["char", "--series", "A", "--rank", "1", "--weight", "1", "--point", "1/3"],
    ["verify", "--series", "A", "--rank", "1"],
], ids=["roots", "faces", "char", "verify"])
def test_csv_rejected_without_a_csv_form(capsys, args):
    assert_one_line_error(capsys, args + ["--format", "csv"], "invalid choice: 'csv'")


def test_help_lists_the_flag_table_and_flags_take_either_form(capsys):
    code, out, err = run(capsys, "fusion", "--series", "A", "--help")
    assert (code, err) == (0, "")
    lines = {line.split()[0]: line.split() for line in out.splitlines()}
    for command, (_, flags) in cli.COMMANDS.items():
        assert set(flags) <= {word.strip("[]") for word in lines[command]}
    spaced = run(capsys, "roots", "--series", "A", "--rank", "1", "--level", "2")
    assert spaced[0] == 0
    assert list(json.loads(spaced[1])["lattice_index_at_level"]) == ["0", "1", "2"]
    assert run(capsys, "roots", "--series=A", "--rank=1", "--level=2") == spaced


def test_closed_stdout_ends_the_job_quietly_with_141():
    """A reader that stops after one line, like `| head -1`: no traceback, exit 128 + SIGPIPE."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "alcove.cli", "roots", "--series", "F", "--rank", "4",
            "--elements"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()  # the JSON runs to megabytes: a write after the pipe buffer fails
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (141, b"")


def test_fusion_csv_has_one_row_per_pair(capsys, monkeypatch):
    code, out, _ = run(capsys, "fusion", "--series", "A", "--rank", "1", "--level", "1",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["a,b,0,1w0", "0,0,1,0", "0,1w0,0,1", "1w0,0,0,1", "1w0,1w0,1,0"]
    code, out, _ = run(capsys, "fusion", "--series", "A", "--rank", "1", "--level", "2",
                       "--pair", "1", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["a,b,0,1w0,2w0", "1w0,1w0,1,0,1"]
    # the CSV slab equals the JSON triples, with zeros filled in
    code, out, _ = run(capsys, "fusion", "--series", "A", "--rank", "2", "--level", "2")
    triples = {(t["a"], t["b"], t["c"]): t["n"] for t in json.loads(out)["triples"]}
    code, out, _ = run(capsys, "fusion", "--series", "A", "--rank", "2", "--level", "2",
                       "--format", "csv")
    header, *rows = [line.split(",") for line in out.splitlines()]
    assert code == 0 and header[:2] == ["a", "b"] and len(rows) == len(header[2:]) ** 2
    assert {(a, b, c): int(n) for a, b, *ns in rows for c, n in zip(header[2:], ns)
            if n != "0"} == triples
    # neither form lists the weights again: the CSV channels are the table's weights
    for module in (rootdata, conventions, chareval):
        monkeypatch.setattr(module, "weights_at_level", None)
    csv = out
    code, out, _ = run(capsys, "fusion", "--series", "A", "--rank", "2", "--level", "2")
    assert code == 0 and {(t["a"], t["b"], t["c"]): t["n"]
                          for t in json.loads(out)["triples"]} == triples
    assert run(capsys, "fusion", "--series", "A", "--rank", "2", "--level", "2",
               "--format", "csv") == (0, csv, "")


def test_inconsistent_fusion_exits_3(capsys, monkeypatch):
    rs = from_name("A2")
    table = conventions.character_table(rs, 2)
    for factor, message in [(-1, "error: negative fusion coefficient at "),
                            (0.5, "error: rounding residual ")]:
        skewed = table._replace(duals=[[z * factor for z in dual] for dual in table.duals])
        monkeypatch.setattr(conventions, "character_table", lambda *args: skewed)
        for extra in [[], ["--pair", "0,0", "1,0"]]:
            code, out, err = run(capsys, "fusion", "--series", "A", "--rank", "2",
                                 "--level", "2", *extra)
            assert code == 3 and out == "" and err.startswith(message)


def test_roots_e7_order_is_null_above_the_cap(capsys):
    code, out, _ = run(capsys, "roots", "--series", "E", "--rank", "7")
    assert code == 0
    assert json.loads(out)["weyl_order"] is None


def test_verify_reports_suites_in_registry_order(capsys):
    code, out, _ = run(capsys, "verify", "--series", "A", "--rank", "1",
                       "--samples", "3", "--level", "2")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["name"] for r in reports] == [
        "fundamental_formula", "subset_identity", "orthogonality", "orthogonality",
        "rho_shift", "lattice_phase", "multiplicity_inversion", "fusion",
        "character_consistency", "regularity", "levelshift"]
    assert [r["detail"]["k"] for r in reports if r["name"] == "orthogonality"] == [1, 2]


def test_verify_level_zero_runs_every_suite(capsys):
    """Level 0 keeps the level-1 suite list: orthogonality reports the 1x1 table at k = 0."""
    reports = {}
    for level in ("0", "1"):
        code, out, _ = run(capsys, "verify", "--series", "A", "--rank", "1",
                           "--samples", "3", "--level", level)
        assert code == 0
        reports[level] = json.loads(out)["reports"]
    assert [r["name"] for r in reports["0"]] == [r["name"] for r in reports["1"]]
    (ortho,) = [r for r in reports["0"] if r["name"] == "orthogonality"]
    assert ortho["detail"]["k"] == 0 and ortho["samples"] == 1 and ortho["passed"]


def test_library_run_matches_cli_reports(capsys):
    code, out, _ = run(capsys, "verify", "--series", "A", "--rank", "1",
                       "--samples", "3", "--level", "1")
    reports = verify.run(from_name("A1"), verify.Settings(level=1, samples=3))
    assert json.loads(out)["reports"] == [r.to_json_dict() for r in reports]
    assert code == 0 and all(r.passed for r in reports)
    args = cli.parse_args(["verify"])
    assert (args.seed, args.samples) == (2024, 100)
    assert (verify.Settings().seed, verify.Settings().samples) == (2024, 100)


def test_cli_import_skips_dataclasses_and_inspect():
    """Start-up cost: `import alcove.cli` loads no dataclasses, inspect or argparse machinery."""
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (f"import sys; sys.path.insert(0, {src!r}); import alcove.cli; "
             "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext', 'locale'} "
             "& set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_cli_import_skips_the_json_package():
    """Start-up cost: the writer takes json's C escaper without importing json (about 2 ms)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (f"import sys; sys.path.insert(0, {src!r}); import alcove.cli; "
             "print(sorted(m for m in sys.modules if m == 'json' or m.startswith('json.')))")
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


CLI_CORE = ["alcove", "alcove.cli", "alcove.rootdata", "alcove.weyl"]
FRACTIONS = ["decimal", "fractions", "numbers"]  # fractions imports the other two


@pytest.mark.parametrize("argv,layers", [
    (None, []),
    (["roots", "--series", "A", "--rank", "1"], []),
    (["faces", "--series", "A", "--rank", "2"], ["affine", "intlinalg", "stabilizers"]),
    (["char", "--series", "A", "--rank", "1", "--weight", "1", "--point", "1/3"], ["chareval"]),
    (["grid", "--series", "A", "--rank", "1"], ["chareval", "conventions"]),
    (["fusion", "--series", "A", "--rank", "1"], ["chareval", "conventions", "verlinde"]),
    (["verify", "--series", "A", "--rank", "1", "--samples", "2"],
     ["affine", "chareval", "conventions", "identities", "intlinalg", "levelshift", "stabilizers",
      "verify", "verlinde"]),
    (["roots", "--series", "F", "--rank", "4", "--level", "2"], []),
    (["grid", "--series", "G", "--rank", "2", "--level", "2"], ["chareval", "conventions"]),
    (["grid", "--series", "B", "--rank", "2", "--grid", "full"], ["chareval", "conventions", "intlinalg"]),
    (["fusion", "--series", "D", "--rank", "5", "--level", "1"], ["chareval", "conventions", "verlinde"]),
    (["fusion", "--series", "A", "--rank", "2", "--level", "2", "--pair", "1,0", "0,1"],
     ["chareval", "conventions", "verlinde"]),
])
def test_each_subcommand_loads_only_the_layers_it_runs(argv, layers, tmp_path):
    """Start-up cost: every job compiles what it imports, so a subcommand imports its own layers.

    The root datum, the torus points and the shifted grid are integers: only
    char's rational --point, faces, verify and the full grid load fractions.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    out = ["--out", str(tmp_path / "out.json")]
    run_it = "" if argv is None else f"assert cli.main({argv + out!r}) == 0; "
    probe = (f"import sys; sys.path.insert(0, {src!r}); from alcove import cli; {run_it}"
             "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'alcove')); "
             f"print(sorted(set({FRACTIONS!r}) & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True)
    loaded = sorted(CLI_CORE + [f"alcove.{name}" for name in layers])
    rational = argv is not None and (argv[0] in ("char", "faces", "verify") or "full" in argv)
    expected = f"{loaded}\n{FRACTIONS if rational else []}\n"
    assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_nonpositive_samples_rejected(capsys, samples):
    code, out, err = run(capsys, "verify", "--samples", samples, "--level", "1")
    assert code == 2
    assert out == ""
    assert err == "error: samples must be positive\n"


def test_verify_fails_when_every_draw_is_a_pole(capsys, monkeypatch):
    monkeypatch.setattr(identities, "random_rational_point",
                        lambda rs, rng: TorusPoint(rs.zero_weight()))
    code, out, _ = run(capsys, "verify", "--series", "A", "--rank", "1",
                       "--samples", "3", "--level", "1")
    assert code == 1
    reports = {r["name"]: r for r in json.loads(out)["reports"]}
    for name in ("fundamental_formula", "subset_identity", "character_consistency"):
        assert not reports[name]["passed"]
        assert reports[name]["samples"] == 0
        assert reports[name]["detail"]["samples_requested"] == 3
    assert reports["levelshift"]["passed"]


def test_levelshift_suite_fails_without_checked_points(capsys, monkeypatch):
    monkeypatch.setattr(levelshift, "regular_lattice_points", lambda rs, k: [])
    code, out, _ = run(capsys, "verify", "--series", "A", "--rank", "1",
                       "--samples", "3", "--level", "1")
    assert code == 1
    bad = [r for r in json.loads(out)["reports"] if not r["passed"]]
    assert [(r["name"], r["samples"]) for r in bad] == [("levelshift", 0)]


def test_grid_cost_cap_refuses_before_listing_anything(capsys, monkeypatch):
    def listed(*args):
        raise AssertionError("listed weights or grid points before the cap check")

    monkeypatch.setattr(rootdata, "weights_at_level", listed)
    monkeypatch.setattr(conventions, "weights_at_level", listed)
    monkeypatch.setattr(chareval, "grid_columns", listed)
    for args in [["grid", "--series", "A", "--rank", "2", "--level", "100000"],
                 ["grid", "--series", "E", "--rank", "6", "--level", "1", "--grid", "full"],
                 ["fusion", "--series", "E", "--rank", "6", "--level", "2"]]:
        code, out, err = run(capsys, *args)
        assert code == 2 and out == ""
        assert err.startswith("error: character table cost ") and err.count("\n") == 1
        assert f"exceeds cap {conventions.DEFAULT_GRID_CAP}" in err


@pytest.mark.parametrize("command", ["roots", "grid", "fusion", "verify"])
def test_level_cap_refuses_before_any_level_sized_work(capsys, monkeypatch, command):
    def sized(*args):
        raise AssertionError("level-sized work ran before the level cap")

    for module in (rootdata, conventions, verlinde):
        monkeypatch.setattr(module, "count_weights_at_level", sized)
    monkeypatch.setattr(rootdata, "lattice_index", sized)
    level = 10 ** 12
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--series", "A", "--rank", "1", "--level", str(level))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == f"error: level {level} exceeds cap {rootdata.MAX_LEVEL}\n"


def test_verify_checks_every_cap_before_the_first_suite(capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(verify, "SUITES", (lambda rs, settings: ran.append(rs) or [],))
    code, _, err = run(capsys, "verify", "--series", "A", "--rank", "1", "--level", "100",
                       "--samples", "1")
    assert code == 2 and err == "error: table size 1030301 exceeds cap 500000\n"
    # the default systems: A1 passes both caps at level 40, A2 does not
    code, _, err = run(capsys, "verify", "--level", "40")
    assert code == 2 and err == "error: character table cost 4453092 exceeds cap 2000000\n"
    assert ran == []


def test_grid_cost_cap_admits_e6_level_1_and_the_tested_grids():
    def cost(name, k, mode):
        rs = from_name(name)
        n = rootdata.count_weights_at_level(rs, k)
        points = n if mode == "shifted" else rootdata.lattice_index(rs, k)
        return (n + 1) * points * weyl.weyl_order(rs)

    assert cost("E6", 1, "shifted") == 622080 <= conventions.DEFAULT_GRID_CAP
    for name, k, mode in [("F4", 1, "shifted"), ("D4", 1, "shifted"), ("B2", 2, "full"),
                          ("A2", 6, "shifted"), ("C3", 2, "shifted"), ("G2", 4, "shifted"),
                          ("A2", 11, "shifted")]:  # A2 k=11: the largest fusion_table admits
        assert cost(name, k, mode) <= conventions.DEFAULT_GRID_CAP


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=5) | st.tuples(inner, inner)
                   | st.lists(st.integers(), max_size=5) | st.lists(st.text(), max_size=5)
                   | st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_writer_is_json_dumps_with_indent(value):
    assert cli._to_json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_writer_edge_cases():
    for value in [[], {}, [[]], {"a": {}}, [float("nan"), float("inf"), -float("inf"), -0.0],
                  [True, 1, False, 0], ["\u00e9", "\ud83d", "\n\"\\"], (1, (2, "x")), 10 ** 30]:
        assert cli._to_json(value) == json.dumps(value, indent=2, sort_keys=True)
    for value in [{1: "a"}, {"a": 1, 2: "b"}, {"a": {None: 1}}, {1, 2}, [object()], b"x",
                  {"a": 1j}]:
        with pytest.raises(TypeError):
            cli._to_json(value)
        for payload in [{"k": value}, {"k": iter([value])}]:  # the streamed writer too
            with pytest.raises(TypeError):
                "".join(cli._json_pieces(payload))
    with pytest.raises(TypeError):
        "".join(cli._json_pieces({"a": 1, 2: "b"}))
    for payload in [{}, {"a": []}, {"a": [], "b": [1, "x"], "c": {}, "d": [[]]}]:
        streamed = _as_iterators(payload, lambda key: True)
        assert "".join(cli._json_pieces(streamed)) == cli._to_json(payload) + "\n"


def _as_iterators(payload: dict, pick) -> dict:
    """payload with each list value that pick(key) chooses passed as an iterator."""
    return {key: iter(value) if isinstance(value, list) and pick(key) else value
            for key, value in payload.items()}


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(), json_values, max_size=6), st.data())
def test_streamed_pieces_join_to_the_whole_text(payload, data):
    whole = cli._to_json(payload) + "\n"
    assert "".join(cli._json_pieces(payload)) == whole
    assert "".join(cli._json_pieces(_as_iterators(payload, lambda key: True))) == whole
    mixed = _as_iterators(payload, lambda key: data.draw(st.booleans()))
    assert "".join(cli._json_pieces(mixed)) == whole


# Jobs whose streamed records are written from a %-template (cli._element_writer,
# cli._triple_writer): A1's identity has the word [], and A1 k=3 and C3 k=1 are
# fusion tables of rank 1 and 3.
TEMPLATED = {
    "roots-A1-elements": ["roots", "--series", "A", "--rank", "1", "--elements"],
    "roots-G2-elements": ["roots", "--series", "G", "--rank", "2", "--elements"],
    "roots-F4-elements": ["roots", "--series", "F", "--rank", "4", "--elements"],
    "fusion-A1-k3": ["fusion", "--series", "A", "--rank", "1", "--level", "3"],
    "fusion-C3-k1": ["fusion", "--series", "C", "--rank", "3", "--level", "1"],
}


@pytest.mark.parametrize("args", [
    ["roots", "--series", "B", "--rank", "2", "--elements"],
    ["faces", "--series", "G", "--rank", "2"],
    ["char", "--series", "A", "--rank", "2", "--weight", "1,1", "--point", "1/5,2/7"],
    ["grid", "--series", "A", "--rank", "2", "--level", "2"],
    ["grid", "--series", "B", "--rank", "2", "--level", "1", "--grid", "full"],
    ["fusion", "--series", "G", "--rank", "2", "--level", "2"],
    ["fusion", "--series", "A", "--rank", "2", "--level", "3", "--pair", "1,0", "1,1"],
    ["verify", "--series", "A", "--rank", "1", "--level", "1", "--samples", "5"],
    *TEMPLATED.values(),
], ids=["roots", "faces", "char", "grid", "grid-full", "fusion", "fusion-pair", "verify",
        *TEMPLATED])
def test_every_payload_is_written_as_json_dumps_writes_it(capsys, monkeypatch, args):
    payloads = []
    emit = cli._emit

    def recording(fmt, out, payload, *rest):
        streamed = {key for key, value in payload.items() if isinstance(value, Iterator)}
        payload = {key: list(value) if key in streamed else value
                   for key, value in payload.items()}
        payloads.append(payload)
        emit(fmt, out, _as_iterators(payload, streamed.__contains__), *rest)

    monkeypatch.setattr(cli, "_emit", recording)
    code, out, _ = run(capsys, *args)
    assert code == 0 and len(payloads) == 1
    assert out == json.dumps(payloads[0], indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("args", [*TEMPLATED.values(), ["fusion", "--series", "A", "--rank", "2",
                                                         "--level", "3", "--pair", "1,0", "1,1"]],
                         ids=[*TEMPLATED, "fusion-pair"])
def test_streamed_records_skip_the_recursive_writer(capsys, monkeypatch, args):
    """_to_json writes a record shape once, for its template, and no record after that."""
    records_written = []
    to_json = cli._to_json

    def counting(o, nl="\n"):
        if isinstance(o, dict) and nl == cli._ITEM:  # a record, or the shape of one
            records_written.append(o)
        return to_json(o, nl)

    monkeypatch.setattr(cli, "_to_json", counting)
    code, out, _ = run(capsys, *args)
    records = json.loads(out)["weyl_elements" if args[0] == "roots" else "triples"]
    assert code == 0 and len(records) > 1 and len(records_written) == 1


class _Writes(io.StringIO):
    """A text stream that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("args", [
    ["roots", "--series", "F", "--rank", "4", "--elements"],
    ["fusion", "--series", "A", "--rank", "2", "--level", "6"],
], ids=["roots-F4-elements", "fusion-A2-k6"])
def test_large_artifacts_are_written_in_bounded_pieces(monkeypatch, tmp_path, args):
    stdout = _Writes()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(args) == 0
    text = stdout.getvalue()
    assert len(text) > 200_000 and max(stdout.sizes) <= 4096
    path = tmp_path / "out.json"
    assert cli.main(args + ["--out", str(path)]) == 0
    assert path.read_bytes() == text.encode()
