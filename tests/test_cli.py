import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from polysyz import NormalityReport, betti_table, build_ring
from polysyz import cli as cli_module
from polysyz.cli import cli
from polysyz.errors import ConsistencyError, DegenerateInput, WindowExceeded
from polysyz.serialize import load_polytope

DATA = Path(__file__).resolve().parent.parent / "data"
CUBIC = str(DATA / "cubic_triangle.json")
TRIANGLE = str(DATA / "unit_triangle.json")
SQUARE = str(DATA / "unit_square.json")
SIMPLEX = str(DATA / "simplex_112.json")


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(cli, args, catch_exceptions=False)
    assert result.exit_code == 0, result.stdout
    return result


class TestBasicCommands:
    def test_count(self, runner):
        out = run_ok(runner, ["count", CUBIC, "--d", "2"]).stdout
        assert json.loads(out) == {"d": 2, "count": 10}

    def test_ehrhart(self, runner):
        data = json.loads(run_ok(runner, ["ehrhart", CUBIC]).stdout)
        assert data["coeffs"] == ["1", "3/2", "3/2"]

    def test_roots(self, runner):
        data = json.loads(run_ok(runner, ["roots", TRIANGLE]).stdout)
        assert data == {"r": 2, "integer_roots": [-1, -2]}

    def test_normality_witness(self, runner):
        data = json.loads(run_ok(runner, ["normality", SIMPLEX]).stdout)
        assert data["normal"] is False
        assert data["witness"] == {"point": [1, 1, 1], "m": 2}
        data = json.loads(run_ok(runner, ["normality", TRIANGLE]).stdout)
        assert data["normal"] is True and data["witness"] is None

    def test_betti_json(self, runner):
        data = json.loads(
            run_ok(runner, ["betti", CUBIC, "--max-i", "2", "--max-slope", "3"]).stdout
        )
        assert data["entries"]["0,0"] == 1
        assert data["entries"]["1,3"] == 1

    def test_betti_text(self, runner):
        out = run_ok(
            runner,
            ["betti", SQUARE, "--max-i", "2", "--max-slope", "3", "--format", "text"],
        ).stdout
        assert "." in out and "1" in out

    def test_np(self, runner):
        data = json.loads(
            run_ok(runner, ["np", CUBIC, "--pmax", "1", "--max-slope", "3"]).stdout
        )
        statuses = {v["p"]: v["status"] for v in data["verdicts"]}
        assert statuses[0] != "FAILS"
        assert statuses[1] == "FAILS"

    def test_cohomology_product(self, runner):
        data = json.loads(
            run_ok(
                runner, ["cohomology", "--product", "1,2", "--d", "1,1"]
            ).stdout
        )
        assert data["dims"]["0"] == 6
        assert data["euler"] == 6

    def test_cohomology_of_a_point(self, runner, tmp_path):
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"vertices": [[5, 7]]}))
        for d in ("-1", "0", "2"):
            data = json.loads(run_ok(runner, ["cohomology", str(point), "--d", d]).stdout)
            assert data["dims"] == {"0": 1} and data["euler"] == 1

    def test_criteria_of_a_point(self, runner, tmp_path):
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"vertices": [[5, 7]]}))
        data = json.loads(
            run_ok(runner, ["criteria", str(point), "--d", "2", "--p", "1"]).stdout
        )
        by_name = {c["criterion"]: c["inputs"] for c in data}
        assert by_name["hilbert_roots"]["r"] == 0
        assert by_name["polytope_normality"]["r"] == 0

    def test_regularity(self, runner):
        data = json.loads(run_ok(runner, ["regularity", CUBIC, "--m", "2"]).stdout)
        assert data["regular"] is True
        data = json.loads(
            run_ok(runner, ["regularity", "--product", "1,1", "--m", "-1,0"]).stdout
        )
        assert data["regular"] is False

    def test_predict(self, runner):
        data = json.loads(
            run_ok(runner, ["predict", CUBIC, "--w1", "2", "--p", "3"]).stdout
        )
        assert data["prediction"] == {"p": 3, "twist": 4}
        # O(1) on the cubic triangle is not regular, so nothing is predicted
        data = json.loads(run_ok(runner, ["predict", CUBIC, "--w1", "1", "--p", "1"]).stdout)
        assert data["regular_m1"] is False and data["prediction"] is None

    def test_criteria_product(self, runner):
        result = run_ok(
            runner, ["criteria", "--product", "2,2", "--d", "2,2", "--p", "2"]
        )
        payload = json.loads(result.stdout)
        by_name = {r["criterion"]: r for r in payload}
        assert by_name["segre_veronese"]["guaranteed_p"] == 2

    def test_criteria_polytope(self, runner):
        result = run_ok(runner, ["criteria", CUBIC, "--d", "2", "--p", "1"])
        payload = json.loads(result.stdout)
        by_name = {r["criterion"]: r for r in payload}
        assert by_name["dimension_bound"]["guaranteed_p"] == 1
        assert by_name["hilbert_roots"]["guaranteed_p"] == 1
        assert by_name["polytope_normality"]["threshold"] == 2


# stdout of `ehrhart`, `roots`, `count --d 3` and `criteria --d 2 --p 1` on
# every data/*.json, keyed by the command line with the file's name
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden_stdout.json").read_text())


@pytest.mark.parametrize("line", sorted(GOLDEN))
def test_golden_stdout(runner, line):
    command, name, *rest = line.split()
    result = run_ok(runner, [command, str(DATA / name)] + rest)
    assert result.stdout == GOLDEN[line]


class TestExitCodes:
    def test_missing_file(self, runner):
        result = runner.invoke(cli, ["ehrhart", "no_such_file.json"])
        assert result.exit_code == 2

    def test_degenerate_input(self, runner, tmp_path):
        bad = tmp_path / "line.json"
        bad.write_text(json.dumps({"vertices": [[0, 0], [1]]}))
        result = runner.invoke(cli, ["ehrhart", str(bad)])
        assert result.exit_code == 2

    def test_bad_vector(self, runner):
        result = runner.invoke(cli, ["cohomology", "--product", "1,x", "--d", "1,1"])
        assert result.exit_code == 2

    def test_window_limit(self, runner):
        result = runner.invoke(cli, ["betti", CUBIC, "--max-slope", "20"])
        assert result.exit_code == 3
        result = runner.invoke(cli, ["np", CUBIC, "--pmax", "9"])
        assert result.exit_code == 3

    def test_certify_refuses_the_c3_window(self, runner, tmp_path):
        # a block of 753 middle cells is over certify's limit: exit 3 at
        # once, and nothing is cached
        args = ["betti", CUBIC, "--c", "3", "--max-i", "4", "--max-slope", "3", "--certify"]
        result = runner.invoke(cli, args + ["--cache-dir", str(tmp_path)])
        assert result.exit_code == 3
        assert "a block of 753 middle cells, over the limit of 512" in result.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ["betti", CUBIC, "--c", "0"],
        ["count", CUBIC, "--d", "-1"],
        ["cohomology", CUBIC, "--d", "x"],
        ["corpus", "--dim", "5"],
        # neither a polytope path nor --product
        ["cohomology", "--d", "1"],
        ["regularity", "--m", "1"],
        ["criteria", "--d", "1"],
        # --product without --d
        ["criteria", "--product", "2,2", "--p", "1"],
    ])
    def test_bad_values(self, runner, args):
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert result.output.startswith("error: ")

    @pytest.mark.parametrize("args", [
        ["betti", TRIANGLE, "--threads", "4"],
        ["np", TRIANGLE, "--threads", "4"],
        ["report", "--examples", "paper"],
    ])
    def test_removed_options_refused(self, runner, args):
        # click's usage error, the documented bad-input code
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert "No such option" in result.output and args[-2] in result.output

    @pytest.mark.parametrize("args", [
        ["normality", TRIANGLE, "--mmax", "-1"],
        ["np", TRIANGLE, "--pmax", "-1"],
        ["betti", TRIANGLE, "--max-i", "-1"],
        ["betti", TRIANGLE, "--max-slope", "-1"],
    ])
    def test_negative_bounds(self, runner, monkeypatch, args):
        # refused before the cache lookup, so a stored entry is never echoed
        monkeypatch.setattr(cli_module, "_cache_lookup", lambda cache_dir, key: ("{}", None))
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert result.output.startswith("error: ") and "-1" in result.output

    @pytest.mark.parametrize("document, message", [
        ({"vertices": []}, "empty point set"),
        ({"vertices": [[0, 0], [1]]}, "points of mixed dimension"),
        # booleans are ints to Python, but no coordinates
        ({"vertices": [[True, False], [0, 1], [0, 0]]}, "bad vertex [True, False]"),
        ({"points": [[0, 0], [1, 0], [0, 1]]}, 'polytope JSON must be {"vertices"'),
        ({"vertices": 5}, "vertices must be a list"),
    ], ids=["empty", "mixed", "booleans", "no-vertices", "not-a-list"])
    def test_refused_vertices(self, runner, tmp_path, document, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        result = runner.invoke(cli, ["count", str(bad)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ") and message in result.stderr
        assert result.stdout == ""

    def test_predict_p_below_one(self, runner):
        result = runner.invoke(cli, ["predict", CUBIC, "--w1", "2", "--p", "0"])
        assert result.exit_code == 2
        assert result.stderr == "error: p must be at least 1, got 0\n"

    def test_undecodable_file(self, runner, tmp_path):
        bad = tmp_path / "binary.json"
        bad.write_bytes(b"\xff\xfe{}")
        result = runner.invoke(cli, ["ehrhart", str(bad)])
        assert result.exit_code == 2

    def test_internal_value_error(self, runner, monkeypatch):
        def fault(P, d):
            raise ValueError("target not in lattice")

        monkeypatch.setattr(cli_module, "lattice_points", fault)
        result = runner.invoke(cli, ["count", CUBIC])
        assert result.exit_code == 4
        assert "target not in lattice" in result.output


# one valid invocation per command, and the module name its work is
# injected through; a command added without a case fails the suite
POLICY_CASES = {
    "count": ([TRIANGLE], "load_polytope"),
    "ehrhart": ([TRIANGLE], "load_polytope"),
    "roots": ([TRIANGLE], "load_polytope"),
    "normality": ([TRIANGLE], "load_polytope"),
    "betti": ([TRIANGLE], "load_polytope"),
    "np": ([TRIANGLE], "load_polytope"),
    "cohomology": ([TRIANGLE, "--d", "1"], "load_polytope"),
    "regularity": ([TRIANGLE, "--m", "1"], "load_polytope"),
    "predict": ([TRIANGLE, "--w1", "1", "--p", "1"], "load_polytope"),
    "criteria": ([TRIANGLE], "load_polytope"),
    "corpus": ([], "generate_corpus"),
    "report": ([], "_report_rows"),
}


class TestExitPolicy:
    def test_every_command_has_a_case(self):
        assert set(POLICY_CASES) == set(cli.commands)

    @pytest.mark.parametrize("name", sorted(cli.commands))
    @pytest.mark.parametrize("exc, code", [
        (DegenerateInput, 2),
        (WindowExceeded, 3),
        (ConsistencyError, 4),
        (ValueError, 4),
    ], ids=["bad-input", "window", "consistency", "internal"])
    def test_exit_code(self, runner, monkeypatch, tmp_path, name, exc, code):
        args, target = POLICY_CASES[name]

        def fault(*args, **kwargs):
            raise exc("injected")

        monkeypatch.setattr(cli_module, target, fault)
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = runner.invoke(cli, [name] + args)
        assert result.exit_code == code
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and "injected" in result.stderr


class TestInputRules:
    @pytest.mark.parametrize("command", [
        ["cohomology", "--product", "1,2", "--d", "1,1"],
        ["regularity", "--product", "1,1", "--m", "-1,0"],
        ["criteria", "--product", "2,2", "--d", "2,2", "--p", "2"],
    ])
    def test_path_with_product_is_read(self, runner, tmp_path, command):
        run_ok(runner, command[:1] + [TRIANGLE] + command[1:])
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(cli, command[:1] + [str(bad)] + command[1:])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: invalid JSON")

    @pytest.mark.parametrize("args", [
        ["criteria", CUBIC, "--d", "2", "--p", "-1"],
        ["criteria", "--product", "2,2", "--d", "2,2", "--p", "-1"],
    ])
    def test_criteria_negative_p(self, runner, args):
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ") and "p >= 0" in result.stderr
        assert "N_-1" not in result.output

    @pytest.mark.parametrize("args", [
        ["--dim", "0", "--count", "2"],
        ["--dim", "1", "--coord-bound", "1", "--count", "2"],
        ["--coord-bound", "-1"],
        ["--count", "-3"],
    ])
    def test_corpus_bounds(self, runner, tmp_path, args):
        out = tmp_path / "out"
        result = runner.invoke(cli, ["corpus", "--out-dir", str(out)] + args)
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.output and not out.exists()

    @pytest.mark.parametrize("args", [
        ["betti", TRIANGLE, "--c", "0"],
        ["np", TRIANGLE, "--c", "-2"],
    ])
    def test_c_below_one_before_lookup(self, runner, monkeypatch, args):
        monkeypatch.setattr(cli_module, "_cache_lookup", lambda cache_dir, key: ("{}", None))
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert result.stderr == f"error: c={args[-1]} must be positive\n"

    @pytest.mark.parametrize("args", [
        ["criteria", "--product", "2,2", "--d", "3", "--p", "2"],
        ["regularity", "--product", "0", "--m", "5,5"],
        ["cohomology", "--product", "1,2", "--d", "1"],
    ])
    def test_product_twist_of_another_length(self, runner, args):
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert result.stderr == "error: factor dimensions and twist lengths differ\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("args", [
        ["cohomology", "--product", "-1,2", "--d", "1,1"],
        ["regularity", "--product", "-1,2", "--m", "1,1"],
        ["criteria", "--product", "-1,2", "--d", "1,1", "--p", "1"],
        ["cohomology", "--product", "-3", "--d", "1"],
    ])
    def test_product_factor_dimension_below_one(self, runner, args):
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert result.stderr.startswith("error: factor dimensions must be at least 1")
        assert result.stdout == ""

    # {dir} names a directory and {file} a file; each path is of the wrong kind
    @pytest.mark.parametrize("args", [
        ["ehrhart", "{dir}"],
        ["betti", TRIANGLE, "--cache-dir", "{file}"],
        ["corpus", "--out-dir", "{file}"],
        ["np", TRIANGLE, "--cache-dir", "{file}/sub"],
        ["corpus", "--out-dir", "{file}/sub"],
    ], ids=["polytope-dir", "cache-dir-file", "out-dir-file", "cache-dir-under-file",
            "out-dir-under-file"])
    def test_path_of_the_wrong_kind(self, runner, tmp_path, args):
        file = tmp_path / "plain.json"
        file.write_text("{}")
        args = [a.format(dir=tmp_path, file=file) for a in args]
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert file.read_text() == "{}"

    def test_cache_env_names_a_file(self, runner, tmp_path, monkeypatch):
        file = tmp_path / "plain"
        file.write_text("")
        monkeypatch.setenv(cli_module.CACHE_ENV, str(file))
        result = runner.invoke(cli, ["betti", TRIANGLE, "--max-i", "1"])
        assert result.exit_code == 2
        assert result.stderr == f"error: cache directory {file} is not a directory\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("cmd", ["betti", "np"])
    def test_cache_entry_that_is_a_directory(self, runner, tmp_path, cmd):
        args = [cmd, TRIANGLE, "--max-slope", "1", "--cache-dir", str(tmp_path)]
        run_ok(runner, args)
        [entry] = tmp_path.iterdir()
        entry.unlink()
        entry.mkdir()
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert result.stderr == f"error: cache entry {entry} is a directory\n"
        assert result.stdout == ""
        assert entry.is_dir() and not any(entry.iterdir())


class TestDeterminism:
    def test_corpus_reproducible(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_ok(
                runner,
                ["corpus", "--seed", "5", "--count", "6", "--out-dir", str(out)],
            )
        files_a = sorted(p.name for p in a.iterdir())
        assert files_a == sorted(p.name for p in b.iterdir())
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_cache_cold_vs_warm(self, runner, tmp_path):
        args = [
            "np",
            CUBIC,
            "--pmax",
            "1",
            "--max-slope",
            "3",
            "--cache-dir",
            str(tmp_path),
        ]
        cold = run_ok(runner, args).stdout
        assert any(tmp_path.iterdir())
        warm = run_ok(runner, args).stdout
        assert cold == warm

    def test_cache_write_is_atomic(self, tmp_path, monkeypatch):
        path = tmp_path / "entry.json"
        cli_module._cache_store(path, '{"ok": 1}')
        assert path.read_bytes() == b'{"ok": 1}'
        assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]
        path.unlink()

        # the payload cannot be encoded: the write fails after the file is open
        with pytest.raises(UnicodeEncodeError):
            cli_module._cache_store(path, '{"torn": "\ud800"}')
        assert list(tmp_path.iterdir()) == []

        def crash(src, dst):
            raise OSError("crash before rename")

        monkeypatch.setattr(cli_module.os, "replace", crash)
        with pytest.raises(OSError):
            cli_module._cache_store(path, '{"ok": 1}')
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ["np", CUBIC, "--pmax", "1", "--max-slope", "3"],
        ["betti", SQUARE, "--max-i", "2", "--max-slope", "3", "--format", "text"],
    ])
    @pytest.mark.parametrize("garbage", [
        lambda entry: entry[: len(entry) // 2],
        lambda entry: b"",
        lambda entry: b"\xff\xfe" + entry,
    ], ids=["truncated", "empty", "not-utf8"])
    def test_corrupt_entry_is_recomputed(self, runner, tmp_path, args, garbage):
        args = args + ["--cache-dir", str(tmp_path)]
        cold = run_ok(runner, args).stdout
        (entry,) = tmp_path.iterdir()
        good = entry.read_bytes()
        entry.write_bytes(garbage(good))
        assert run_ok(runner, args).stdout == cold
        assert [p.name for p in tmp_path.iterdir()] == [entry.name]
        assert entry.read_bytes() == good

    def test_certify_agrees_with_default(self, runner):
        fast = run_ok(runner, ["betti", SQUARE, "--max-i", "3", "--max-slope", "4"]).stdout
        exact = run_ok(
            runner,
            ["betti", SQUARE, "--max-i", "3", "--max-slope", "4", "--certify"],
        ).stdout
        assert json.loads(fast)["entries"] == json.loads(exact)["entries"]


@pytest.mark.parametrize(
    "path, c, max_i, slope", [(CUBIC, 2, 4, 4), (SIMPLEX, 2, 2, 5)]
)
def test_one_answer_per_window(runner, path, c, max_i, slope):
    """`betti`, the table inside `np` and the library agree on the window."""
    window = ["--c", str(c), "--max-slope", str(slope)]
    betti = json.loads(
        run_ok(runner, ["betti", path, "--max-i", str(max_i)] + window).stdout
    )
    np_payload = json.loads(
        run_ok(runner, ["np", path, "--pmax", str(max_i)] + window).stdout
    )
    table = betti_table(build_ring(load_polytope(path), c, slope + 1), max_i, slope)
    library = {f"{i},{j}": b for (i, j), b in sorted(table.entries.items())}
    assert betti["entries"] == np_payload["betti"] == library


REPORT = """\
| example | expected | computed | match |
|---|---|---|---|
| cubic surface, c=1 | N_0 holds, N_1 fails | N_0 VERIFIED_UP_TO, N_1 FAILS | yes |
| cubic surface, c=2 | N_3 holds, N_4 fails | N_3 VERIFIED_UP_TO, N_4 FAILS | yes |
| (1,1,2)-simplex | not normal, witness ((1,1,1), m=2) | normal=False, witness=((1, 1, 1), 2) | yes |
| (1,1,2)-simplex, c=2 | N_1 holds, N_2 fails | N_1 VERIFIED_UP_TO, N_2 FAILS | yes |
| Veronese conic net, c=2 | no failure through N_2 | N_2 VERIFIED_UP_TO | yes |
"""


def test_report(runner):
    assert run_ok(runner, ["report"]).stdout == REPORT


def test_report_checksum_mismatch(runner, monkeypatch):
    monkeypatch.setattr(cli_module, "k_polynomial_checksum", lambda table: False)
    result = runner.invoke(cli, ["report"])
    assert result.exit_code == 4
    assert "checksum" in result.output


def test_report_row_mismatch(runner, monkeypatch):
    # the (1,1,2)-simplex reported normal disagrees with its recorded row
    monkeypatch.setattr(cli_module, "is_normal", lambda P: NormalityReport(True, 2, None))
    result = runner.invoke(cli, ["report"])
    assert result.exit_code == 4
    assert "| normal=True, witness=None | NO |" in result.output
    assert "report mismatch" in result.output
