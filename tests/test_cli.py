import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from descmat import __version__, cli, decomposition, descendents, matroid, partitions
from descmat.cli import main
from descmat.qseries import QSeries
from test_descendents import forbid_everywhere


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_evaluate_published_value(capsys):
    code, out, _ = run(capsys, "evaluate", "--insertions", "2,2", "--degree", "3")
    assert code == 0
    assert out == "166577809/11059200\n"


def test_matroid_count_weight_eight(capsys):
    code, out, _ = run(capsys, "matroid", "count", "--weight", "8")
    assert code == 0
    assert out == "34\n"


def test_tau_niebur(capsys):
    code, out, _ = run(capsys, "tau", "--d", "1", "--method", "niebur")
    assert code == 0
    assert out == "1\n"


def test_expand_text_matches_transcript(capsys):
    code, out, _ = run(capsys, "expand", "--insertions", "2,2", "--order", "3")
    assert code == 0
    assert out == "248437/17280*q^3 + 15703/23040*q^2 + 127/69120*q + 49/33177600\n"


def test_expand_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "expand", "--insertions", "0", "--order", "6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    series = QSeries.from_json(payload)
    from descmat.qseries import eisenstein_series

    assert series == eisenstein_series(2, 6)


def test_eisenstein_text_and_json(capsys):
    code, out, _ = run(capsys, "eisenstein", "--insertions", "2,2")
    assert code == 0
    assert out == "{(6, 2): 1/12, (4, 4): 73/112, (4, 2, 2): -3/4, (2, 2, 2, 2): -15/4}\n"
    code, out, _ = run(capsys, "eisenstein", "--insertions", "2", "--format", "json")
    assert json.loads(out) == [
        {"monomial": [0, 1, 0], "coeff": "1/12"},
        {"monomial": [2, 0, 0], "coeff": "1/2"},
    ]


def test_matroid_groundset_matches_transcript(capsys):
    code, out, _ = run(capsys, "matroid", "groundset", "--weight", "8")
    assert code == 0
    assert out == "[[6], [4, 0], [3, 1], [2, 2], [2, 0, 0], [1, 1, 0], [0, 0, 0, 0]]\n"


def test_matroid_bases_streams_lines(capsys):
    code, out, _ = run(capsys, "matroid", "bases", "--weight", "6")
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0] == "[[4], [2, 0], [1, 1]]"


def test_matroid_tutte_text(capsys):
    code, out, _ = run(capsys, "matroid", "tutte", "--weight", "8")
    assert out == "x^4 + 3*x^3 + y^3 + 6*x^2 + x*y + 4*y^2 + 9*x + 9*y\n"


def test_delta_row(capsys):
    code, out, _ = run(
        capsys,
        "delta",
        "--weight",
        "12",
        "--basis",
        "1,2,3,4,5,6,7",
        "--positive",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["key"] == "(1234567)"
    assert payload["scale"] == 8209
    assert payload["scaled_coefficients"][0] == -23011579448


def test_delta_all_emits_36_records(capsys):
    from golden_delta_tables import LINEAR_ROWS

    code, out, _ = run(capsys, "delta-all", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 36
    pairs = {(record["key"], record["scale"]) for record in payload}
    assert pairs == {(key, scale) for key, (scale, _) in LINEAR_ROWS.items()}


def test_delta_poly_matches_transcript(capsys):
    code, out, _ = run(capsys, "delta-poly", "--type", "1")
    assert code == 0
    assert out.startswith("{((0, 0, 0), (0, 0, 0)): -432, ")
    assert "((0,), (0,), (0,), (0,), (0,), (0,)): -1728}" in out


def test_tau_methods_agree(capsys):
    values = []
    for method in ("pentagonal", "niebur", "direct"):
        code, out, _ = run(capsys, "tau", "--d", "6", "--method", method)
        assert code == 0
        values.append(out.strip())
    assert values == ["-6048"] * 3


def test_tau_check_passes(capsys):
    code, out, _ = run(capsys, "tau-check", "--max-d", "12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert [c["name"] for c in payload["checks"]] == [
        "multiplicativity",
        "hecke_recursion",
        "prime_bound",
        "nonvanishing",
    ]


def test_byte_determinism(capsys):
    first = run(capsys, "delta-all", "--format", "json")
    second = run(capsys, "delta-all", "--format", "json")
    assert first == second
    third = run(capsys, "matroid", "matrix", "--weight", "8")
    fourth = run(capsys, "matroid", "matrix", "--weight", "8")
    assert third == fourth


def test_domain_errors_exit_one(capsys):
    code, out, err = run(capsys, "matroid", "rank", "--weight", "7")
    assert code == 1 and out == "" and err.startswith("error:")
    code, _, err = run(capsys, "matroid", "tutte", "--weight", "12")
    assert code == 1 and "capped" in err
    code, _, err = run(
        capsys, "matroid", "rank", "--weight", "7", "--format", "json"
    )
    assert code == 1
    assert json.loads(err)["error"]["type"] == "ValueError"
    code, out, err = run(capsys, "tau", "--d", "5", "--basis", "1,1,2,3,4,5,6")
    assert code == 1 and out == "" and "basis indices must be distinct" in err
    code, out, err = run(capsys, "tau", "--d", "5", "--basis", "")
    assert code == 1 and out == "" and "needs 7 elements, got 0" in err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["matroid", "frobnicate", "--weight", "8"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_mutually_exclusive_flags_rejected_at_parse_time(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["tau", "--d", "3", "--method", "niebur", "--basis", "1,2"])
    assert excinfo.value.code == 2
    assert "--basis" in capsys.readouterr().err


def test_cache_dir_is_accepted_and_ignored(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    planted = cache / f"a8_all_v{__version__}.json"
    planted.write_text("not a matrix")
    for argv in (
        ["matroid", "rank", "--weight", "8"],
        ["matroid", "matrix", "--weight", "8"],
        ["conjecture-check", "--max-weight", "8"],
    ):
        uncached = run(capsys, *argv)
        assert uncached[0] == 0
        assert run(capsys, *argv, "--cache-dir", str(cache)) == uncached, argv
    assert list(cache.iterdir()) == [planted]
    assert planted.read_text() == "not a matrix"
    absent = tmp_path / "absent"
    assert run(capsys, "matroid", "rank", "--weight", "8", "--cache-dir", str(absent))[0] == 0
    assert not absent.exists()


def test_matroid_max_weight_zero_is_a_cap_of_zero(capsys):
    code, out, err = run(capsys, "matroid", "rank", "--weight", "8", "--max-weight", "0")
    assert code == 1 and out == "" and "above the configured cap 0" in err


def test_matroid_groundset_checks_the_weight_cap(capsys):
    code, out, err = run(capsys, "matroid", "groundset", "--weight", "20")
    assert code == 1 and out == "" and "above the configured cap 18" in err
    code, out, _ = run(capsys, "matroid", "groundset", "--weight", "20", "--max-weight", "20")
    assert code == 0 and out.startswith("[[18], ")


def test_conjecture_check_refuses_a_max_weight_below_four(capsys):
    for cap in ("0", "2"):
        code, out, err = run(capsys, "conjecture-check", "--max-weight", cap)
        assert code == 1 and out == "" and err.startswith("error:")


def test_enumeration_above_the_cap_is_refused(capsys):
    # full weight 14 has C(34, 8) = 18 156 204 candidate subsets
    for action in ("count", "bases"):
        code, out, err = run(capsys, "matroid", action, "--weight", "14")
        assert code == 1 and out == "" and "C(34, 8)" in err


def test_work_above_the_cap_exits_one_before_the_matrix_is_built(capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise RuntimeError("the whole matrix was built or searched")

    monkeypatch.setattr(matroid, "descendent_matrix", no_build)
    monkeypatch.setattr(matroid, "_subset_groups", no_build)
    # positive weight 16 has C(21, 10) = 352 716 candidates at rank 10, and
    # full weight 26 C(478, 21); each rank is read off its first columns
    for weight in (["--weight", "16", "--positive"], ["--weight", "26", "--max-weight", "26"]):
        for action in ("count", "bases", "tutte"):
            code, out, err = run(capsys, "matroid", action, *weight)
            assert code == 1 and out == "" and "enumeration capped" in err


def test_degree_above_the_cap_exits_one_before_any_work(capsys, monkeypatch):
    # each command imports its handlers when it runs, so they are
    # forbidden in the modules that own them
    forbid_everywhere(
        monkeypatch,
        (
            "gw_invariant",
            "bracket_series",
            "tau_pentagonal",
            "tau_niebur",
            "tau_direct",
            "tau_relation_report",
            "_solve_delta",
        ),
    )
    too_high = str(cli._MAX_DEGREE + 1)
    for argv in (
        ["evaluate", "--insertions", "2,2", "--degree", too_high],
        ["expand", "--insertions", "2,2", "--order", too_high],
        ["expand", "--insertions", "4,3,1", "--order", "20000", "--format", "json"],
        ["tau-check", "--max-d", too_high],
        ["tau", "--d", too_high],
        ["tau", "--d", "1000000", "--basis", "2,3,4,5,6,7,8"],
        ["tau", "--d", too_high, "--method", "niebur"],
        ["tau", "--d", too_high, "--method", "direct", "--format", "json"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "above the degree cap" in err


def test_label_above_the_weight_cap_exits_one_before_any_partition(capsys, monkeypatch):
    def no_partitions(*args):
        raise RuntimeError("partitions enumerated")

    for module in (partitions, descendents):
        monkeypatch.setattr(module, "partitions_of", no_partitions)
    for argv in (
        ["evaluate", "--insertions", "30", "--degree", "500"],
        # p(200) is about 4×10^12 partitions, and 200 is below base(102) = 248
        ["evaluate", "--insertions", "100", "--degree", "200", "--format", "json"],
        ["expand", "--insertions", "30", "--order", "500"],
        ["expand", "--insertions", "17"],
        ["eisenstein", "--insertions", "60"],
        ["eisenstein", "--insertions", "4,4,4,0", "--format", "json"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "above the weight cap 18" in err, argv


def test_max_weight_above_the_ceiling_exits_one_before_any_partition(capsys, monkeypatch):
    ceiling = str(cli._MAX_WEIGHT_CEILING)
    code, out, _ = run(capsys, "matroid", "groundset", "--weight", ceiling, "--max-weight", ceiling)
    assert code == 0 and out.startswith(f"[[{cli._MAX_WEIGHT_CEILING - 2}], ")

    def no_partitions(*args):
        raise RuntimeError("partitions enumerated")

    monkeypatch.setattr(partitions, "partitions_of", no_partitions)
    above = str(cli._MAX_WEIGHT_CEILING + 1)
    for argv in (
        # p(72) = 5 392 783 partitions, each a tuple, before any matrix is built
        ["matroid", "groundset", "--weight", "72", "--max-weight", "72"],
        ["matroid", "rank", "--weight", "8", "--max-weight", above],
        ["conjecture-check", "--max-weight", above],
        ["conjecture-check", "--max-weight", "72", "--format", "json"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and f"above the ceiling {ceiling}" in err, argv


def test_degrees_in_use_stay_below_the_cap(capsys):
    # the README and the benchmark's sessions ask for tau up to d = 200
    code, out, _ = run(capsys, "tau", "--d", "200", "--method", "niebur")
    assert code == 0 and out == "-2154174528000\n"  # tau(8) * tau(25)


def test_expand_odd_weight_label_is_zero(capsys):
    code, out, _ = run(capsys, "expand", "--insertions", "1")
    assert code == 0 and out == "0\n"
    code, out, _ = run(capsys, "expand", "--insertions", "1", "--format", "json")
    assert code == 0 and json.loads(out) == {"order": 6, "coeffs": ["0"] * 7}


def test_expand_refuses_a_negative_order(capsys):
    for argv in (
        ["expand", "--insertions", "2,2", "--order", "-1"],
        ["expand", "--insertions", "0", "--order", "-7", "--format", "json"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and "--order" in err and "negative" in err, argv


def test_tau_refuses_a_degree_below_one_by_its_flag(capsys):
    for argv in (
        ["tau", "--d", "-1"],
        ["tau", "--d", "0", "--basis", "2,3,4,5,6,7,8"],
        ["tau", "--d", "-1", "--method", "niebur"],
        ["tau", "--d", "-1", "--method", "direct", "--format", "json"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and "--d must be at least 1, got" in err, argv


def test_tau_check_refuses_a_max_d_below_two_by_its_flag(capsys):
    for bad in ("1", "-1"):
        code, out, err = run(capsys, "tau-check", "--max-d", bad)
        assert (code, out) == (1, "") and f"--max-d must be at least 2, got {bad}" in err


def test_evaluate_refuses_a_negative_degree_by_its_flag(capsys):
    code, out, err = run(capsys, "evaluate", "--insertions", "2,2", "--degree", "-1")
    assert (code, out) == (1, "") and "--degree must be nonnegative, got -1" in err


def test_eisenstein_refuses_an_odd_weight_label(capsys):
    code, out, err = run(capsys, "eisenstein", "--insertions", "3")
    assert (code, out) == (1, "") and "weight must be a nonnegative even integer, got 5" in err


SUBCOMMANDS = {
    "evaluate": ["--insertions", "2,2", "--degree", "3"],
    "expand": ["--insertions", "2,2"],
    "eisenstein": ["--insertions", "2,2"],
    "matroid": ["rank", "--weight", "4"],
    "delta": ["--basis", "1,2,3,4,5,6,7", "--positive"],
    "delta-all": [],
    "delta-poly": ["--type", "1"],
    "tau": ["--d", "1", "--method", "niebur"],
    "tau-check": ["--max-d", "12"],
    "conjecture-check": ["--max-weight", "4"],
}
FLAG_OWNERS = {
    "--order": {"expand"},
    "--cache-dir": {"matroid", "conjecture-check"},
    "--weight": {"matroid", "delta"},
}


def test_order_and_cache_dir_belong_to_their_commands(tmp_path, capsys):
    for flag, owners in FLAG_OWNERS.items():
        value = {"--order": "3", "--weight": "12"}.get(flag, str(tmp_path / "cache"))
        for command, args in SUBCOMMANDS.items():
            argv = [command, *args, flag, value]
            if command in owners:
                assert run(capsys, *argv)[0] == 0, argv
                continue
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2, argv
            assert flag in capsys.readouterr().err, argv


SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def fresh_python(code, *argv):
    """Run ``code`` with ``argv`` in a fresh interpreter that imports descmat from src."""
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=ENV, timeout=60
    )


def test_a_reader_that_closes_the_pipe_early_gets_exit_one_and_no_traceback():
    # 102 670 lines overflow any pipe buffer, so the writer meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "descmat.cli", "matroid", "bases", "--weight", "12"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=ENV,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert first == b"[[10], [8, 0], [7, 1], [6, 2], [6, 0, 0], [5, 3], [5, 1, 0]]\n"
    assert err == b""


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # together with ast, dis and tokenize they cost milliseconds on every command
    probe = "import sys, descmat.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = fresh_python(probe)
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


# prints every loaded descmat module, and json if it is loaded
PRINT_LOADED = """
print(*sorted(m for m in sys.modules if m == "json" or m.split(".")[0] == "descmat"))
"""
# runs ``main`` on the probe's argv with its output discarded and prints the exit code
RUN_MAIN = """
import contextlib, io, sys
import descmat.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = descmat.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(code, end=" ")
"""
PARSER_ONLY = ["descmat", "descmat.cli"]


def loaded_by(code, *argv):
    proc = fresh_python(code + PRINT_LOADED, *argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_importing_the_package_loads_no_submodule():
    assert loaded_by("import sys, descmat") == ["descmat"]


def test_importing_the_cli_loads_no_computational_module_nor_json():
    assert loaded_by("import sys, descmat.cli") == PARSER_ONLY


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--version"], "0"),
        (["--help"], "0"),
        (["tau", "--help"], "0"),
        (["delta-poly", "--type", "9"], "2"),
        (["evaluate", "--insertions", "2,2"], "2"),
        (["no-such-command"], "2"),
    ],
)
def test_help_version_and_usage_errors_load_no_computational_module(argv, code):
    assert loaded_by(RUN_MAIN, *argv) == [code, *PARSER_ONLY]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_each_command_loads_only_what_it_runs(command):
    code, *loaded = loaded_by(RUN_MAIN, command, *SUBCOMMANDS[command])
    assert code == "0"
    # only --format json needs json
    assert "json" not in loaded
    if command in ("evaluate", "expand", "eisenstein"):
        assert "descmat.descendents" in loaded
        assert not {"descmat.matroid", "descmat.decomposition"} & set(loaded)


@pytest.mark.parametrize(
    "argv, built",
    [
        # the whole matrices have 55 columns, and 223 over weights 4-18
        (["matroid", "rank", "--weight", "16"], 10),
        (["conjecture-check"], 73),
    ],
    ids=["rank16", "conjecture-check"],
)
def test_rank_commands_build_only_the_columns_their_answer_needs(argv, built):
    columns_built = "print(descmat.descendents._eisenstein_coordinates.cache_info().currsize)"
    proc = fresh_python(RUN_MAIN + columns_built, *argv)
    assert (proc.returncode, proc.stdout) == (0, f"0 {built}\n"), proc.stderr


def test_json_output_loads_json():
    # the probe sees json where it is used, so the tests above are not vacuous
    argv = ["evaluate", "--insertions", "2,2", "--degree", "3", "--format", "json"]
    code, *loaded = loaded_by(RUN_MAIN, *argv)
    assert code == "0" and "json" in loaded


def test_the_parser_values_match_their_owners():
    assert cli._DEFAULT_MAX_WEIGHT == matroid.DEFAULT_MAX_WEIGHT
    assert cli._TRIPLE_TYPES == sorted(decomposition.GENERATOR_TRIPLES)
