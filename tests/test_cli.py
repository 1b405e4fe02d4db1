"""CLI contract tests: payload shapes, exit codes, and byte determinism.

Commands run in-process through main(argv); stdout carries exactly one
payload (JSON, or DOT/edge text for graph exports) and diagnostics stay
on stderr.
"""

import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

import sumfree
from sumfree import cli, search_oracle
from sumfree.cli import build_parser, dispatch, main
from sumfree.special_sets import SpecialEnumeration, enumerate_special
from sumfree.zn_core import classify, set_from_json


SRC = os.path.dirname(os.path.dirname(sumfree.__file__))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


# --- verify ---


def test_verify_golden_bytes(capsys):
    code, out, err = run(capsys, "verify", "--n", "8", "--set", "3,4,5")
    assert code == 0
    assert out == '{"symmetric":true,"sum_free":true,"complete":true,"size":3}\n'
    assert "elapsed_s" in err
    assert "elapsed_s" not in out


def test_verify_pretty_same_payload(capsys):
    _, compact = run_json(capsys, "verify", "--n", "8", "--set", "3,4,5")
    _, pretty = run_json(capsys, "verify", "--n", "8", "--set", "3,4,5", "--pretty")
    assert compact == pretty


def test_verify_reports_failures_with_exit_zero(capsys):
    code, payload = run_json(capsys, "verify", "--n", "3", "--set", "1,2")
    assert code == 0
    assert payload == {
        "symmetric": True,
        "sum_free": False,
        "complete": True,
        "size": 2,
    }


def test_verify_from_file(capsys, tmp_path):
    path = tmp_path / "set.json"
    path.write_text('{"n": 8, "elements": [3, 4, 5]}')
    code, payload = run_json(capsys, "verify", "--n", "8", "--set-file", str(path))
    assert code == 0 and payload["size"] == 3


def test_verify_file_modulus_mismatch(capsys, tmp_path):
    path = tmp_path / "set.json"
    path.write_text('{"n": 9, "elements": [3]}')
    code, payload = run_json(capsys, "verify", "--n", "8", "--set-file", str(path))
    assert code == 1
    assert payload["error"]["type"] == "DomainError"


def test_verify_file_boolean_modulus_rejected(capsys, tmp_path):
    # bool is an int subclass and True == 1, so true once passed as Z_1
    path = tmp_path / "set.json"
    path.write_text('{"n": true, "elements": [0]}')
    code, payload = run_json(capsys, "verify", "--n", "1", "--set-file", str(path))
    assert code == 1
    assert payload["error"]["type"] == "DomainError"


def test_verify_requires_exactly_one_source(capsys):
    code, payload = run_json(capsys, "verify", "--n", "8")
    assert code == 1
    assert "error" in payload


# --- st ---


def test_st_build_round_trip(capsys):
    code, payload = run_json(
        capsys, "st", "build", "--n", "61", "--s", "18", "--set", "0,4,5,6"
    )
    assert code == 0
    assert payload["t"] == 4
    S = set_from_json(payload["set"])
    props = classify(S)
    assert payload["properties"] == {
        "symmetric": True,
        "sum_free": True,
        "complete": True,
        "size": 18,
    }
    assert (props.symmetric, props.sum_free, props.complete) == (True, True, True)


def test_st_build_bad_parameters(capsys):
    code, payload = run_json(
        capsys, "st", "build", "--n", "34", "--s", "10", "--set", "0"
    )
    assert code == 1
    assert payload["error"]["type"] == "ParameterError"


def test_st_equiv_green(capsys):
    code, payload = run_json(capsys, "st", "equiv", "--n", "61", "--s", "18")
    assert code == 0
    assert payload["ok"] is True
    assert payload["special_count"] == 4
    assert payload["counterexamples"] == []


def test_st_equiv_counterexample_exits_one(capsys, monkeypatch):
    # a T side that misses one special window must surface on stdout
    missed = enumerate_special(4).sets[0]
    monkeypatch.setattr(
        search_oracle,
        "enumerate_special",
        lambda t, **kwargs: SpecialEnumeration(t, enumerate_special(t).sets[1:]),
    )
    code, out, _ = run(capsys, "st", "equiv", "--n", "61", "--s", "18")
    assert code == 1
    assert '"ok":false' in out
    assert json.loads(out)["counterexamples"] == [list(missed.members)]


# --- special ---


def test_special_enum_golden_bytes(capsys):
    code, out, _ = run(capsys, "special", "enum", "--t", "3")
    assert code == 0
    assert out == '{"t":3,"g":2,"sets":[[0,2,4],[0,3,4]]}\n'


def test_special_enum_count_only(capsys):
    code, payload = run_json(capsys, "special", "enum", "--t", "5", "--count-only")
    assert code == 0
    assert payload == {"t": 5, "g": 3}


def test_special_predict(capsys):
    code, payload = run_json(capsys, "special", "predict", "--p", "31", "--r", "1")
    assert code == 0
    assert payload["count"] == 60
    assert payload["asymptotic_claim"] is True
    assert payload["vacuous"] is False


@pytest.mark.parametrize(
    "p",
    [
        # 399165290221 * 798330580441, the least composite that passes
        # Miller-Rabin to every prime base up to 37
        "318665857834031151167461",
        # 1287836182261 * 2575672364521
        "3317044064679887385961981",
    ],
)
def test_special_predict_refuses_p_beyond_the_proven_primality_range(capsys, p):
    code, payload = run_json(capsys, "special", "predict", "--p", p, "--r", "2")
    assert code == 1
    assert payload["error"]["type"] == "DomainError"


# --- constructions ---


def test_small_build_golden(capsys):
    code, payload = run_json(
        capsys, "small", "build", "--t", "1", "--d", "2", "--k", "4",
        "--variant", "11",
    )
    assert code == 0
    assert payload["n"] == 27
    assert payload["set"]["elements"] == [8, 10, 12, 13, 14, 15, 17, 19]


def test_ladder_n1000(capsys):
    code, payload = run_json(capsys, "ladder", "--n", "1000")
    assert code == 0
    assert len(payload["rungs"]) == 1
    rung = payload["rungs"][0]
    assert rung["size"] == 157
    assert len(rung["set"]) == 157
    assert (rung["t"], rung["d"], rung["k"]) == (45, 31, 6)


def test_ladder_below_threshold(capsys):
    code, payload = run_json(capsys, "ladder", "--n", "100")
    assert code == 1
    assert payload["error"]["type"] == "ParameterError"


def test_density_refined_vs_ladder_only(capsys):
    _, refined = run_json(capsys, "density", "--n", "10000", "--alpha", "0.25")
    _, coarse = run_json(
        capsys, "density", "--n", "10000", "--alpha", "0.25", "--ladder-only"
    )
    assert refined["size"] == 2499
    assert coarse["size"] == 2349
    assert refined["gap"] < coarse["gap"]


# --- search ---


def test_search_exhaustive_with_classes(capsys):
    code, payload = run_json(capsys, "search", "exhaustive", "--n", "8", "--classes")
    assert code == 0
    assert payload["count"] == 3
    assert [m["elements"] for m in payload["members"]] == [
        [3, 4, 5],
        [1, 4, 7],
        [1, 3, 5, 7],
    ]
    assert [c["representative"]["elements"] for c in payload["classes"]] == [
        [3, 4, 5],
        [1, 3, 5, 7],
    ]


def test_search_exhaustive_size_filter(capsys):
    code, payload = run_json(
        capsys, "search", "exhaustive", "--n", "8", "--size", "3"
    )
    assert code == 0
    assert payload["size_filter"] == 3
    assert payload["count"] == 2


def test_search_maxsumfree(capsys):
    code, payload = run_json(capsys, "search", "maxsumfree", "--p", "11")
    assert code == 0
    assert payload["max_size"] == 4
    assert payload["count"] == 5
    assert payload["classes"][0]["representative"]["elements"] == [4, 5, 6, 7]


def test_search_probe(capsys):
    code, payload = run_json(capsys, "search", "probe", "--p", "31", "--s", "10")
    assert code == 0
    assert payload["exact_match"] is True
    assert payload["catalog_count"] == 15
    assert payload["predicted"] is None


# --- graph and partition ---


def test_cayley_json(capsys):
    code, payload = run_json(capsys, "cayley", "--n", "8", "--set", "3,4,5")
    assert code == 0
    assert payload == {
        "n": 8,
        "degree": 3,
        "regular": True,
        "triangle_free": True,
        "diameter": 2,
        "diameter_sampled": False,
    }


def test_cayley_dot_is_text(capsys):
    code, out, _ = run(capsys, "cayley", "--n", "5", "--set", "2,3",
                       "--format", "dot")
    assert code == 0
    assert out.startswith("graph cayley_5 {\n")
    assert out.endswith("}\n")


def test_cayley_edges_text(capsys):
    code, out, _ = run(capsys, "cayley", "--n", "5", "--set", "2,3",
                       "--format", "edges")
    assert code == 0
    assert out == "0 2\n0 3\n1 3\n1 4\n2 4\n"


def test_dioid_green(capsys):
    code, payload = run_json(
        capsys, "dioid", "--p", "5", "--set", "2,3"
    )
    assert code == 0
    assert payload["all_ok"] is True
    assert payload["part_sizes"] == [1, 2, 2]


def test_dioid_rejects_non_qualifying_set(capsys):
    code, payload = run_json(capsys, "dioid", "--p", "7", "--set", "1,6")
    assert code == 1
    assert payload["error"]["type"] == "DomainError"


# --- simulation ---


def test_simulate_golden(capsys):
    code, payload = run_json(
        capsys, "simulate", "cameron", "--horizon", "3000", "--trials", "4000",
        "--seed", "11", "--mod", "5", "--set", "2,3",
    )
    assert code == 0
    assert payload["contained_trials"] == 80
    assert payload["joined_total"] == 48352
    assert payload["containment_rate"] == 0.02


def test_simulate_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "cameron", "--horizon", "10", "--trials", "2"])
    assert exc.value.code == 2


WORKER_COMMANDS = [
    ["st", "equiv", "--n", "61", "--s", "18"],
    ["special", "enum", "--t", "3"],
    ["search", "exhaustive", "--n", "8"],
    ["search", "probe", "--p", "29", "--s", "8"],
    ["simulate", "cameron", "--horizon", "50", "--trials", "3", "--seed", "1"],
]


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_threads_below_one_rejected(capsys, threads):
    # refused before any search or trial loop; no worker process is started
    for argv in WORKER_COMMANDS:
        code, payload = run_json(capsys, *argv, "--threads", threads)
        assert code == 1, argv
        assert payload["error"]["type"] == "ParameterError", argv


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "8", "--set", "3,4,5", "--threads", "1"],
        ["ladder", "--n", "1000", "--budget", "1"],
        ["small", "build", "--t", "2", "--d", "3", "--k", "5", "--variant", "14",
         "--fast"],
    ],
)
def test_flags_only_where_they_act(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_simulate_mod_needs_set(capsys):
    code, payload = run_json(
        capsys, "simulate", "cameron", "--horizon", "10", "--trials", "2",
        "--seed", "1", "--mod", "5",
    )
    assert code == 1
    assert "error" in payload


# --- envelope and process-level behavior ---


def test_usage_error_is_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_dispatch_envelope_fields():
    envelope = dispatch(["st", "build", "--n", "61", "--s", "18",
                         "--set", "0,4,5,6"])
    assert envelope.exit_status == 0
    assert "elapsed_s" in envelope.diagnostics
    assert not envelope.text


def test_identical_argv_identical_bytes(capsys):
    argv = ["search", "probe", "--p", "29", "--s", "8"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_budget_flag_sets_limit(capsys):
    # the sweep at (61, 18) has 4**4 = 256 candidates
    argv = ["st", "equiv", "--n", "61", "--s", "18", "--budget"]
    code, payload = run_json(capsys, *argv, "100")
    assert code == 1
    assert payload["error"]["type"] == "BudgetExceededError"
    code, payload = run_json(capsys, *argv, "300")
    assert code == 0
    assert payload["ok"] is True


def test_closed_stdout_is_quiet():
    # the reader takes 80 bytes of a ~2.4 MB payload and closes the pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "sumfree", "ladder", "--n", "100000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    proc.stdout.read(80)
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in stderr


def test_threads_flag_does_not_change_output(capsys):
    argv = ["search", "exhaustive", "--n", "20"]
    _, single, _ = run(capsys, *argv)
    _, multi, _ = run(capsys, *argv, "--threads", "3")
    assert single == multi


# --- one parser per process ---


PARSE_LINES = [
    ["verify", "--n", "8", "--set", "3,4,5"],
    ["st", "equiv", "--n", "61", "--s", "18", "--budget", "300", "--pretty"],
    ["search", "exhaustive", "--n", "20", "--classes", "--threads", "2"],
    ["search", "exhaustive", "--n", "20"],
    ["verify", "--n", "8", "--set-file", "set.json", "--pretty"],
    ["simulate", "cameron", "--horizon", "10", "--trials", "2", "--seed", "1",
     "--mod", "5", "--set", "2,3"],
    ["simulate", "cameron", "--horizon", "10", "--trials", "2", "--seed", "1"],
    ["cayley", "--n", "8", "--set", "3,4,5", "--format", "dot"],
    ["special", "enum", "--t", "3", "--count-only"],
    ["special", "enum", "--t", "3"],
]


def test_shared_parser_parses_like_a_fresh_one():
    # a value one command line sets must not stay behind for the next
    shared = cli._parser()
    for argv in PARSE_LINES + PARSE_LINES[::-1]:
        assert vars(shared.parse_args(argv)) == vars(build_parser().parse_args(argv))
    assert cli._parser() is shared


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    requests = [PARSE_LINES[0], PARSE_LINES[1], PARSE_LINES[-1]]
    for argv in requests * 3:
        assert main(argv) == 0
    assert len(built) == 1


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_examples():
    """(argv, shown stdout) for every `$ sumfree ...` line in the README."""
    lines = README.read_text(encoding="utf-8").splitlines()
    return [
        (shlex.split(line[len("$ sumfree "):]), lines[i + 1] + "\n")
        for i, line in enumerate(lines)
        if line.startswith("$ sumfree ")
    ]


def test_readme_examples_twice_in_one_process(capsys):
    examples = _readme_examples()
    assert len(examples) >= 3
    first = [run(capsys, *argv)[:2] for argv, _ in examples]
    second = [run(capsys, *argv)[:2] for argv, _ in examples]
    assert first == second
    for (argv, shown), (code, out) in zip(examples, first):
        assert (code, out) == (0, shown), argv


@pytest.mark.parametrize(
    "bad",
    [
        ["search", "exhaustive", "--n", "8", "--size"],
        ["search", "exhaustive", "--n", "8", "--classes", "--bogus"],
        ["search", "nowhere", "--n", "8"],
    ],
)
def test_usage_error_leaves_the_next_request_unchanged(capsys, bad):
    argv = ["search", "exhaustive", "--n", "8"]
    before = run(capsys, *argv)[:2]
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *argv)[:2] == before
