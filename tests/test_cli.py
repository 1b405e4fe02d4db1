"""CLI contract tests: payload shapes, exit codes, and byte determinism.

Commands run in-process through main(argv); stdout carries exactly one
payload (JSON, or DOT/edge text for graph exports) and diagnostics stay
on stderr.
"""

import hashlib
import json
import os
import pathlib
import random
import shlex
import subprocess
import sys
import tracemalloc

import pytest

import sumfree
from oracles import first_difference, rendered_as_lists
from sumfree import cli, search_oracle
from sumfree.cli import CommandEnvelope, build_parser, dispatch, main
from sumfree.special_sets import enumerate_special
from sumfree.zn_core import CyclicSet, classify, set_from_json


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
    honest = search_oracle._special_dfs
    monkeypatch.setattr(
        search_oracle,
        "_special_dfs",
        lambda t: [mask for mask in honest(t) if mask != missed.mask],
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


# --- sets in payloads ---


def _digit_crossings(top):
    """Members 9, 10, 99, 100, ... up to top: every digit count changes."""
    members = [0]
    power = 10
    while power <= top:
        members += [power - 1, power]
        power *= 10
    return members


def _render_cases():
    rng = random.Random(14)
    cases = [
        CyclicSet(1, 0),
        CyclicSet(1, 1),
        CyclicSet(100001, sum(1 << p for p in _digit_crossings(100000))),
        CyclicSet(100001, 1 << 100000),
        CyclicSet(10, 1 << 9),
        CyclicSet(11, 1 << 10),
        CyclicSet(10**6, rng.getrandbits(10**6)),
    ]
    cases += [CyclicSet(n, rng.getrandbits(n)) for n in (2, 9, 40, 130, 2000, 99999)]
    for size in (2, 3, 10, 199, 200, 201):
        n = 3 * size + rng.randrange(5)
        cases.append(CyclicSet.from_elements(n, rng.sample(range(n), size)))
    return cases


RENDER_CASES = _render_cases()


@pytest.mark.parametrize("pretty", [False, True])
def test_sets_render_like_member_lists(pretty):
    payloads = list(RENDER_CASES)
    payloads.append({"n": 5, "rungs": [{"size": S.size, "set": S} for S in RENDER_CASES]})
    payloads.append({"t": 1, "set": {"n": 27, "elements": RENDER_CASES[2]}, "size": 3})
    payloads.append([[RENDER_CASES[-1], RENDER_CASES[1]], {"a": [RENDER_CASES[2]]}])
    for payload in payloads:
        rendered = CommandEnvelope(payload, pretty=pretty).rendered()
        assert first_difference(rendered, rendered_as_lists(payload, pretty)) is None


def test_non_set_objects_still_fail_to_render():
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        CommandEnvelope({"x": object()}).rendered()


@pytest.mark.parametrize("pretty", [False, True])
def test_placeholder_strings_in_a_payload_fail_to_render(pretty):
    # a string that reads as a set's placeholder would shift every set after it
    payload = {"note": cli._PLACEHOLDER, "set": CyclicSet(7, 0b1011)}
    with pytest.raises(ValueError, match="2 set placeholders for 1 sets"):
        CommandEnvelope(payload, pretty=pretty).rendered()
    assert CommandEnvelope({"note": cli._PLACEHOLDER}, pretty=pretty).rendered()


# sha256 of stdout before large sets were written from their bit masks
LARGE_SET_STDOUT = [
    ("ladder --n 1000",
     "b34df9a401b1422cb73096bed2c84c33b2f55c19d6da7a1a8c900e2d3fb5dc17"),
    ("ladder --n 1000 --pretty",
     "d37eb002e7bc1afae2778c81dd339ea6c5fb31d6c2bb8741a7125e7a5f55efb3"),
    ("density --n 1000 --alpha 0.25",
     "cdd847e5b0d7c4bf8a11440bcbf70349f6f0d8fb13002daad9f317257661ad3a"),
    ("density --n 1000 --alpha 0.25 --pretty",
     "c8d426a79c5b5e4eb6579878f8f0fb31ec6294982ab3232fd691469921db2e14"),
    ("density --n 1000 --alpha 0.3 --ladder-only",
     "1c502898f329733a4300ed1a3c648a70ed8bba8ae588017ebce65dfdadd7ea08"),
    ("density --n 1000 --alpha 0.3 --ladder-only --pretty",
     "9aaa27fd24854d5c3337664b6b2e82a9420824407badec35a676ffec718da448"),
    ("small build --t 81 --d 3 --k 44 --variant 14",
     "ad556a9a791eaa46d5735e9995d0f087bbe7e6cfd0685596dc6c24c1678d7546"),
    ("small build --t 81 --d 3 --k 44 --variant 14 --pretty",
     "c40dda87d819807743639e8a67932449b60a7d95096ac92a9937069b6da33873"),
    ("ladder --n 12000",
     "558a8034569d0b97b4ddf79c1154a689810f64f04c4d7cc26207768250b9516d"),
    ("ladder --n 12000 --pretty",
     "36fe55651479e65f1eed9586bf537b83f5280f64ce2dd44a73b54741a5e2d119"),
    ("density --n 12000 --alpha 0.25",
     "dc591efff32f46e963e514efa3f35b725ee415323f9d2680d817fbb74d36ae9b"),
    ("density --n 12000 --alpha 0.25 --pretty",
     "05b4297cd9c99c3d9a7b2412fcd2e5560c2bc7ab98b281c75d80f619e572d309"),
    ("density --n 12000 --alpha 0.3 --ladder-only",
     "d0e47a37bce7c96a3e1dd5945ff17cc19b8d8717ef7fb10e0d900440a09feff7"),
    ("density --n 12000 --alpha 0.3 --ladder-only --pretty",
     "f89f40b2164eaad63e8b047da69a346208685325ecf3938c47a10eeb3dc4c208"),
    ("small build --t 1197 --d 4 --k 302 --variant 14",
     "cc75dd4b2bcadf05223fc247f8b99589f2342b05f60ebccd0a36e47d495f1330"),
    ("small build --t 1197 --d 4 --k 302 --variant 14 --pretty",
     "eee5c059a58e98c10598f8a957525ccec397d4f35b1f6adc2999bda5fd68f42f"),
    ("ladder --n 100000",
     "137718acffa4c831a02fa69d42feafe5419e6fcf62164d0d62a759ac8dc66d2b"),
    ("ladder --n 100000 --pretty",
     "190d81e11ef7ee7306ca2c8547962a2fc5ce31ca97006dac333a70df6e8cc973"),
    ("density --n 100000 --alpha 0.25",
     "cd7623dde76540b568a3c22d4fd705d74c18a4df6a4030e20bb499b4d9294b7b"),
    ("density --n 100000 --alpha 0.25 --pretty",
     "dcf699b1d289cdf2e6016c41abbd3e9c2a79fffc15027d190a31698fe29ca92a"),
    ("density --n 100000 --alpha 0.3 --ladder-only",
     "264b982dcd90f24272712c67ad18bb329ad834bad63ebaa284e29787995571cb"),
    ("density --n 100000 --alpha 0.3 --ladder-only --pretty",
     "b0ba8519951c10c6c9eb9dbffd3b3681194b287d37351f4890d5a48f6ebf71cc"),
    ("small build --t 8331 --d 3 --k 4169 --variant 14",
     "af33d1d853fe0fd662d2fb2a3641e7193d5443de2d500cda0683f2e1d25dde13"),
    ("small build --t 8331 --d 3 --k 4169 --variant 14 --pretty",
     "7fe1258fbbfe03675b6d90839506a2be3badf2eabc136207df59fda4f45fb45f"),
]


@pytest.mark.parametrize("line, digest", LARGE_SET_STDOUT)
def test_large_set_stdout_is_unchanged(capsys, line, digest):
    code, out, _ = run(capsys, *line.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    envelope = dispatch(line.split())
    expected = rendered_as_lists(envelope.payload, envelope.pretty) + "\n"
    assert first_difference(out, expected) is None


def test_ladder_at_scale_renders_without_member_lists():
    # building the 25 rungs' member lists and rendering them peaked at
    # 21.4 MiB; the text itself is 2.5 MB
    tracemalloc.start()
    try:
        text = dispatch(["ladder", "--n", "100000"]).rendered()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 2_000_000
    assert peak <= 10 << 20


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


def test_search_exhaustive_negative_size_refused(capsys):
    # no set has a negative size; this printed an empty catalog and exited 0
    code, payload = run_json(
        capsys, "search", "exhaustive", "--n", "40", "--size", "-1"
    )
    assert code == 1
    assert payload["error"]["type"] == "ParameterError"


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


# --- deferred imports ---


def _fresh_stdout(line):
    """Stdout of ``python -m sumfree`` on line, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "sumfree", *line.split()],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# the handlers that import applications when they run, with the stdout the
# in-process tests above pin; nothing else has loaded applications or numpy
# in a fresh interpreter
FRESH_INTERPRETER_STDOUT = [
    ("cayley --n 8 --set 3,4,5",
     '{"n":8,"degree":3,"regular":true,"triangle_free":true,"diameter":2,'
     '"diameter_sampled":false}\n'),
    ("cayley --n 5 --set 2,3 --format edges", "0 2\n0 3\n1 3\n1 4\n2 4\n"),
    ("dioid --p 5 --set 2,3",
     '{"p":5,"part_sizes":[1,2,2],"parts":[{"n":5,"elements":[0]},'
     '{"n":5,"elements":[2,3]},{"n":5,"elements":[1,4]}],"products":'
     '[[0,0,[0]],[0,1,[1]],[0,2,[2]],[1,0,[1]],[1,1,[0,2]],[1,2,[1,2]],'
     '[2,0,[2]],[2,1,[1,2]],[2,2,[0,1]]],"axioms":{"sums_are_part_unions":true,'
     '"identity_part":true,"negation_closed":true},"all_ok":true}\n'),
    ("simulate cameron --horizon 3000 --trials 4000 --seed 11 --mod 5 --set 2,3",
     '{"horizon":3000,"trials":4000,"seed":11,"mod":5,"set":[2,3],'
     '"contained_trials":80,"joined_total":48352,"containment_rate":0.02,'
     '"conditional_density":0.20146666666666666}\n'),
]


@pytest.mark.parametrize(
    "line, expected",
    FRESH_INTERPRETER_STDOUT,
    ids=[line for line, _ in FRESH_INTERPRETER_STDOUT],
)
def test_applications_commands_in_a_fresh_interpreter(line, expected):
    assert _fresh_stdout(line) == expected


def test_sets_render_through_numpy_in_a_fresh_interpreter():
    # positions_text imports numpy on first use
    line = "ladder --n 1000"
    digest = hashlib.sha256(_fresh_stdout(line).encode()).hexdigest()
    assert digest == dict(LARGE_SET_STDOUT)[line]


WORKER_COMMANDS = [
    ["st", "equiv", "--n", "61", "--s", "18"],
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
        ["special", "enum", "--t", "3", "--threads", "2"],
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
    assert isinstance(envelope.payload, dict)


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


@pytest.mark.parametrize(
    "argv, count",
    [
        (["search", "exhaustive", "--n", "30000"], "2**15000"),
        (["special", "enum", "--t", "8000"], "more than 2**15992"),
        (["st", "equiv", "--n", "100001", "--s", "28572"], "2**14286"),
    ],
    ids=["search-exhaustive", "special-enum", "st-equiv"],
)
def test_budget_refusal_beyond_printable_digits(capsys, argv, count):
    # each count has more than the 4300 decimal digits int -> str allows
    code, payload = run_json(capsys, *argv)
    assert code == 1
    assert payload["error"]["type"] == "BudgetExceededError"
    assert f" {count} " in payload["error"]["message"]


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
