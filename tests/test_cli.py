"""End-to-end driver checks: coverage of every exposed operation, exit codes,
output formats, and deterministic --stable output."""

import csv
import functools
import io
import json
import os
import subprocess
import sys

import pytest

import gpylab
from gpylab import bv, cli, combinat, oracle, sequences, singular, weights
from gpylab import primes as prime_engine
from gpylab import tuples as tc

# One cheap canonical invocation per subcommand named in OPERATION_MAP.
INVOCATIONS = {
    "primes": ["primes", "--hi", "2000", "--theta", "--q", "4", "--a", "1", "--error"],
    "tuple check": ["tuple", "check", "--shifts", "0,2,6", "--h2", "0,6", "--h0", "8"],
    "tuple discriminant": ["tuple", "discriminant", "--shifts", "0,2,6"],
    "tuple regular": ["tuple", "regular", "--shifts", "0,2", "--v", "5"],
    "singular value": ["singular", "value", "--shifts", "0,2", "--h0", "6", "--cutoff", "1e4"],
    "singular average": ["singular", "average", "--shifts", "1,2,3,4,5,6", "--k", "2", "--cutoff", "1e4"],
    "singular monotone": ["singular", "monotone", "--shifts", "1,2,3,4,5,6,7,8", "--kmax", "2", "--cutoff", "1e4"],
    "singular quasidensity": ["singular", "quasidensity", "--shifts", "0,2", "--z", "7"],
    "gpy lambda": ["gpy", "lambda", "--shifts", "0,2", "--n", "101", "--r", "30"],
    "gpy moment1": ["gpy", "moment1", "--h1", "0,2", "--h2", "0,6", "--n", "2000", "--strategy", "both"],
    "gpy moment2": ["gpy", "moment2", "--h1", "0,2", "--h2", "0,6", "--n", "1000", "--h0", "8"],
    "gpy detector": ["gpy", "detector", "--shifts", "1,2,3,4", "--k", "2", "--n", "500", "--v", "3"],
    "combi lemma2": ["combi", "lemma2", "--max", "6"],
    "combi coeffs": ["combi", "coeffs", "--max", "4"],
    "combi divisor-mean": ["combi", "divisor-mean", "--x", "1000", "--m", "3"],
    "oracle t4": ["oracle", "t4", "--h1", "0,2", "--h2", "0,6", "--n", "1e5", "--empirical", "47000"],
    "oracle t5": ["oracle", "t5", "--h1", "0,2", "--h2", "0,6", "--n", "1e5", "--h0", "8"],
    "oracle g00": ["oracle", "g00", "--shifts", "0,2", "--v", "5"],
    "oracle wscan": ["oracle", "wscan", "--tmax", "2", "--step", "0.1", "--t", "1.0"],
    "oracle jprod": ["oracle", "jprod", "--t", "1.0", "--x", "1000"],
    "bv classic": ["bv", "classic", "--n", "2000", "--qmax", "5"],
    "bv restricted": ["bv", "restricted", "--n", "2000", "--qmax", "3", "--v", "2"],
    "bv estar": ["bv", "estar", "--n", "2000", "--qmax", "3"],
    "seq generate": ["seq", "generate", "--kind", "powers_k", "--n", "1000"],
    "verify all": ["verify", "all", "--fast"],
}


# Calls that reach operations the canonical call of their subcommand skips.
EXTRA_INVOCATIONS = {
    "primes": [["primes", "--hi", "2000", "--q", "4", "--estar"]],
}


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_every_operation_has_a_working_subcommand(capsys):
    assert set(cli.OPERATION_MAP.values()) <= set(INVOCATIONS)
    for name, argv in INVOCATIONS.items():
        code, out = run(argv, capsys)
        assert code == cli.EXIT_OK, f"{name}: exit {code}"
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["experiment"] == name


def _recording(fn, name, reached):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        reached.add(name)
        return fn(*args, **kwargs)

    return wrapper


def test_every_mapped_operation_is_reached_by_its_subcommand(monkeypatch, capsys):
    modules = (prime_engine, tc, singular, weights, combinat, oracle, bv, sequences)
    reached = set()
    for name in cli.OPERATION_MAP:
        # The module that defines the function, whose attribute every caller reads.
        owner = next(m for m in modules
                     if getattr(getattr(m, name, None), "__module__", "") == m.__name__)
        monkeypatch.setattr(owner, name, _recording(getattr(owner, name), name, reached))
    for command in set(cli.OPERATION_MAP.values()):
        reached.clear()
        for argv in [INVOCATIONS[command], *EXTRA_INVOCATIONS.get(command, [])]:
            code, _ = run(argv, capsys)
            assert code == cli.EXIT_OK, f"{argv}: exit {code}"
        mapped = {name for name, cmd in cli.OPERATION_MAP.items() if cmd == command}
        assert mapped <= reached, f"{command} never calls {sorted(mapped - reached)}"


def test_stable_envelope_of_every_invocation(capsys):
    for name, argv in INVOCATIONS.items():
        code, out = run([*argv, "--stable", "--seed", "5"], capsys)
        assert code == cli.EXIT_OK, f"{name}: exit {code}"
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["experiment"] == name
        assert payload["seed"] == 5
        assert payload["version"] == "0.1.0"
        assert "runtime_seconds" not in payload
        # Payload keys win over the envelope's: oracle t4 and t5 report
        # their resolved inputs under "params", everything else leaves it empty.
        if name in ("oracle t4", "oracle t5"):
            assert {"N", "R", "V"} <= set(payload["params"])
        else:
            assert payload["params"] == {}
    _, out = run(INVOCATIONS["oracle jprod"], capsys)
    assert "runtime_seconds" in json.loads(out)


def test_usage_error_exit_code(capsys):
    assert cli.main(["primes"]) == cli.EXIT_USAGE
    assert cli.main(["no-such-command"]) == cli.EXIT_USAGE
    assert cli.main([]) == cli.EXIT_USAGE


def test_removed_flags_are_usage_errors(capsys):
    assert cli.main(["primes", "--hi", "100", "--jobs", "2"]) == cli.EXIT_USAGE
    assert cli.main(["primes", "--hi", "100", "--cache", "primes.bin"]) == cli.EXIT_USAGE


def test_cli_import_leaves_sympy_out():
    src = os.path.dirname(os.path.dirname(gpylab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, gpylab.cli; print('sympy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_domain_error_exit_code(capsys):
    # Union {0, 2, 4} occupies every residue mod 3.
    code = cli.main(["gpy", "moment1", "--h1", "0,2", "--h2", "0,4", "--n", "1000"])
    assert code == cli.EXIT_DOMAIN


def test_per_class_needs_the_direct_strategy(capsys):
    # pair_sum_divisor sums every regular class; it has no per-class mode.
    argv = ["gpy", "moment1", "--h1", "0,2", "--h2", "0,6", "--n", "20000", "--per-class", "11"]
    assert cli.main(argv) == cli.EXIT_OK
    for strategy in ("divisor", "both"):
        assert cli.main([*argv, "--strategy", strategy]) == cli.EXIT_DOMAIN


def test_detector_rejects_zero_span(capsys):
    # h = max(A) normalizes the detector sum, so A = {0} has no value.
    code = cli.main(["gpy", "detector", "--shifts", "0", "--k", "1", "--n", "100"])
    assert code == cli.EXIT_DOMAIN


def test_capacity_error_exit_code(capsys):
    code = cli.main(["singular", "quasidensity", "--shifts", "0,2", "--z", "200"])
    assert code == cli.EXIT_CAPACITY


def test_stable_output_is_deterministic(capsys):
    argv = ["oracle", "g00", "--shifts", "0,2", "--v", "5", "--stable"]
    _, first = run(argv, capsys)
    _, second = run(argv, capsys)
    assert first == second
    assert "runtime_seconds" not in json.loads(first)


def test_out_flag_writes_json_file(tmp_path, capsys):
    path = tmp_path / "res.json"
    code, _ = run(["oracle", "jprod", "--t", "1.0", "--x", "100", "--out", str(path)], capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(path.read_text())
    assert payload["J"] > 1.0


def test_csv_format_emits_rows(capsys):
    code, out = run(["oracle", "jprod", "--t", "1.0", "--x", "100", "--format", "csv"], capsys)
    assert code == cli.EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"]
    assert "J" in dict(rows[1:])


def test_csv_report_is_the_same_on_stdout_and_in_a_file(tmp_path, capsys):
    argv = ["tuple", "check", "--shifts", "0,2,6", "--format", "csv", "--stable"]
    code, out = run(argv, capsys)
    assert code == cli.EXIT_OK
    path = tmp_path / "report.csv"
    code, _ = run(argv + ["--out", str(path)], capsys)
    assert code == cli.EXIT_OK
    with open(path, newline="", encoding="utf-8") as fh:
        assert fh.read() == out
    # None is an empty field, as csv.writer writes it.
    assert ["empirical", ""] in list(csv.reader(io.StringIO(out)))


def test_csv_report_leaves_the_tuple_file_of_seq_generate(tmp_path, capsys):
    path = tmp_path / "seq.txt"
    argv = ["seq", "generate", "--kind", "interval", "--n", "100", "--h", "5", "--out", str(path)]
    code, out = run(argv + ["--format", "csv"], capsys)
    assert code == cli.EXIT_OK
    assert [H.shifts for H in tc.read_tuple_file(path)] == [(1, 2, 3, 4, 5)]
    rows = dict(csv.reader(io.StringIO(out)))
    assert rows["file"] == str(path)


def test_empty_sequence_warns_but_succeeds(capsys):
    code, out = run(["seq", "generate", "--kind", "powers_k", "--n", "1"], capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["count"] == 0
    assert "warning" in payload


def test_scientific_notation_integers(capsys):
    code, out = run(["primes", "--hi", "1e3"], capsys)
    assert code == cli.EXIT_OK
    assert json.loads(out)["count"] == 168


def test_moment1_reports_comparison_against_adjusted_prediction(capsys):
    code, out = run(
        ["gpy", "moment1", "--h1", "0,2", "--h2", "0,6", "--n", "20000", "--strategy", "both"],
        capsys,
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["direct"] == pytest.approx(payload["divisor"], rel=1e-9)
    comp = payload["comparison"]
    assert comp["comparable"]
    assert comp["predicted_mid"] == pytest.approx(
        payload["predicted"]["density_adjusted_mid"], rel=1e-12
    )


def test_verify_all_fast_passes(capsys):
    code, out = run(["verify", "all", "--fast"], capsys)
    assert code == cli.EXIT_OK
    assert json.loads(out)["ok"]
