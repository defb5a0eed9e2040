"""End-to-end driver checks: coverage of every exposed operation, exit codes,
the JSON report's envelope, and deterministic --stable output."""

import argparse
import functools
import json
import math
import os
import subprocess
import sys
import time

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
        assert payload["schema_version"] == 2
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


# The keys the envelope used to write, and the only calls whose payload has them.
_PAYLOAD_ONLY = {
    "seed": {"verify all"},
    "params": {"oracle t4", "oracle t5"},
    "empirical": {"gpy moment2"},
    "predicted_mid": set(),
    "predicted_rad": set(),
}


def test_stable_envelope_of_every_invocation(capsys):
    # The envelope holds only what is true of every call.
    for name, argv in INVOCATIONS.items():
        seed = ["--seed", "5"] if name == "verify all" else []
        code, out = run([*argv, *seed, "--stable"], capsys)
        assert code == cli.EXIT_OK, f"{name}: exit {code}"
        payload = json.loads(out)
        assert payload["schema_version"] == 2
        assert payload["experiment"] == name
        assert payload["version"] == "0.1.0"
        assert "runtime_seconds" not in payload
        for key, owners in _PAYLOAD_ONLY.items():
            assert (key in payload) == (name in owners), f"{name}: {key}"
            assert payload.get(key, "absent") is not None, f"{name}: {key}"
        if name == "verify all":
            assert payload["seed"] == 5
        if name in ("oracle t4", "oracle t5"):
            assert {"N", "R", "V"} <= set(payload["params"])
    _, out = run(INVOCATIONS["oracle jprod"], capsys)
    assert "runtime_seconds" in json.loads(out)


def test_usage_error_exit_code(capsys):
    assert cli.main(["primes"]) == cli.EXIT_USAGE
    assert cli.main(["no-such-command"]) == cli.EXIT_USAGE
    assert cli.main([]) == cli.EXIT_USAGE


def test_removed_flags_are_usage_errors(capsys):
    assert cli.main(["primes", "--hi", "100", "--jobs", "2"]) == cli.EXIT_USAGE
    assert cli.main(["primes", "--hi", "100", "--cache", "primes.bin"]) == cli.EXIT_USAGE
    assert cli.main(["primes", "--hi", "100", "--format", "json"]) == cli.EXIT_USAGE
    assert cli.main(["gpy", "lambda", "--shifts", "0,2", "--n", "101", "--r", "30",
                     "--seed", "1"]) == cli.EXIT_USAGE


def test_unopenable_out_path_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    assert cli.main(["primes", "--hi", "10", "--out", str(path)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and str(path) in captured.err
    assert not path.parent.exists()


def test_negative_identity_grid_bound_is_a_domain_error(capsys):
    assert cli.main(["combi", "lemma2", "--max", "-1"]) == cli.EXIT_DOMAIN
    assert cli.main(["combi", "coeffs", "--max", "-1"]) == cli.EXIT_DOMAIN
    assert "bound -1" in capsys.readouterr().err
    code, out = run(["combi", "lemma2", "--max", "0"], capsys)
    assert code == cli.EXIT_OK and json.loads(out)["checked"] == 1
    code, out = run(["combi", "coeffs", "--max", "0"], capsys)
    assert code == cli.EXIT_OK and json.loads(out)["identity_mismatches"] == []


def test_refused_shift_lists_say_why(capsys):
    for argv, why in (
        (["tuple", "check", "--shifts", "2,2"], "argument --shifts: duplicate shifts in (2, 2)"),
        (["tuple", "check", "--shifts", "0,-1"], "argument --shifts: negative shift in (0, -1)"),
        (["oracle", "t5", "--h1", "0,2", "--h2", "2,2", "--n", "1e5", "--h0", "8"],
         "argument --h2: duplicate shifts in (2, 2)"),
    ):
        assert cli.main(argv) == cli.EXIT_USAGE, argv
        assert f"error: {why}\n" in capsys.readouterr().err, argv


def test_help_of_every_parser_exits_zero(capsys):
    names = [tuple(name.split()) for name in INVOCATIONS]
    for command in sorted({()} | {name[:1] for name in names} | set(names)):
        assert cli.main([*command, "--help"]) == cli.EXIT_OK, command
        assert "usage: gpylab" in capsys.readouterr().out, command


def test_cli_import_leaves_sympy_out():
    src = os.path.dirname(os.path.dirname(gpylab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, gpylab.cli; print('sympy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_help_and_usage_errors_leave_numpy_out():
    # The parser reads sequences.KINDS; only an interval sequence needs primes.
    src = os.path.dirname(os.path.dirname(gpylab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, gpylab.cli\n"
        "code = gpylab.cli.main(sys.argv[1:])\n"
        "print(code, 'numpy' in sys.modules, 'gpylab.primes' in sys.modules)"
    )
    for argv, code in ((["--help"], cli.EXIT_OK), (["bv", "classic", "--n", "x"], cli.EXIT_USAGE)):
        proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-3:] == [str(code), "False", "False"], argv


# The gpylab modules one call of each subcommand loads, on top of the cli,
# errors, and sequences for the parser's --kind choices.
_FOOTPRINT = {
    "primes": {"primes"},
    "tuple check": {"tuples", "primes"},
    "singular value": {"singular", "tuples", "primes"},
    "gpy lambda": {"weights", "tuples", "primes"},
    "combi lemma2": {"combinat", "primes"},
    "oracle t4": {"oracle", "singular", "tuples", "primes"},
    "bv classic": {"bv", "primes"},
    "seq generate": set(),
    "verify all": {"combinat", "tuples", "primes"},
}

_FOOTPRINT_PROBE = """
import os, sys
from gpylab import cli
code = cli.main([*sys.argv[1:], "--out", os.devnull])
print(*sorted(m for m in sys.modules if m.startswith("gpylab.")))
sys.exit(code)
"""


def test_each_call_loads_only_its_subcommands_modules():
    assert {name.split()[0] for name in _FOOTPRINT} == {name.split()[0] for name in INVOCATIONS}
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gpylab.__file__)))
    for name, extra in _FOOTPRINT.items():
        proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_PROBE, *INVOCATIONS[name]],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        loaded = {m.removeprefix("gpylab.") for m in proc.stdout.split()}
        assert loaded == {"cli", "errors", "sequences"} | extra, name


def test_domain_error_exit_code(capsys):
    for argv in (
        # Union {0, 2, 4} occupies every residue mod 3.
        ["gpy", "moment1", "--h1", "0,2", "--h2", "0,4", "--n", "1000"],
        # 561 = 3 * 11 * 17, a Carmichael number.
        ["tuple", "check", "--shifts", "0,2", "--p", "561"],
        # The predictions' error_scale takes log log N, positive from N = 3.
        ["oracle", "t4", "--h1", "0", "--h2", "0", "--n", "1"],
        ["oracle", "t4", "--h1", "0", "--h2", "0", "--n", "2"],
        ["oracle", "t5", "--h1", "0", "--h2", "0", "--h0", "2", "--n", "1"],
        ["gpy", "moment1", "--h1", "0", "--h2", "0", "--n", "1"],
        ["gpy", "moment2", "--h1", "0", "--h2", "0", "--h0", "2", "--n", "1"],
    ):
        assert cli.main(argv) == cli.EXIT_DOMAIN, argv


def test_tuple_check_at_the_largest_prime_the_factoriser_decides(capsys):
    code, out = run(["tuple", "check", "--shifts", "0,2", "--p", "999999999989"], capsys)
    assert code == cli.EXIT_OK
    assert json.loads(out)["nu_p"] == {"999999999989": 2}


def test_wscan_rejects_grid_before_scanning(capsys):
    # An empty grid and an end past |t| = 1000 are refused up front, as
    # domain errors rather than tracebacks; a non-finite end is refused by
    # the flag's type (test_oracle checks that the library refuses it too).
    for tmax in ("0", "1000.01"):
        code = cli.main(["oracle", "wscan", "--tmax", tmax, "--step", "0.01"])
        assert code == cli.EXIT_DOMAIN
    for tmax in ("nan", "inf"):
        code = cli.main(["oracle", "wscan", "--tmax", tmax, "--step", "0.01"])
        assert code == cli.EXIT_USAGE


def test_per_class_needs_the_direct_strategy(capsys):
    # pair_sum_divisor sums every regular class; it has no per-class mode.
    argv = ["gpy", "moment1", "--h1", "0,2", "--h2", "0,6", "--n", "20000", "--per-class", "11"]
    assert cli.main(argv) == cli.EXIT_OK
    for strategy in ("divisor", "both"):
        assert cli.main([*argv, "--strategy", strategy]) == cli.EXIT_DOMAIN


def test_moment2_has_no_per_class_flag(capsys):
    # main_term_t5 predicts the sum over every regular class, so a one-class
    # theta sum has nothing to be compared with.
    argv = ["gpy", "moment2", "--h1", "0,2", "--h2", "0,6", "--h0", "12", "--n", "1e5"]
    assert cli.main([*argv, "--per-class", "11"]) == cli.EXIT_USAGE


def test_singular_value_reports_h0_only_when_given(capsys):
    argv = INVOCATIONS["singular value"]
    _, out = run(argv, capsys)
    assert json.loads(out)["h0"] == 6
    i = argv.index("--h0")
    _, out = run(argv[:i] + argv[i + 2:], capsys)
    assert "h0" not in json.loads(out)


def test_detector_rejects_zero_span(capsys):
    # h = max(A) normalizes the detector sum, so A = {0} has no value.
    code = cli.main(["gpy", "detector", "--shifts", "0", "--k", "1", "--n", "100"])
    assert code == cli.EXIT_DOMAIN


def test_capacity_error_exit_code(capsys):
    # Each guard fires before the allocation it bounds, so no call does work;
    # unguarded, each of the last three runs past 45 s.
    for argv in (
        ["singular", "quasidensity", "--shifts", "0,2", "--z", "200"],
        ["oracle", "wscan", "--tmax", "1000", "--step", "1e-9"],
        ["oracle", "jprod", "--t", "1.0", "--x", str(oracle.MAX_J_X + 1)],
        ["combi", "divisor-mean", "--x", str(combinat.MAX_DIVISOR_MEAN_X + 1), "--m", "2"],
        # Unguarded, these two exit 1 with a MemoryError.
        ["bv", "restricted", "--n", "3e8", "--qmax", "1", "--v", "23"],
        ["gpy", "moment1", "--h1", "0,2", "--h2", "0,6", "--n", "1e12"],
        # The window routes refuse N > 2^27 before any chunk; the divisor
        # route runs to N < 2^62, as it counts 2N in int64.
        ["gpy", "moment1", "--h1", "0,2", "--h2", "2,6", "--n", "1e17", "--strategy", "both"],
        ["gpy", "moment2", "--h1", "0,2", "--h2", "2,6", "--n", str(2**27 + 1), "--h0", "8"],
        ["gpy", "detector", "--shifts", "0,2,6", "--k", "2", "--n", str(2**27 + 1)],
        ["gpy", "moment1", "--h1", "0,2", "--h2", "2,6", "--n", str(2**62), "--theta", "0.05",
         "--strategy", "divisor"],
        ["bv", "classic", "--n", "1e9", "--qmax", "1e8"],
        ["bv", "classic", "--n", "1e8", "--qmax", "2e4"],
        ["singular", "value", "--shifts", "0,2", "--cutoff", "1e12"],
        ["primes", "--hi", "1e12"],
        # phi(q) of a modulus past factorize's bound; unguarded, these ran
        # past 20 s.
        ["primes", "--hi", "100", "--q", "1000000000000000003", "--a", "1", "--error"],
        ["primes", "--hi", "100", "--q", "1000000000000000003", "--estar"],
        # Unguarded, lemma2 ran past 15 s.
        ["combi", "lemma2", "--max", "1000"],
        ["combi", "coeffs", "--max", "1000"],
        # The next prime past factorize's bound, which decides primality.
        ["tuple", "check", "--shifts", "0,2", "--p", "1000000000039"],
        # S*(7) on [1, 100] needs 2 C(49, 6) = 28 M estimate rows.
        ["singular", "monotone", "--shifts", ",".join(map(str, range(1, 101))), "--kmax", "7"],
        # A list of 10^9 terms, about 40 GB; under a 2 GB address-space cap
        # it exited 1 with a MemoryError.
        ["seq", "generate", "--kind", "interval", "--n", "1e9", "--h", "1e9"],
    ):
        start = time.perf_counter()
        assert cli.main(argv) == cli.EXIT_CAPACITY, argv
        assert time.perf_counter() - start < 1.0, argv


def test_theta_progression_past_int64_moduli(capsys):
    # p % q = p for every p <= hi < q: theta(100; 10^20, a) is log a at a
    # prime a <= 100, else 0.  These once exited 1 with an OverflowError.
    for a, want in (("1", 0.0), ("2", math.log(2)), ("99999999999999999999", 0.0)):
        argv = ["primes", "--hi", "100", "--q", "100000000000000000000", "--a", a]
        start = time.perf_counter()
        code, out = run(argv, capsys)
        assert code == cli.EXIT_OK, argv
        assert time.perf_counter() - start < 1.0, argv
        assert json.loads(out)["theta_progression"] == want


def test_estar_past_uint32_moduli(capsys):
    # p % q = p for every p <= hi < q: a q past 2**32 never meets the uint32
    # table, where it would raise OverflowError.
    code, out = run(["primes", "--hi", "1000", "--q", "5000000006", "--estar"], capsys)
    assert code == cli.EXIT_OK
    assert json.loads(out)["estar"] == 6.904750371080192


def test_non_finite_numbers_are_refused(capsys):
    # Each ends in a usage or domain error before any work, where it once
    # exited 1 with a traceback or reported a NaN or an infinity.
    pair = ["--h1", "0,2", "--h2", "0,6", "--n", "1000"]
    for argv, want in (
        (["primes", "--hi", "1e400"], cli.EXIT_USAGE),
        (["combi", "lemma2", "--max", "1e400"], cli.EXIT_USAGE),
        (["gpy", "lambda", "--shifts", "0,2", "--n", "1e400", "--r", "30"], cli.EXIT_USAGE),
        (["seq", "generate", "--kind", "custom_exponents", "--n", "100", "--exponents", "1,x"],
         cli.EXIT_USAGE),
        (["gpy", "lambda", "--shifts", "0,2", "--n", "101", "--r", "inf"], cli.EXIT_USAGE),
        (["gpy", "moment1", *pair, "--theta", "inf"], cli.EXIT_USAGE),
        (["gpy", "detector", "--shifts", "1,2,3,4", "--k", "2", "--n", "500", "--theta", "inf"],
         cli.EXIT_USAGE),
        (["oracle", "t4", *pair, "--theta", "inf"], cli.EXIT_USAGE),
        (["oracle", "t4", *pair, "--empirical", "nan"], cli.EXIT_USAGE),
        (["oracle", "jprod", "--t", "nan", "--x", "100"], cli.EXIT_USAGE),
        (["oracle", "jprod", "--t", "inf", "--x", "100"], cli.EXIT_USAGE),
        (["oracle", "wscan", "--t", "inf"], cli.EXIT_USAGE),
        (["singular", "monotone", "--shifts", "1,2,3,4", "--kmax", "2", "--floor", "nan"],
         cli.EXIT_USAGE),
        # A finite theta whose level R = (3N)^theta overflows a float.
        (["gpy", "moment1", *pair, "--theta", "1000"], cli.EXIT_DOMAIN),
        (["gpy", "detector", "--shifts", "1,2,3,4", "--k", "2", "--n", "500", "--theta", "1000"],
         cli.EXIT_DOMAIN),
        (["oracle", "t4", *pair, "--theta", "1000"], cli.EXIT_DOMAIN),
    ):
        start = time.perf_counter()
        code, out = run(argv, capsys)
        assert code == want, argv
        assert time.perf_counter() - start < 1.0, argv
        assert "NaN" not in out and "Infinity" not in out, argv


def test_stable_output_is_deterministic(capsys):
    argv = ["oracle", "g00", "--shifts", "0,2", "--v", "5", "--stable"]
    _, first = run(argv, capsys)
    _, second = run(argv, capsys)
    assert first == second
    assert "runtime_seconds" not in json.loads(first)


def test_out_flag_writes_json_file(tmp_path, capsys):
    for argv, check in (
        (["oracle", "jprod", "--t", "1.0", "--x", "100"], lambda p: p["J"] > 1.0),
        (["seq", "generate", "--kind", "interval", "--n", "100", "--h", "5"],
         lambda p: p["values_head"] == [1, 2, 3, 4, 5] and "file" not in p),
    ):
        path = tmp_path / "res.json"
        code, out = run([*argv, "--out", str(path)], capsys)
        assert code == cli.EXIT_OK, argv
        assert out == "", argv
        assert check(json.loads(path.read_text())), argv


def test_custom_exponents_stop_before_a_huge_power(capsys):
    # 2^100000000000 is never computed: past 2^7 > 100 no power is.  This
    # once ran past 20 s.
    argv = ["seq", "generate", "--kind", "custom_exponents", "--n", "100", "--k", "2",
            "--exponents", "3,100000000000"]
    start = time.perf_counter()
    code, out = run(argv, capsys)
    assert code == cli.EXIT_OK
    assert time.perf_counter() - start < 1.0
    assert json.loads(out)["values_head"] == [8]


def test_divisor_mean_refuses_a_bound_past_float_range(capsys):
    # x (1 + log x)^m at x = 100 is finite at m = 409 and overflows from
    # m = 410, where the check once exited 1 with an OverflowError.
    for m, want in (("409", cli.EXIT_OK), ("410", cli.EXIT_CAPACITY), ("412", cli.EXIT_CAPACITY)):
        code, out = run(["combi", "divisor-mean", "--x", "100", "--m", m], capsys)
        assert code == want, m
        assert "Infinity" not in out, m


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


def test_scientific_notation_is_read_exactly(capsys):
    # Through a float, 1e23 became 99999999999999991611392 and lost 10^23.
    assert cli._num("1e23") == 10**23
    assert cli._num("2.5e20") == 25 * 10**19
    assert cli._num("1.2345678901234567e20") == 123456789012345670000
    for text in ("1.5", "1e-3", "inf", "nan", "1e400"):
        with pytest.raises(argparse.ArgumentTypeError):
            cli._num(text)
    powers = ["seq", "generate", "--kind", "powers_k", "--k", "10", "--n"]
    for digits in ("1e23", str(10**23)):
        code, out = run([*powers, digits], capsys)
        assert code == cli.EXIT_OK
        assert json.loads(out)["count"] == 23, digits


def test_negative_custom_exponent_is_a_domain_error(capsys):
    # Once it printed values_head [0.5, 4].
    argv = ["seq", "generate", "--kind", "custom_exponents", "--n", "1000", "--exponents=-1,2"]
    assert cli.main(argv) == cli.EXIT_DOMAIN


def test_divisor_route_runs_past_the_window_ceiling(capsys):
    # Its work depends on R and V, not on N; the window routes stop at
    # N = 2^27 (test_capacity_error_exit_code).
    argv = ["gpy", "moment1", "--h1", "0,2", "--h2", "2,6", "--n", "1e17", "--strategy", "divisor"]
    code, out = run(argv, capsys)
    assert code == cli.EXIT_OK
    assert json.loads(out)["R"] == pytest.approx(3129.13, rel=1e-5)


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


def test_oracle_t4_empirical_ratio_matches_moment1(capsys):
    pair = ["--h1", "0,2", "--h2", "0,6", "--n", "1e5"]
    code, out = run(["gpy", "moment1", *pair], capsys)
    assert code == cli.EXIT_OK
    moment = json.loads(out)
    code, out = run(["oracle", "t4", *pair, "--empirical", repr(moment["direct"])], capsys)
    assert code == cli.EXIT_OK
    assert json.loads(out)["comparison"] == moment["comparison"]


def test_verify_all_fast_passes(capsys):
    code, out = run(["verify", "all", "--fast"], capsys)
    assert code == cli.EXIT_OK
    assert json.loads(out)["ok"]
