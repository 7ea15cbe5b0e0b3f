import json
import os
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

from orbitcount import cli, counting, oracle
from orbitcount.fields import field_of_order
from orbitcount.polymat import PolyMatrix


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_formula_json(capsys):
    code, out, _ = run(capsys, "formula", "--n", "2", "--q", "2", "--t", "1", "--k", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["orbit_count"] == "12"
    assert payload["total_count"] == "72"
    assert payload["class_count"] == "6"


def test_formula_counts_are_decimal_strings(capsys):
    # large enough to overflow a 64-bit integer if ever parsed as a number
    code, out, _ = run(capsys, "formula", "--n", "4", "--q", "5", "--t", "2", "--k", "5")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload["orbit_count"], str)
    assert int(payload["orbit_count"]) > 2**63


def test_output_is_byte_deterministic(capsys):
    _, out1, _ = run(capsys, "formula", "--n", "2", "--q", "3", "--t", "1", "--k", "2")
    _, out2, _ = run(capsys, "formula", "--n", "2", "--q", "3", "--t", "1", "--k", "2")
    assert out1 == out2


def test_csv_format(capsys):
    code, out, _ = run(
        capsys, "formula", "--n", "2", "--q", "2", "--t", "0", "--k", "1",
        "--format", "csv",
    )
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert rows["orbit_count"] == "24"


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "formula", "--n", "2", "--q", "2", "--t", "1", "--k", "1",
        "--out", str(path),
    )
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["orbit_count"] == "12"


def test_invalid_input_exit_2(capsys):
    code, _, err = run(capsys, "formula", "--n", "2", "--q", "2", "--t", "3", "--k", "1")
    assert code == 2  # k < t refused as invalid input
    code, _, _ = run(capsys, "formula", "--n", "2", "--q", "2", "--t", "x", "--k", "1")
    assert code == 2
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def assert_one_line_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["formula", "--n", "2", "--q", "2", "--t", "x", "--k", "1"],  # bad value
        ["no-such-command"],
        ["formula", "--n", "2", "--q", "2", "--k", "1"],  # --t missing
        ["formula", "--n", "2", "--q", "2", "--t", "1", "--k", "1", "--frobnicate"],
    ],
)
def test_usage_errors_are_one_line(capsys, argv):
    assert_one_line_error(*run(capsys, *argv))


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage: orbitcount" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["formula", "--n", "2", "--q", "2", "--t", "1", "--k", "1", "--budget", "5"],
        ["hnf", "--input", "m.json", "--budget", "5"],
        ["zcase", "constant", "--det", "4", "--budget", "5"],
        ["zcase", "constant", "--det", "4", "--n", "2"],
    ],
)
def test_removed_options_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert_one_line_error(code, out, err)
    assert "unrecognized arguments" in err


@pytest.fixture
def digit_limit():
    """The interpreter's limit on printed digits, set to its default 4300
    for the test and restored after it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter prints integers of any length")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


def test_formula_prints_counts_up_to_the_digit_limit(capsys, digit_limit):
    # n = 2, q = 2, t = 0: every count is 6 * 4^k, so k is the last one that
    # prints and k + 1 the first that does not
    k = max(k for k in range(8000) if 6 * 4**k < 10**digit_limit)
    code, out, _ = run(capsys, "formula", "--n", "2", "--q", "2", "--t", "0", "--k", str(k))
    assert code == 0
    assert json.loads(out)["total_count"] == str(6 * 4**k)
    assert len(json.loads(out)["total_count"]) == digit_limit
    code, out, err = run(capsys, "formula", "--n", "2", "--q", "2", "--t", "0", "--k", str(k + 1))
    assert code == 3 and out == ""
    shown = f"the total count has {digit_limit + 1} digits, over the limit {digit_limit}"
    assert err == f"error: formula: {shown}\n"


@pytest.mark.parametrize(
    "argv, digits",
    [
        (["--n", "2", "--q", "2", "--t", "0", "--k", "10000"], 6022),
        (["--n", "3", "--q", "509", "--t", "2", "--k", "300"], 4902),
        (["--n", "2", "--q", "2", "--t", "0", "--k", str(10**12)], 602059991329),
        (["--n", "2", "--q", "2", "--t", str(10**12), "--k", str(10**12)], None),
        (["--n", str(10**9), "--q", "2", "--t", "0", "--k", "0"], None),
    ],
)
def test_formula_refuses_a_count_too_long_to_print_at_once(capsys, digit_limit, argv, digits):
    start = time.perf_counter()
    code, out, err = run(capsys, "formula", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("error: formula: the total count has ") and len(err.splitlines()) == 1
    assert f"over the limit {digit_limit}" in err
    if digits is not None:
        assert f" {digits} digits" in err


def test_formula_prints_a_long_count_at_a_large_t(capsys, digit_limit):
    # n = 1, t = 4000: 1205 digits, under the limit, and c_nt multiplies out
    # min(t, n - 1) = 0 factors, not t
    start = time.perf_counter()
    code, out, _ = run(capsys, "formula", "--n", "1", "--q", "2", "--t", "4000", "--k", "4000")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    payload = json.loads(out)
    assert payload["total_count"] == payload["class_count"] == str(2**4000)
    assert payload["orbit_count"] == "1"


def test_total_count_digits_at_a_power_of_ten():
    # the count 10, whose logarithms sum to just under 1
    assert counting.total_count_formula(1, 11, 0, 0) == 10
    assert cli._total_count_digits(1, 11, 0, 0, 4300) == 2


def test_total_count_digits_match_the_printed_count():
    """Exact under the limit; past it the logarithms are off by at most one
    digit (next to a power of ten)."""
    for n, q, t, k in product((1, 2, 3), (2, 3, 4, 5, 7, 9, 11, 13, 101), range(5), range(5)):
        if t <= k:
            digits = len(str(counting.total_count_formula(n, q, t, k)))
            assert cli._total_count_digits(n, q, t, k, 4300) == digits
            assert abs(cli._total_count_digits(n, q, t, k, 0) - digits) <= 1


def test_formula_rejects_non_prime_power_q(capsys):
    assert_one_line_error(*run(capsys, "formula", "--n", "2", "--q", "6", "--t", "0", "--k", "1"))


def test_brute_names_a_q_that_is_not_a_prime_power(capsys):
    code, out, err = run(capsys, "brute", "--n", "2", "--q", "6", "--k", "1")
    assert_one_line_error(code, out, err)
    assert err == "error: q = 6 is not a prime power, so F_q does not exist\n"


def test_brute_census_needs_n_and_q(capsys):
    assert_one_line_error(*run(capsys, "brute", "--k", "1"))


@pytest.mark.parametrize("T", ["0", "-3"])
def test_zcase_ratio_rejects_nonpositive_T(capsys, T):
    assert_one_line_error(*run(capsys, "zcase", "ratio", "--det", "4", "--T", T))


@pytest.mark.parametrize("bounds", [",", "1,,2", "a"])
def test_lemma2_rejects_malformed_bounds(capsys, bounds):
    code, out, err = run(capsys, "lemma2", "--bounds", bounds, "--q", "2")
    assert_one_line_error(code, out, err)
    assert f"--bounds {bounds!r}" in err


def test_verify_rejects_negative_kmax(capsys):
    # kmax = -1 leaves no k to scan, which used to pass with no reports
    assert_one_line_error(*run(capsys, "verify", "--grid", "2,2,-1"))


def test_brute_rejects_k_below_minus_1(capsys):
    assert_one_line_error(*run(capsys, "brute", "--n", "2", "--q", "2", "--k", "-3"))


def test_brute_rejects_k_minus_1_with_its_own_message(capsys):
    code, out, err = run(capsys, "brute", "--n", "2", "--q", "2", "--k", "-1")
    assert_one_line_error(code, out, err)
    assert "k >= 0" in err


def test_zcase_ratio_T1_ladder(capsys):
    code, out, _ = run(capsys, "zcase", "ratio", "--det", "4", "--T", "1")
    assert code == 0
    assert json.loads(out)["ladder"] == [1]


@pytest.mark.parametrize(
    "argv",
    [
        ("brute", "--n", "2", "--q", "2", "--k", "1", "--budget", "-5"),
        ("lemma2", "--bounds", "1,1", "--q", "2", "--budget", "0"),
        ("zcase", "ratio", "--det", "4", "--T", "10", "--budget", "-1"),
    ],
)
def test_budget_below_1_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "budget must be >= 1" in err


def test_budget_refusal_exit_3(capsys):
    code, _, err = run(
        capsys, "brute", "--n", "3", "--q", "3", "--k", "3", "--budget", "1000"
    )
    assert code == 3
    assert "exceed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["brute", "--n", "9", "--q", "9", "--k", "60"],  # 9^4941: past int's str() limit
        ["brute", "--n", "2", "--q", "3", "--k", "30000000"],  # 3^120000004
        ["lemma2", "--bounds", "200,200,200", "--q", "9"],  # the recursion would overflow
        ["lemma2", "--bounds", "30000000,1", "--q", "3"],  # the formula would build 3^30000001
        # one system, but its cofactor expansion would take 30 2^29 products
        ["lemma2", "--bounds", ",".join(["0"] * 30), "--q", "2"],
    ],
)
def test_huge_scans_are_refused_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "^" in err and "exceed" in err


def test_lemma2_solves_past_the_candidate_count(capsys):
    # 5^12 candidates, but one system in the 12 coefficients of the last column
    code, out, _ = run(capsys, "lemma2", "--bounds", "0,0,4", "--q", "5")
    payload = json.loads(out)
    assert code == 0 and payload["all_match"]
    assert payload["bruteforce"] == payload["formula"] == str(5**8)


def test_lemma2_refuses_the_choices_of_the_other_columns(capsys):
    code, out, err = run(capsys, "lemma2", "--bounds", "1,1,1,1", "--q", "5")
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "5^12 items exceed" in err


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = ["formula", "--n", "2", "--q", "2", "--t", "1", "--k", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "orbitcount", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["orbit_count"] == "12"


def test_hnf_subcommand(tmp_path, capsys):
    src = {
        "field": {"p": 2, "e": 1},
        "entries": [[[1, 1], [1]], [[1], [0, 1]]],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(src))
    code, out, _ = run(capsys, "hnf", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["h"]["entries"] == [[[1], [0, 1]], [[], [1, 1, 1]]]
    assert payload["det_degree"] == 2


def test_hnf_missing_file_exit_2(capsys):
    code, _, _ = run(capsys, "hnf", "--input", "/no/such/file.json")
    assert code == 2


@pytest.mark.parametrize(
    "doc",
    [
        [1, 2],
        {"field": {"p": 2, "e": 1}, "entries": [["a"]]},
        {"field": {"p": 2, "e": 1}, "entries": [[1, 2]]},
        {"field": {"p": 3, "e": 1}, "entries": [[[1.5], [0]], [[0], [1]]]},
        {"field": "x", "entries": [[[1]]]},
    ],
)
def test_hnf_malformed_matrix_json_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert_one_line_error(*run(capsys, "hnf", "--input", str(path)))


@pytest.mark.parametrize("command", [["hnf"], ["brute", "--k", "1"]])
def test_field_of_characteristic_0_exit_2(tmp_path, capsys, command):
    doc = {"field": {"p": 0, "e": 2, "modulus": [1, 1, 1]}, "entries": [[[1]]]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *command, "--input", str(path))
    assert_one_line_error(code, out, err)
    assert "characteristic 0 is not prime" in err


def test_brute_orbit_of_input(tmp_path, capsys):
    src = {"field": {"p": 2, "e": 1}, "entries": [[[1], []], [[], [0, 1]]]}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(src))
    code, out, _ = run(capsys, "brute", "--k", "1", "--input", str(path))
    assert code == 0
    assert json.loads(out)["count"] == "12"


def test_orbit_scan_past_the_64_bit_key_exits_3(tmp_path, capsys):
    """Any budget is accepted, but an orbit scan whose form indices could
    reach 2^63 (here about 2^64.4 at n = 2, q = 2, k = 16) is refused at once."""
    src = {"field": {"p": 2, "e": 1}, "entries": [[[1], []], [[], [1]]]}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(src))
    start = time.perf_counter()
    code, out, err = run(
        capsys, "brute", "--k", "16", "--input", str(path), "--budget", str(10**30)
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and "64-bit" in err


def test_census_too_large_to_allocate_exits_3(tmp_path, capsys):
    """diag(x, 1) over F_2 at k = 11 passes a budget of 10^15 and the 64-bit
    guard, but its count array would take 341 TiB: refused by the allocator
    at once, before any memory is touched, as one error line with exit 3."""
    src = {"field": {"p": 2, "e": 1}, "entries": [[[0, 1], [0]], [[0], [1]]]}
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(src))
    start = time.perf_counter()
    code, out, err = run(
        capsys, "brute", "--input", str(path), "--k", "11", "--budget", str(10**15)
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and "allocate" in err


def test_brute_census(capsys):
    code, out, _ = run(capsys, "brute", "--n", "2", "--q", "2", "--k", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["buckets"]["0"] == "24"
    assert payload["buckets"]["1"] == "72"


def test_lemma2_subcommand(capsys):
    code, out, _ = run(capsys, "lemma2", "--bounds", "1,1", "--q", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["formula"] == payload["recursive"] == payload["bruteforce"] == "4"
    assert payload["all_match"] is True


def test_verify_small_grid(capsys):
    code, out, _ = run(capsys, "verify", "--grid", "2,2,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_match"] is True
    assert all(r["match"] for r in payload["reports"] if "match" in r)


@pytest.mark.parametrize(
    "grid, code, named",
    [
        ("3,2,1;2,2,40", 3, "2^164"),  # (2, 2, 40)'s largest box: 2^(4·41) matrices
        ("3,2,1;2,6,1", 2, "q = 6"),  # 6 is not a prime power
    ],
)
def test_verify_refuses_a_doomed_grid_before_any_census(capsys, monkeypatch, grid, code, named):
    """Each triple is checked, field and largest scan, before the first
    census: a refusal behind (3, 2, 1) costs no scan of (3, 2, ·)."""
    calls = []
    monkeypatch.setattr(oracle, "orbit_census", lambda *args: calls.append(args))
    start = time.perf_counter()
    got, out, err = run(capsys, "verify", "--grid", grid)
    assert time.perf_counter() - start < 1.0
    assert (got, out, calls) == (code, "", [])
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and named in err


def test_verify_enumerates_canonical_forms_under_its_budget(capsys, monkeypatch):
    real, budgets = oracle.iter_hnf_rep_keys, set()

    def spy(n, q, t, budget=None):
        budgets.add(budget)
        return real(n, q, t, budget)

    monkeypatch.setattr(oracle, "iter_hnf_rep_keys", spy)
    code, _, _ = run(capsys, "verify", "--grid", "2,2,1", "--budget", "1000000")
    assert code == 0
    assert [b.max_items for b in budgets] == [1000000]


def test_verify_detects_corrupted_formula(capsys, monkeypatch):
    """A deliberately wrong closed form must drive the pipeline to exit 1."""
    real = counting.orbit_count_formula
    monkeypatch.setattr(
        counting, "orbit_count_formula", lambda n, q, t, k: real(n, q, t, k) + 1
    )
    code, out, _ = run(capsys, "verify", "--grid", "2,2,1")
    assert code == 1
    assert json.loads(out)["all_match"] is False


def test_verify_detects_missing_canonical_form(capsys, monkeypatch):
    """A scan that loses the orbit of the identity (t = 0 <= k) must fail the
    rep inventory, not only the counts."""
    real = oracle.orbit_census
    identity = PolyMatrix.identity(field_of_order(2), 2).key()

    def census_without_identity(q, n, k, budget=None):
        buckets, singular = real(q, n, k, budget)
        del buckets[identity]
        return buckets, singular

    monkeypatch.setattr(oracle, "orbit_census", census_without_identity)
    code, out, _ = run(capsys, "verify", "--grid", "2,2,1")
    assert code == 1
    reports = json.loads(out)["reports"]
    assert any(r["params"]["kind"] == "rep-inventory" and not r["match"] for r in reports)


@pytest.mark.parametrize("argv", [["--k-extra", "-1"], ["--n", "5"]])
def test_verify_moves_rejects_runs_that_check_nothing(capsys, argv):
    # k_extra < 0 leaves every k range empty; --n 5 names no fixture size
    assert_one_line_error(*run(capsys, "verify-moves", "--q", "2", *argv))


def test_verify_moves_subcommand(capsys):
    code, out, _ = run(capsys, "verify-moves", "--q", "2", "--n", "2", "--k-extra", "0")
    assert code == 0
    assert json.loads(out)["all_match"] is True


def test_zcase_classes(capsys):
    code, out, _ = run(capsys, "zcase", "classes", "--det", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["left_class_count"] == 7
    assert payload["two_sided_class_count"] == 2


@pytest.mark.parametrize("det", ["100000000", "1000000000000000003"])  # sigma > 10^8; a prime
def test_zcase_classes_refuses_huge_det_at_once(capsys, det):
    start = time.perf_counter()
    code, out, err = run(capsys, "zcase", "classes", "--det", det)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_zcase_classes_streams_its_report():
    # 99992 left classes: writing the report as it is serialized keeps the
    # peak near 50 MB; building its whole text first took about 135 MB.  The
    # child reads its peak from VmHWM, not ru_maxrss: on Linux ru_maxrss
    # keeps the peak of the process that spawned it (here the test runner).
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    child = (
        "import os\n"
        "from orbitcount import cli\n"
        "assert cli.main(['zcase', 'classes', '--det', '99991', '--out', os.devnull]) == 0\n"
        "print(next(line.split()[1] for line in open('/proc/self/status')"
        " if line.startswith('VmHWM:')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 90 * 1024  # kB


def test_zcase_classes_budget_is_the_class_count(capsys):
    # sigma(4) = 7 left classes
    code, out, err = run(capsys, "zcase", "classes", "--det", "4", "--budget", "6")
    assert code == 3 and out == "" and "exceed" in err
    code, out, _ = run(capsys, "zcase", "classes", "--det", "4", "--budget", "7")
    assert code == 0 and json.loads(out)["left_class_count"] == 7


def test_zcase_constant(capsys):
    code, out, _ = run(capsys, "zcase", "constant", "--det", "1")
    assert code == 0
    assert json.loads(out)["constant"] == pytest.approx(6.0)


@pytest.mark.parametrize("det, want", [(10**400, 15.0), (2**1100, 12.0)], ids=["10^400", "2^1100"])
def test_zcase_constant_of_a_det_past_the_float_range(capsys, det, want):
    code, out, _ = run(capsys, "zcase", "constant", "--det", str(det))
    assert code == 0
    assert json.loads(out)["constant"] == pytest.approx(want)


@pytest.mark.parametrize("det", ["0", "-3"])
def test_zcase_constant_names_det(capsys, det):
    code, out, err = run(capsys, "zcase", "constant", "--det", det)
    assert_one_line_error(code, out, err)
    assert f"--det must be >= 1, got {det}" in err


def test_zcase_ratio(capsys):
    code, out, _ = run(capsys, "zcase", "ratio", "--det", "4", "--T", "20")
    assert code == 0
    payload = json.loads(out)
    assert "ratio" in payload
    assert 0 < payload["ratio"]["float"] < 1 or payload["ratio"]["float"] > 1


BIG_PRIME = str(10**18 + 3)


# a q past the cap 512 exits 2 before any factoring; an integer that must be
# factored and has no prime factor up to 10^6 exits 3
@pytest.mark.parametrize(
    "code, argv",
    [
        (3, ["formula", "--n", "2", "--q", BIG_PRIME, "--t", "1", "--k", "1"]),
        (2, ["verify", "--grid", f"2,{BIG_PRIME},1"]),
        (2, ["brute", "--n", "2", "--q", BIG_PRIME, "--k", "1"]),
        (2, ["lemma2", "--bounds", "1,1", "--q", BIG_PRIME]),
        (2, ["verify-moves", "--q", BIG_PRIME]),
        (3, ["zcase", "constant", "--det", BIG_PRIME]),
        (3, ["zcase", "classes", "--det", BIG_PRIME, "--budget", str(10**20)]),
        (2, ["hnf", "--input", "bigp.json"]),
    ],
)
def test_unfactorable_integers_are_refused_at_once(tmp_path, monkeypatch, capsys, code, argv):
    monkeypatch.chdir(tmp_path)
    Path("bigp.json").write_text(json.dumps({"field": {"p": 10**18 + 3, "e": 1}, "entries": [[[1]]]}))
    start = time.perf_counter()
    got, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert got == code and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_hnf_input_with_a_huge_extension_degree_names_the_cap(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"field": {"p": 2, "e": 10**9, "modulus": [1, 1]}, "entries": [[[1]]]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "hnf", "--input", str(path))
    assert time.perf_counter() - start < 1.0
    assert_one_line_error(code, out, err)
    assert "cap 512" in err


def test_zcase_ratio_with_det_past_the_ball_is_empty(capsys):
    # no matrix with norm <= 5 has |det| > 25 / 2, and 10^20 is past int64
    code, out, _ = run(capsys, "zcase", "ratio", "--det", str(10**20), "--T", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["two_sided_classes"] == {"1": {}, "2": {}, "5": {}}
    assert payload["left_classes"] == {"1": {}, "2": {}, "5": {}}
    assert "ratio" not in payload
