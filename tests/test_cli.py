import json
import os
import subprocess
import sys
import time
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


def test_formula_rejects_non_prime_power_q(capsys):
    assert_one_line_error(*run(capsys, "formula", "--n", "2", "--q", "6", "--t", "0", "--k", "1"))


def test_brute_census_needs_n_and_q(capsys):
    assert_one_line_error(*run(capsys, "brute", "--k", "1"))


@pytest.mark.parametrize("T", ["0", "-3"])
def test_zcase_ratio_rejects_nonpositive_T(capsys, T):
    assert_one_line_error(*run(capsys, "zcase", "ratio", "--det", "4", "--T", T))


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
    ],
)
def test_huge_scans_are_refused_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "^" in err and "exceed" in err


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


def test_brute_orbit_of_input(tmp_path, capsys):
    src = {"field": {"p": 2, "e": 1}, "entries": [[[1], []], [[], [0, 1]]]}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(src))
    code, out, _ = run(capsys, "brute", "--k", "1", "--input", str(path))
    assert code == 0
    assert json.loads(out)["count"] == "12"


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


def test_zcase_constant(capsys):
    code, out, _ = run(capsys, "zcase", "constant", "--det", "1")
    assert code == 0
    assert json.loads(out)["constant"] == pytest.approx(6.0)


def test_zcase_ratio(capsys):
    code, out, _ = run(capsys, "zcase", "ratio", "--det", "4", "--T", "20")
    assert code == 0
    payload = json.loads(out)
    assert "ratio" in payload
    assert 0 < payload["ratio"]["float"] < 1 or payload["ratio"]["float"] > 1
