import json
import os
import subprocess
import sys

import pytest

from beliefmerge import Profile, models, parse, replay_violation
from beliefmerge.cli import main
from beliefmerge.formula import MAX_DEPTH
from beliefmerge.merging import OPERATORS, merge_sigma
from beliefmerge.semantics import MAX_VOCAB_CAP

CO_OWNERS_F1_DNF = ("!I & !P & !S & !T | !I & !P & !S & T"
                    " | !I & !P & S & !T | !I & P & !S & !T")


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "beliefmerge.cli", *argv],
                          capture_output=True, env=env)


class TestMerge:
    def test_sigma_dnf(self, capsys, co_owners_path):
        code, out, err = invoke(capsys, "merge", "-f", str(co_owners_path), "-o", "sigma")
        assert code == 0
        assert out == "I & P & S & T\n"
        assert "k = 5" in err

    def test_f1_dnf_and_family(self, capsys, co_owners_path):
        code, out, err = invoke(capsys, "merge", "-f", str(co_owners_path), "-o", "f1")
        assert code == 0
        assert out == CO_OWNERS_F1_DNF + "\n"
        assert "FS = {P, S, T}" in err

    def test_gmax_models_format(self, capsys, co_owners_path):
        code, out, err = invoke(capsys, "merge", "-f", str(co_owners_path),
                                "-o", "gmax", "--format", "models")
        assert code == 0
        assert out == "vars: I P S T\n0001\n0100\n"
        assert "T = (2, 2, 1, 1)" in err

    def test_table_format(self, capsys, co_owners_path):
        code, out, _ = invoke(capsys, "merge", "-f", str(co_owners_path),
                              "-o", "gmax", "--format", "table")
        assert code == 0
        assert out.splitlines()[0] == "I P S T"
        assert out.splitlines()[2:] == ["0 0 0 1", "0 1 0 0"]

    def test_model_list_and_dnf_denote_the_same_set(self, capsys, co_owners_path):
        _, dnf_out, _ = invoke(capsys, "merge", "-f", str(co_owners_path), "-o", "max")
        _, model_out, _ = invoke(capsys, "merge", "-f", str(co_owners_path),
                                 "-o", "max", "--format", "models")
        lines = model_out.splitlines()
        vocab = tuple(lines[0].split()[1:])
        from_models = {int(row, 2) for row in lines[1:]}
        from_dnf = set(models(parse(dnf_out.strip()), vocab).masks)
        assert from_models == from_dnf

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.profile"
        bad.write_text("kb: p &\n")
        code, _, err = invoke(capsys, "merge", "-f", str(bad), "-o", "sigma")
        assert code == 2
        assert "line 1" in err

    def test_inconsistent_kb_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.profile"
        bad.write_text("kb: p & !p\n")
        code, _, err = invoke(capsys, "merge", "-f", str(bad), "-o", "sigma")
        assert code == 3
        assert "inconsistent" in err

    def test_vocabulary_cap_exit_3(self, capsys, tmp_path):
        wide = tmp_path / "wide.profile"
        wide.write_text("kb: a & b & c & d & e\n")
        code, _, err = invoke(capsys, "merge", "-f", str(wide), "-o", "sigma",
                              "--max-vocab", "4")
        assert code == 3
        assert "cap" in err

    def test_max_vocab_reaches_the_profile(self, tmp_path):
        # Profile once tested its KBs at the default cap whatever --max-vocab
        # said.  A child process keeps the 2^25-bit tables out of this one.
        cube = " & ".join(f"x{i:02}" for i in range(25))
        wide = tmp_path / "wide.profile"
        wide.write_text(f"constraint: {cube}\nkb: {cube}\n")
        done = run_process("merge", "-f", str(wide), "-o", "max",
                           "--max-vocab", "25", "--format", "models")
        assert done.returncode == 0
        assert done.stdout.decode().splitlines()[1:] == ["1" * 25]
        assert b"k = 0\n" in done.stderr

    def test_over_cap_profile_fails_while_parsed(self, capsys, tmp_path):
        # two 13-variable cubes sharing a00: 25 variables, one over the cap
        first = " & ".join(f"a{i:02}" for i in range(13))
        second = " & ".join(f"a{i:02}" for i in range(12, 25))
        wide = tmp_path / "wide.profile"
        wide.write_text(f"kb: {first}\nkb: {second}\n")
        code, out, err = invoke(capsys, "merge", "-f", str(wide), "-o", "sigma")
        assert code == 3
        assert out == ""
        assert err == "error: 25 variables exceed the enumeration cap of 24\n"

    def test_missing_file_exit_3(self, capsys, tmp_path):
        code, out, err = invoke(capsys, "merge", "-f", str(tmp_path / "absent.profile"),
                                "-o", "sigma")
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "absent.profile" in err

    def test_degenerate_constraint_exit_4(self, capsys, tmp_path):
        deg = tmp_path / "deg.profile"
        deg.write_text("constraint: q & !q\nkb: p\n")
        code, out, err = invoke(capsys, "merge", "-f", str(deg), "-o", "sigma")
        assert code == 4
        assert out == "false\n"
        assert "warning" in err


class TestFormulaCommands:
    def test_forget_everything(self, capsys):
        code, out, _ = invoke(capsys, "forget", "S & T & P", "--vars", "S,T,P")
        assert code == 0
        assert out == "true\nmodels: 1\n"

    def test_forget_partial(self, capsys):
        code, out, _ = invoke(capsys, "forget", "p & q", "--vars", "p")
        assert code == 0
        assert out == "q\nmodels: 1\n"

    def test_forget_from_file(self, capsys, tmp_path):
        source = tmp_path / "formula.txt"
        source.write_text("p & q  # a comment\n")
        code, out, _ = invoke(capsys, "forget", "-f", str(source), "--vars", "q")
        assert code == 0
        assert out == "p\nmodels: 1\n"

    def test_dilate(self, capsys):
        code, out, _ = invoke(capsys, "dilate", "p & q", "-n", "1")
        assert code == 0
        assert out == "!p & q | p & !q | p & q\nmodels: 3\n"

    def test_dilate_inconsistent_exit_3(self, capsys):
        code, _, err = invoke(capsys, "dilate", "p & !p", "-n", "1")
        assert code == 3
        assert "inconsistent" in err

    def test_dilate_missing_file_exit_3(self, capsys, tmp_path):
        code, out, err = invoke(capsys, "dilate", "-f", str(tmp_path / "absent.txt"),
                                "-n", "1")
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "absent.txt" in err

    def test_equiv_yes(self, capsys):
        code, out, _ = invoke(capsys, "equiv", "p -> q", "!p | q")
        assert code == 0
        assert out == "equivalent\n"

    def test_equiv_no_with_witness(self, capsys):
        code, out, _ = invoke(capsys, "equiv", "p", "q")
        assert code == 5
        assert out.splitlines()[0] == "not equivalent"
        witness = out.splitlines()[1].removeprefix("differs at: ")
        assignment = dict(pair.split("=") for pair in witness.split())
        left = parse("p")
        right = parse("q")
        from beliefmerge import Interpretation, evaluate
        omega = Interpretation.from_assignment({k: int(v) for k, v in assignment.items()})
        assert evaluate(left, omega) != evaluate(right, omega)

    def test_formula_parse_error_exit_2(self, capsys):
        code, _, err = invoke(capsys, "equiv", "p &", "q")
        assert code == 2
        assert "column" in err

    @pytest.mark.parametrize("deep", [
        "(" * 3000 + "p" + ")" * 3000,
        "!" * 5000 + "p",
        " <-> ".join(["p"] * 2000),
        " -> ".join(["p"] * 2000),
    ])
    def test_too_deep_formula_exit_2(self, capsys, deep):
        code, out, err = invoke(capsys, "equiv", deep, "p")
        assert code == 2
        assert out == ""
        assert "nested deeper than" in err

    @pytest.mark.parametrize("cap", ["29", "100000", "-1"])
    def test_max_vocab_outside_the_ceiling_exit_3(self, capsys, cap):
        code, out, err = invoke(capsys, "equiv", "p", "p", "--max-vocab", cap)
        assert code == 3
        assert out == ""
        assert err == f"error: --max-vocab must be between 0 and {MAX_VOCAB_CAP}\n"

    def test_max_vocab_at_the_ceiling(self, capsys):
        code, out, _ = invoke(capsys, "equiv", "p", "p", "--max-vocab", str(MAX_VOCAB_CAP))
        assert code == 0
        assert out == "equivalent\n"

    def test_formula_inside_the_depth_bound(self, capsys):
        code, out, _ = invoke(capsys, "equiv", "!" * MAX_DEPTH + "p", "p")
        assert (code, out) == (0, "equivalent\n")


class TestCheck:
    def test_claimed_pass_cells_exit_0(self, capsys):
        code, out, _ = invoke(capsys, "check", "-o", "sigma",
                              "--postulates", "IC0,IC1,IC2", "--trials", "10",
                              "--seed", "7")
        assert code == 0
        assert "sigma IC0: pass (0 violations in 10 trials)" in out

    def test_full_f1_row_exits_0(self, capsys):
        code, out, _ = invoke(capsys, "check", "-o", "f1", "--postulates",
                              "IC0,IC1,IC2,IC3,IC4,IC7,IC8,MI,A1,A2",
                              "--trials", "300", "--seed", "42")
        assert code == 0
        assert out.count("(0 violations in 300 trials)") == 10
        assert "f1 MI: bounded-pass" in out

    def test_expected_fail_cell_prints_witness(self, capsys):
        code, out, _ = invoke(capsys, "check", "-o", "max", "--postulates", "Maj",
                              "--trials", "60", "--seed", "42")
        assert code == 0  # Maj is not claimed-pass for max
        assert "witness found" in out
        assert "witness (trial" in out

    def test_report_file_replays(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, _, _ = invoke(capsys, "check", "-o", "max", "--postulates", "Maj,MI",
                            "--trials", "40", "--seed", "42",
                            "--report", str(report_path))
        assert code == 0
        payload = json.loads(report_path.read_text())
        cells = {cell["postulate"]: cell for cell in payload["cells"]}
        assert cells["MI"]["verdict"] == "bounded-pass"
        assert cells["Maj"]["verdict"] == "fail"
        assert cells["Maj"]["violations"]
        for record in cells["Maj"]["violations"]:
            assert replay_violation(record)

    def test_unwritable_report_exit_3(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "check", "-o", "sigma", "--postulates", "IC0",
                              "--trials", "1", "--report", str(tmp_path))
        assert code == 3
        assert err.startswith("error:")

    def test_unwritable_report_fails_before_any_cell(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "check", "-o", "f2", "--trials", "2",
                              "--report", str(tmp_path))
        assert code == 3
        assert out == ""

    def test_violation_on_a_claimed_cell_exits_1(self, capsys, monkeypatch):
        # sabotage the sum operator so a claimed-pass cell really fails
        def ignores_the_constraint(profile):
            return merge_sigma(Profile(profile.kbs))

        monkeypatch.setitem(OPERATORS, "sigma", ignores_the_constraint)
        code, out, _ = invoke(capsys, "check", "-o", "sigma",
                              "--postulates", "IC0", "--trials", "20", "--seed", "1")
        assert code == 1
        assert "sigma IC0: fail" in out

    def test_unknown_postulate_exit_3(self, capsys):
        code, _, err = invoke(capsys, "check", "-o", "sigma",
                              "--postulates", "IC9", "--trials", "1")
        assert code == 3
        assert "unknown postulate" in err

    def test_bad_bounds_exit_3(self, capsys):
        code, _, _ = invoke(capsys, "check", "-o", "sigma", "--postulates", "IC0",
                            "--trials", "0")
        assert code == 3


class TestDeterminism:
    def test_identical_invocations_are_byte_identical(self, co_owners_path):
        argv = ("merge", "-f", str(co_owners_path), "-o", "gmax", "--format", "models")
        first = run_process(*argv, env_extra={"PYTHONHASHSEED": "1"})
        second = run_process(*argv, env_extra={"PYTHONHASHSEED": "77"})
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr

    def test_check_output_is_stable_across_hash_seeds(self):
        argv = ("check", "-o", "f1", "--postulates", "IC0,A1", "--trials", "8",
                "--seed", "3")
        first = run_process(*argv, env_extra={"PYTHONHASHSEED": "5"})
        second = run_process(*argv, env_extra={"PYTHONHASHSEED": "31"})
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
