import json
import os
import subprocess
import sys

import pytest

from beliefmerge import Profile, cli, forgetting, formula, merging, semantics
from beliefmerge import models, parse, replay_violation
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

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path, co_owners_path):
        marked = tmp_path / "marked.profile"
        marked.write_text("\ufeff" + co_owners_path.read_text(encoding="utf-8"),
                          encoding="utf-8")
        code, out, err = invoke(capsys, "merge", "-f", str(marked), "-o", "f1")
        assert (code, out) == (0, CO_OWNERS_F1_DNF + "\n")
        assert "FS = {P, S, T}" in err

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
    def test_forget_skips_a_byte_order_mark(self, capsys, tmp_path):
        marked = tmp_path / "marked.formula"
        marked.write_text("\ufeffS & T & P\n", encoding="utf-8")
        code, out, err = invoke(capsys, "forget", "-f", str(marked), "--vars", "S")
        assert (code, out, err) == (0, "P & T\nmodels: 1\n", "")

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

    def test_usage_error_is_returned_not_raised(self, capsys):
        # argparse reads "->p" as an option; after "--" it is a formula
        code, out, err = invoke(capsys, "equiv", "->p", "p")
        assert (code, out) == (2, "")
        assert err.startswith("usage:")
        code, _, err = invoke(capsys, "equiv", "--", "->p", "p")
        assert code == 2
        assert err.startswith("error: line 1, column 1:")

    def test_help_is_returned_not_raised(self, capsys):
        code, out, err = invoke(capsys, "--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: beliefmerge")

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

    def test_report_counts_live_and_vacuous_trials(self, capsys, tmp_path):
        argv = ["check", "-o", "sigma", "--postulates", "IC2,IC3,IC6",
                "--trials", "30", "--max-kbs", "8", "--seed", "42"]
        report_path = tmp_path / "report.json"
        code, out, _ = invoke(capsys, *argv, "--report", str(report_path))
        assert code == 0
        assert invoke(capsys, *argv) == (code, out, "")  # stdout as without --report
        cells = {cell["postulate"]: cell for cell in json.loads(report_path.read_text())["cells"]}
        for cell in cells.values():
            assert cell["live_trials"] + cell["vacuous_trials"] == cell["trials"] == 30
        assert cells["IC3"]["vacuous_trials"] == 0
        assert cells["IC2"]["vacuous_trials"] > 0
        assert cells["IC6"]["vacuous_trials"] > 0

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

    def test_sigma_majority_is_decided_past_the_search_bound(self, capsys):
        # trials 70, 186 and 299 need more than eight copies of the second
        # group; n = |g1|·|V| + 1 always puts sigma's winners in merge(g2)
        code, out, _ = invoke(capsys, "check", "-o", "sigma", "--postulates", "Maj",
                              "--max-kbs", "24", "--trials", "300")
        assert (code, out) == (0, "sigma Maj: bounded-pass (0 violations in 300 trials)\n")

    def test_unknown_postulate_exit_3(self, capsys):
        code, _, err = invoke(capsys, "check", "-o", "sigma",
                              "--postulates", "IC9", "--trials", "1")
        assert code == 3
        assert "unknown postulate" in err

    def test_bad_bounds_exit_3(self, capsys):
        code, _, _ = invoke(capsys, "check", "-o", "sigma", "--postulates", "IC0",
                            "--trials", "0")
        assert code == 3

    @pytest.mark.parametrize("bounds, message", [
        (("--max-kbs", "1"), "contested-literal instances need at least 2 KBs"),
        (("--max-vars", "1", "--postulates", "IC0,A1"),
         "literal-property instances need at least 2 variables"),
    ], ids=["A2-one-kb", "A1-one-var"])
    def test_bounds_a_postulate_cannot_meet_fail_before_any_cell(
            self, capsys, tmp_path, bounds, message):
        report = tmp_path / "r.json"
        code, out, err = invoke(capsys, "check", "-o", "f1", *bounds, "--trials", "1",
                                "--report", str(report))
        assert (code, out, err) == (3, "", f"error: {message}\n")
        assert not report.exists()

    def test_max_kbs_over_the_ceiling_exit_3(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        code, out, err = invoke(capsys, "check", "-o", "sigma", "--max-kbs", "65",
                                "--trials", "1", "--report", str(report))
        assert (code, out, err) == (3, "", "error: max_kbs must be in 1..64\n")
        assert not report.exists()

    def test_max_kbs_at_the_ceiling(self, capsys):
        code, out, _ = invoke(capsys, "check", "-o", "sigma", "--postulates", "IC0",
                              "--max-kbs", "64", "--trials", "1")
        assert (code, out) == (0, "sigma IC0: pass (0 violations in 1 trials)\n")

    def test_max_vocab_reaches_the_harness(self, capsys):
        code, out, err = invoke(capsys, "check", "-o", "sigma", "--postulates", "IC0",
                                "--trials", "1", "--max-vocab", "2")
        assert (code, out, err) == (
            3, "", "error: 4 variables exceed the enumeration cap of 2\n")


class TestMaxVocabBelowTheWidth:
    """``check --max-vocab`` below the drawn width exits 3 with the width
    the cap refused.  IC2 and IC4 refuse while their instance is drawn,
    with the width of the conjunction they test (IC4's can be narrower
    than the pool); the others refuse the instance's whole vocabulary.
    Recorded on the engine that compiled every drawn formula; every case
    exits 3."""

    MAX_VARS = (2, 3, 5)
    SEEDS = range(4)
    # (postulate, max_vars, seed) -> the width reported at caps 0, 1, ...;
    # every other case reports max_vars at every cap
    NARROWER = {("IC4", 3, 1): "223", ("IC4", 5, 0): "22555",
                ("IC4", 5, 1): "33355", ("IC4", 5, 3): "22555"}

    @pytest.mark.parametrize("operator", ["sigma", "f1"])
    @pytest.mark.parametrize("postulate", ["IC0", "IC1", "IC2", "IC3", "IC4",
                                           "IC7", "Maj", "A1", "A2"])
    def test_the_refused_width_is_pinned(self, capsys, operator, postulate):
        for max_vars in self.MAX_VARS:
            for seed in self.SEEDS:
                widths = self.NARROWER.get((postulate, max_vars, seed),
                                           str(max_vars) * max_vars)
                for cap, width in enumerate(widths):
                    got = invoke(capsys, "check", "-o", operator, "--postulates",
                                 postulate, "--max-vars", str(max_vars),
                                 "--max-vocab", str(cap), "--seed", str(seed))
                    expected = (3, "", f"error: {width} variables exceed the "
                                       f"enumeration cap of {cap}\n")
                    assert got == expected, (max_vars, seed, cap)


class TestOutputWithoutFormulaTrees:
    """Answers print straight from their truth tables: the CLI builds no
    ``to_dnf`` tree and runs no tree printer for any of them."""

    WIDE = " & ".join(f"v{i}" for i in range(10))  # answers span several slices

    def commands(self, path):
        for fmt in ("dnf", "models", "table"):
            yield ("merge", "-f", str(path), "-o", "f1", "--format", fmt)
        yield ("forget", "S & T & P | !I & !S", "--vars", "T,P")
        yield ("forget", self.WIDE, "--vars", "v3")
        yield ("dilate", "p & q", "-n", "1")
        yield ("dilate", self.WIDE, "-n", "2")

    def test_same_output_when_trees_cannot_be_built(self, capsys, monkeypatch,
                                                    co_owners_path):
        expected = [invoke(capsys, *argv) for argv in self.commands(co_owners_path)]

        def refuse(*_):
            raise AssertionError("an output formula tree was built")

        for module in (semantics, merging, forgetting):
            monkeypatch.setattr(module, "to_dnf", refuse)
        monkeypatch.setattr(formula, "format_formula", refuse)
        monkeypatch.setattr(cli, "format_formula", refuse)
        for argv, (code, out, err) in zip(self.commands(co_owners_path), expected):
            assert code == 0, argv
            assert invoke(capsys, *argv) == (code, out, err), argv


class TestWideAnswers:
    """Answers of about a thousand models over 13 variables print exactly
    their referee's text: the printed ``to_dnf`` tree, or one ``format``
    call per member.  Each model set is worked out here by brute force."""

    N = 13
    NAMES = tuple(f"x{i:02d}" for i in range(14))

    @classmethod
    def bits(cls, mask):
        return [mask >> (cls.N - 1 - j) & 1 for j in range(cls.N)]

    @classmethod
    def referee_dnf(cls, vocab, members):
        return formula.format_formula(semantics.to_dnf(
            semantics.ModelSet(vocab, sum(1 << m for m in members))))

    @classmethod
    def profile(cls, tmp_path):
        # sigma and f1 keep x01 & x02 & x03; max also keeps one of them false
        path = tmp_path / "wide.profile"
        path.write_text("vars: " + ", ".join(cls.NAMES[:cls.N]) + "\n"
                        "kb: x00\nkb: !x00\nkb: x01 & x02 & x03\n")
        return path

    def test_merge_formats(self, capsys, tmp_path):
        path, vocab = self.profile(tmp_path), self.NAMES[:self.N]
        kept = [m for m in range(1 << self.N) if all(self.bits(m)[1:4])]
        near = [m for m in range(1 << self.N) if sum(self.bits(m)[1:4]) >= 2]
        assert (len(kept), len(near)) == (1024, 4096)
        rows = [format(m, "013b") for m in kept]
        expected = {
            ("sigma", "dnf"): self.referee_dnf(vocab, kept),
            ("f1", "models"): "\n".join(["vars: " + " ".join(vocab), *rows]),
            ("max", "table"): "\n".join([" ".join(vocab), "-" * len(" ".join(vocab)),
                                         *(" ".join(format(m, "013b")) for m in near)]),
        }
        for (operator, fmt), text in expected.items():
            code, out, _ = invoke(capsys, "merge", "-f", str(path), "-o", operator,
                                  "--format", fmt)
            assert (code, out) == (0, text + "\n"), (operator, fmt)

    def test_dilate(self, capsys):
        text = ("x00 & x01 & x02 & x03 & x04 & (x05 | x06)"
                " & (x07 | x08 | x09 | x10 | x11 | x12)")
        inner = [m for m in range(1 << self.N)
                 if all(self.bits(m)[:5]) and any(self.bits(m)[5:7])
                 and any(self.bits(m)[7:])]
        ball = sorted({m ^ flip for m in inner
                       for flip in (0, *(1 << j for j in range(self.N)))})
        assert len(ball) > 1000
        code, out, _ = invoke(capsys, "dilate", text, "-n", "1")
        vocab = self.NAMES[:self.N]
        assert (code, out) == (0, f"{self.referee_dnf(vocab, ball)}\nmodels: {len(ball)}\n")

    def test_forget(self, capsys):
        # forgetting x00 leaves x01 & (x02 | x03) & x04 & (x05 | ... | x13)
        text = ("(x00 & x01 & x02 | !x00 & x01 & x03) & x04 & ("
                + " | ".join(self.NAMES[5:]) + ")")
        kept = [m for m in range(1 << self.N)
                if self.bits(m)[0] and (self.bits(m)[1] or self.bits(m)[2])
                and self.bits(m)[3] and any(self.bits(m)[4:])]
        assert len(kept) > 1000
        code, out, _ = invoke(capsys, "forget", text, "--vars", "x00")
        vocab = self.NAMES[1:]
        assert (code, out) == (0, f"{self.referee_dnf(vocab, kept)}\nmodels: {len(kept)}\n")


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
