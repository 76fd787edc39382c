"""Command-line front end: every verb, exit codes, and output determinism."""

from helpers import data_path
from lfd.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_restaurant_row(self, capsys):
        code, out, _ = run(capsys, "check", "--model", data_path("restaurant.csv"),
                           "--at", "4", "D{Food}Price")
        assert code == 0 and out == "true\n"

    def test_where_addressing(self, capsys):
        code, out, _ = run(capsys, "check", "--model", data_path("restaurant.csv"),
                           "--where", "Restaurant=Wilde Zwider",
                           "D{Location}Restaurant")
        assert code == 0 and out == "true\n"

    def test_false_result_still_exits_zero(self, capsys):
        code, out, _ = run(capsys, "check", "--model", data_path("restaurant.csv"),
                           "--at", "0", "D{Food}Price")
        assert code == 0 and out == "false\n"

    def test_parse_error_exit_two(self, capsys):
        code, _, err = run(capsys, "check", "--model", data_path("restaurant.csv"),
                           "--at", "0", "D{Food}")
        assert code == 2 and err

    def test_unknown_variable_exit_three(self, capsys):
        code, _, err = run(capsys, "check", "--model", data_path("restaurant.csv"),
                           "--at", "0", "P(nope)")
        assert code == 3 and err

    def test_ambiguous_where_exit_three(self, capsys):
        code, _, err = run(capsys, "check", "--model", data_path("restaurant.csv"),
                           "--where", "Food=Italian", "D{Food}Price")
        assert code == 3


class TestDeps:
    def test_global_narrative(self, capsys):
        code, out, _ = run(capsys, "deps", "--model", data_path("restaurant.csv"))
        assert code == 0
        lines = dict(line.split(": ", 1) for line in out.strip().splitlines()[1:])
        assert "{Restaurant}" in lines["Food"]
        assert "{Restaurant}" in lines["Price"]
        assert "{Restaurant}" in lines["Location"]
        assert "{Price}" not in lines["Food"]
        assert "{Location,Price}" in lines["Restaurant"]

    def test_local_row_five(self, capsys):
        code, out, _ = run(capsys, "deps", "--model", data_path("restaurant.csv"),
                           "--local", "4")
        assert code == 0
        lines = dict(line.split(": ", 1) for line in out.strip().splitlines()[1:])
        assert "{Food}" in lines["Price"]
        assert "{Price}" in lines["Food"]
        assert "{Location}" in lines["Restaurant"]

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "deps", "--model", data_path("restaurant.csv"))
        _, out2, _ = run(capsys, "deps", "--model", data_path("restaurant.csv"))
        assert out1 == out2


class TestDecisionVerbs:
    def test_valid(self, capsys):
        code, out, _ = run(capsys, "valid", "box{x}P(x) -> P(x)")
        assert code == 0 and out == "valid\n"

    def test_sat_with_witness(self, capsys, tmp_path):
        target = str(tmp_path / "witness.rm")
        code, out, _ = run(capsys, "sat", "D{x}y & !D{y}x",
                           "--witness", target)
        assert code == 0 and out == "sat\n"
        with open(target, "r", encoding="utf-8") as fh:
            text = fh.read()
        assert text.startswith("kind general")
        from lfd.relational import parse_relational
        from lfd.relational import eval_rel
        from lfd.parser import parse
        r = parse_relational(text)
        assert any(eval_rel(r, w, parse("D{x}y & !D{y}x")) for w in r.worlds)

    def test_invalid_prints_invalid(self, capsys):
        code, out, _ = run(capsys, "valid", "P(x) -> box{y}P(x)")
        assert code == 0 and out == "invalid\n"

    def test_learn_operators_are_reduced(self, capsys):
        code, out, _ = run(capsys, "valid", "[learn x] D{y}z -> D{x,y}z")
        assert code == 0 and out == "valid\n"

    def test_five_variables_refused_exit_three(self, capsys):
        for verb in ("sat", "valid"):
            code, out, err = run(capsys, verb, "D{a,b}c -> D{d}e")
            assert code == 3 and out == ""
            assert "limit of 4" in err and "Traceback" not in err


class TestProveVerbs:
    def test_prove_and_tree(self, capsys, tmp_path):
        target = str(tmp_path / "proof.txt")
        code, out, _ = run(capsys, "prove", "D{x}y; D{y}z => D{x}z",
                           "--tree", target)
        assert code == 0 and out == "proved\n"
        with open(target, "r", encoding="utf-8") as fh:
            assert "=>" in fh.read()

    def test_refused(self, capsys):
        code, out, _ = run(capsys, "prove", "=> P(x) -> box{y}P(x)")
        assert code == 0 and out == "refused\n"

    def test_hilbert_ok(self, capsys):
        code, out, _ = run(capsys, "hilbert", data_path("monotonicity.hp"))
        assert code == 0 and out == "ok\n"

    def test_hilbert_error_line(self, capsys):
        code, out, _ = run(capsys, "hilbert", data_path("bad-intro.hp"))
        assert code == 0 and out.startswith("line 1:")


class TestTranslate:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "translate", "D{x}y", "--vars", "x,y")
        assert code == 0 and "team_A" in out

    def test_tptp(self, capsys):
        code, out, _ = run(capsys, "translate", "box{x}P(x)", "--vars", "x,y",
                           "--format", "tptp", "--name", "unit1")
        assert code == 0 and out.startswith("fof(unit1, conjecture,")

    def test_tptp_negated(self, capsys):
        code, out, _ = run(capsys, "translate", "box{x}P(x)", "--vars", "x,y",
                           "--format", "tptp", "--negate")
        assert code == 0 and "axiom" in out and "~" in out


class TestRepresent:
    def test_global_mode(self, capsys, tmp_path):
        target = str(tmp_path / "model.dm")
        code, out, _ = run(capsys, "represent", "--relation",
                           data_path("chain.rel"), "--mode", "global",
                           "--out", target)
        assert code == 0
        from lfd.models import load_model, global_dep
        m = load_model(target)
        assert global_dep(m, frozenset(("x",)), "y")
        assert not global_dep(m, frozenset(("y",)), "x")

    def test_uniform_mode_stdout(self, capsys):
        code, out, _ = run(capsys, "represent", "--relation",
                           data_path("chain.rel"), "--mode", "uniform")
        assert code == 0 and out.startswith("variables x y z")


class TestFrame:
    def test_church_rosser_counterexample(self, capsys):
        code, out, _ = run(capsys, "frame", "--model", data_path("commutation.dm"),
                           "--property", "church-rosser", "--sets", "{x};{y}")
        assert code == 0 and out == "fails: rows 0 1 2\n"

    def test_cartesian(self, capsys):
        code, out, _ = run(capsys, "frame", "--model", data_path("ex27.dm"),
                           "--property", "cartesian")
        assert code == 0 and out.startswith("fails: missing")


class TestFiltrateConvert:
    def test_filtrate_writes_general_model(self, capsys, tmp_path):
        target = str(tmp_path / "filtered.rm")
        code, _, _ = run(capsys, "filtrate", "--model",
                         data_path("restaurant.csv"),
                         "--formula", "D{Food}Price", "--out", target)
        assert code == 0
        from lfd.relational import parse_relational, validate
        with open(target, "r", encoding="utf-8") as fh:
            r = parse_relational(fh.read())
        assert r.kind == "general"
        assert validate(r) == []

    def test_convert_round_trip(self, capsys, tmp_path):
        rm = str(tmp_path / "model.rm")
        dm = str(tmp_path / "model.dm")
        code, _, _ = run(capsys, "convert", "--in", data_path("ex27.dm"),
                         "--out", rm)
        assert code == 0
        code, _, _ = run(capsys, "convert", "--in", rm, "--out", dm)
        assert code == 0
        from lfd.models import load_model, global_dep
        m = load_model(dm)
        assert global_dep(m, frozenset(("x",)), "y")
        assert not global_dep(m, frozenset(("y",)), "x")

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.rm"), str(tmp_path / "b.rm")
        run(capsys, "convert", "--in", data_path("restaurant.csv"), "--out", a)
        run(capsys, "convert", "--in", data_path("restaurant.csv"), "--out", b)
        with open(a, "rb") as f1, open(b, "rb") as f2:
            assert f1.read() == f2.read()

    def _refused(self, capsys, code_wanted, *argv):
        code, out, err = run(capsys, *argv)
        assert code == code_wanted and out == ""
        assert err and "Traceback" not in err

    def test_convert_undeclared_world_exit_three(self, capsys, tmp_path):
        path = tmp_path / "undeclared.rm"
        path.write_text("kind standard\nvariables x y\nworld w0 w1\n"
                        "rel {x}: w0~w9\nrel {y}: w0~w1\n")
        self._refused(capsys, 3, "convert", "--in", str(path))

    def test_convert_missing_single_relation_exit_three(self, capsys,
                                                        tmp_path):
        path = tmp_path / "no-single.rm"
        path.write_text("kind standard\nvariables x y\nworld w0 w1\n"
                        "rel {y}: w0~w1\n")
        self._refused(capsys, 3, "convert", "--in", str(path))

    def test_convert_unknown_directive_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bogus.rm"
        path.write_text("kind standard\nvariables x\nbogus line\n"
                        "world w0\nrel {x}: w0~w0\n")
        self._refused(capsys, 2, "convert", "--in", str(path))

    def test_filtrate_non_predicate_atom_exit_two(self, capsys, tmp_path):
        path = tmp_path / "dep-atom.rm"
        path.write_text("kind general\nvariables x y\nworld w0\n"
                        "rel {}: w0~w0\natom w0: D{x}y\n")
        self._refused(capsys, 2, "filtrate", "--model", str(path),
                      "--formula", "D{x}y")

    def test_filtrate_missing_file_exit_two(self, capsys, tmp_path):
        self._refused(capsys, 2, "filtrate", "--model",
                      str(tmp_path / "missing.rm"), "--formula", "D{x}y")


class TestFileErrors:
    """Every unreadable or unwritable file exits 2, prints nothing on stdout
    and no traceback."""

    def _refused(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err and "Traceback" not in err

    def test_model_is_a_directory(self, capsys, tmp_path):
        self._refused(capsys, "check", "--model", str(tmp_path), "--at", "0",
                      "P(x)")

    def test_loaders_on_a_directory(self, capsys, tmp_path):
        d = str(tmp_path)
        self._refused(capsys, "filtrate", "--model", d, "--formula", "D{x}y")
        self._refused(capsys, "convert", "--in", d)
        self._refused(capsys, "represent", "--relation", d)
        self._refused(capsys, "hilbert", d)
        self._refused(capsys, "deps", "--model", d)

    def test_model_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"x,y\n\xff,0\n")
        self._refused(capsys, "check", "--model", str(path), "--at", "0",
                      "P(x)")

    def test_missing_files(self, capsys, tmp_path):
        missing = str(tmp_path / "missing")
        self._refused(capsys, "check", "--model", missing + ".csv", "--at",
                      "0", "P(x)")
        self._refused(capsys, "hilbert", missing + ".hp")
        self._refused(capsys, "represent", "--relation", missing + ".rel")

    def test_unwritable_outputs(self, capsys, tmp_path):
        out = str(tmp_path / "no-such-dir" / "out.rm")
        self._refused(capsys, "sat", "P(x) & !Q(x)", "--witness", out)
        self._refused(capsys, "valid", "P(x)", "--witness", out)
        self._refused(capsys, "prove", "P(x) => P(x)", "--tree", out)
        self._refused(capsys, "convert", "--in", data_path("restaurant.csv"),
                      "--out", out)
