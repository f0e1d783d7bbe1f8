import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from anickres.cli import main
from anickres.rewriting import CompletionCapError, RewriteRule, RewritingSystem


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


ROOT = Path(__file__).resolve().parent.parent


def run_python(*argv, timeout=120):
    """A fresh interpreter on the checkout's own sources."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=timeout
    )


def test_nf_braid(capsys):
    code, out = run(capsys, "nf", "--builtin", "small", "--l", "1", "b0 a0 b0 a0 + a0 b0 a0 b0")
    assert code == 0
    assert "normal form: 0" in out


def test_nf_unit(capsys):
    code, out = run(capsys, "nf", "--builtin", "small", "--l", "0", "1")
    assert code == 0
    assert "normal form: 1" in out


def test_nf_big_base_case(capsys):
    code, out = run(
        capsys,
        "nf", "--builtin", "big", "--n", "3", "--p", "2", "--expbound", "3",
        "e12_1 e23_1",
    )
    assert code == 0
    assert "e23_1 e12_1 + e13_1" in out


def test_nf_prints_the_normal_form_and_its_reduction_steps(capsys):
    code, out = run(capsys, "nf", "--builtin", "small", "--l", "2", "b1 a0 b0 a0 b1 a1")
    assert code == 0
    assert out == "normal form: 0\nreduction steps: 6\n"
    code, out = run(
        capsys,
        "nf", "--builtin", "conjectural", "--variant", "odd_p_n3", "--p", "3",
        "--indexbound", "1", "a2_0 a1_0 a2_0 a1_0 a1_0",
    )
    assert code == 0
    assert out == (
        "normal form: a1_0 a2_0 a1_0 a2_0 a1_0 + 2 a1_0 a1_0 a2_0 a1_0 a2_0\n"
        "reduction steps: 5\n"
    )


XY = [{"name": "x", "degree": 1, "rank": 0}, {"name": "y", "degree": 1, "rank": 1}]


def test_nf_counts_the_steps_of_a_long_word(tmp_path, capsys):
    # y x^1100 needs one rewrite per x, and a derivation 1100 words deep
    doc = {"p": 2, "alphabet": XY, "relations": [[[1, ["y", "x"]], [1, ["x", "y"]]]]}
    code, out = run(capsys, "nf", "--file", write_doc(tmp_path, doc), "y " + "x " * 1100)
    assert code == 0
    assert out == f"normal form: {'x ' * 1100}y\nreduction steps: 1100\n"


def test_nf_over_a_large_prime(tmp_path, capsys):
    # the Mersenne prime 2^61 - 1 is found prime by Miller-Rabin at once,
    # where trial division up to its square root would take hours
    p = 2**61 - 1
    doc = {"p": p, "alphabet": XY, "relations": [[[1, ["y", "x"]], [1, ["x", "y"]]]]}
    code, out = run(capsys, "nf", "--file", write_doc(tmp_path, doc), "y x")
    assert code == 0
    assert out == f"normal form: {p - 1} x y\nreduction steps: 1\n"


def test_a_characteristic_above_2_64_exits_2(tmp_path, capsys):
    # 2^89 - 1 is prime, but twelve Miller-Rabin bases decide primality
    # only below 2^64, so the field is refused in one line
    p = 2**89 - 1
    doc = {"p": p, "alphabet": XY, "relations": [[[1, ["y", "x"]], [1, ["x", "y"]]]]}
    code = main(["nf", "--file", write_doc(tmp_path, doc), "y x"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: characteristic {p} is too large: p must be below 2^64\n"


def test_nf_of_a_3000_letter_word(capsys):
    # the algebra of small l=1 is finite-dimensional, so a long word is 0
    code, out = run(capsys, "nf", "--builtin", "small", "--l", "1", " ".join(["b1 a0 b0"] * 1000))
    assert code == 0
    assert out.startswith("normal form: 0\nreduction steps: ")


@pytest.mark.parametrize(
    "argv, line",
    [(["anick"], "complex identities hold: True"), (["betti", "--D", "4"], "exactness defects: 0")],
)
def test_a_long_left_hand_side_resolves(tmp_path, capsys, argv, line):
    # the lhs y x^1500 is longer than Python's recursion limit
    doc = {"p": 2, "alphabet": XY, "relations": [[[1, ["y"] + ["x"] * 1500]]]}
    code, out = run(capsys, argv[0], "--file", write_doc(tmp_path, doc), *argv[1:])
    assert code == 0
    assert line in out.splitlines()


def test_betti_past_the_irreducible_word_cap_exits_2(tmp_path, capsys):
    # words free of x x over three letters outgrow the cap by degree 16
    alphabet = [{"name": name, "degree": 1, "rank": i} for i, name in enumerate("xyz")]
    doc = {"p": 2, "alphabet": alphabet, "relations": [[[1, ["x", "x"]]]]}
    code = main(["betti", "--file", write_doc(tmp_path, doc), "--D", "16"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: irreducible word enumeration exceeded its cap of 2000000 words up to degree 16\n"
    )


def test_nf_parse_error(capsys):
    code = main(["nf", "--builtin", "small", "zz yy"])
    assert code == 2


def test_check_small_passes(capsys):
    code, out = run(capsys, "check", "--builtin", "small", "--l", "2")
    assert code == 0
    assert "complete: True" in out


def test_check_json_deterministic(capsys):
    _, out1 = run(capsys, "check", "--builtin", "small", "--l", "1", "--json")
    _, out2 = run(capsys, "check", "--builtin", "small", "--l", "1", "--json")
    assert out1 == out2
    data = json.loads(out1)
    assert data["verdicts"]["complete"] is True


def test_check_mutilated_fails(tmp_path, capsys):
    # the l=0 system without the braid relation is incomplete
    doc = {
        "p": 2,
        "alphabet": [
            {"name": "a0", "degree": 1, "rank": 0},
            {"name": "b0", "degree": 1, "rank": 1},
            {"name": "a1", "degree": 2, "rank": 2},
            {"name": "b1", "degree": 2, "rank": 3},
        ],
        "relations": [
            [[1, ["a0", "a0"]]],
            [[1, ["b0", "b0"]]],
            [[1, ["a1", "a1"]]],
            [[1, ["b1", "b1"]]],
            [[1, ["a1", "a0"]], [1, ["a0", "a1"]]],
            [[1, ["b1", "b0"]], [1, ["b0", "b1"]]],
            [[1, ["a1", "b0"]], [1, ["b0", "a1"]], [1, ["a0", "b0", "a0"]]],
            [[1, ["b1", "a0"]], [1, ["a0", "b1"]], [1, ["b0", "a0", "b0"]]],
        ],
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "check", "--file", str(path))
    assert code == 1
    assert "complete: False" in out


# `check --json` of an incomplete and a complete presentation, byte for byte:
# the witnesses list the unresolved tips in pair order
CHECK_CONJECTURAL_JSON = (
    '{\n'
    '  "command": "check",\n'
    '  "params": {\n'
    '    "degree_bound": 12,\n'
    '    "index_bound": 2,\n'
    '    "n": 3,\n'
    '    "p": 3,\n'
    '    "variant": "odd_p_n3"\n'
    '  },\n'
    '  "tables": {},\n'
    '  "verdicts": {\n'
    '    "complete": false,\n'
    '    "witnesses": [\n'
    '      "a2_2 a1_0 a1_0 a1_0",\n'
    '      "a1_2 a2_0 a2_0 a2_0",\n'
    '      "a1_1 a2_0 a2_0 a1_0",\n'
    '      "a1_2 a2_0 a2_0 a1_0",\n'
    '      "a1_1 a2_0 a1_0 a1_0",\n'
    '      "a1_2 a2_0 a1_0 a1_0",\n'
    '      "a1_1 a2_0 a1_0 a2_0 a1_0 a2_0 a1_0",\n'
    '      "a1_1 a1_1 a1_1 a2_0",\n'
    '      "a2_1 a2_1 a1_1 a2_0",\n'
    '      "a2_1 a1_1 a1_1 a2_0",\n'
    '      "a2_1 a2_1 a2_1 a1_0"\n'
    '    ]\n'
    '  }\n'
    '}\n'
)

CHECK_BIG_JSON = (
    '{\n'
    '  "command": "check",\n'
    '  "params": {\n'
    '    "degree_bound": 14,\n'
    '    "exponent_bound": 8,\n'
    '    "n": 3,\n'
    '    "p": 3\n'
    '  },\n'
    '  "tables": {},\n'
    '  "verdicts": {\n'
    '    "complete": true,\n'
    '    "witnesses": []\n'
    '  }\n'
    '}\n'
)


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        (
            ["--builtin", "conjectural", "--variant", "odd_p_n3", "--p", "3",
             "--indexbound", "2", "--degree-bound", "12"],
            1,
            CHECK_CONJECTURAL_JSON,
        ),
        (
            ["--builtin", "big", "--n", "3", "--p", "3", "--expbound", "8",
             "--degree-bound", "14"],
            0,
            CHECK_BIG_JSON,
        ),
    ],
)
def test_check_json_is_pinned(capsys, argv, code, expected):
    assert run(capsys, "check", *argv, "--json") == (code, expected)


# each builtin's flags and the document they stand for, with an expression
# in its alphabet
BUILTIN_FLAGS_AND_DOCUMENTS = [
    (["--builtin", "small", "--l", "1"], {"builtin": "small", "params": {"l": 1}}, "b0 a0 b0 a1"),
    (
        ["--builtin", "big", "--n", "3", "--p", "3", "--expbound", "2"],
        {"builtin": "big", "params": {"n": 3, "p": 3, "exponent_bound": 2}},
        "e12_1 e23_2",
    ),
    (
        ["--builtin", "conjectural", "--variant", "odd_p_n3", "--p", "3", "--indexbound", "1"],
        {
            "builtin": "conjectural",
            "params": {"variant": "odd_p_n3", "n": 3, "p": 3, "index_bound": 1},
        },
        "a2_0 a1_0 a2_0 a1_0 a1_0",
    ),
    # no flags and no params: both report the defaults
    (["--builtin", "small"], {"builtin": "small"}, "b0 a0 b0 a1"),
]


@pytest.mark.parametrize("command", ["nf", "check", "betti"])
@pytest.mark.parametrize("flags, doc, expression", BUILTIN_FLAGS_AND_DOCUMENTS)
def test_builtin_flags_and_their_document_print_the_same_report(
    tmp_path, capsys, command, flags, doc, expression
):
    # flags and --file take one route, so their reports agree byte for byte
    extra = {"nf": [expression], "check": [], "betti": ["--D", "6"]}[command]
    from_flags = run(capsys, command, *flags, *extra, "--json")
    from_file = run(capsys, command, "--file", write_doc(tmp_path, doc), *extra, "--json")
    assert from_flags == from_file
    assert json.loads(from_file[1])["command"] == command


@pytest.mark.parametrize(
    "argv, line",
    [
        (["check", "--n", "4", "--p", "3"], "--n is not a parameter of builtin 'small'"),
        (["check", "--builtin", "big", "--l", "5"], "--l is not a parameter of builtin 'big'"),
        (
            ["anick", "--builtin", "small", "--variant", "odd_p_n3"],
            "--variant is not a parameter of builtin 'small'",
        ),
        (
            ["betti", "--builtin", "conjectural", "--variant", "odd_p_n3", "--expbound", "2"],
            "--expbound is not a parameter of builtin 'conjectural'",
        ),
        (["betti", "FILE", "--builtin", "big", "--n", "4"], "--builtin cannot be given with --file"),
        (["nf", "FILE", "--l", "2", "b0"], "--l cannot be given with --file"),
        (["check", "FILE", "--p", "3"], "--p cannot be given with --file"),
    ],
)
def test_a_presentation_flag_that_is_not_read_exits_2(tmp_path, capsys, argv, line):
    # flags and --file take one route: a flag the chosen builtin does not
    # take, or any builtin flag beside --file, is refused like an unknown
    # parameter of a document
    doc = write_doc(tmp_path, {"builtin": "small", "params": {"l": 1}})
    argv = [a for arg in argv for a in (["--file", doc] if arg == "FILE" else [arg])]
    code = main([*argv, "--json"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {line}\n"


AB = [{"name": "a", "degree": 1, "rank": 0}, {"name": "b", "degree": 1, "rank": 1}]


@pytest.mark.parametrize(
    "doc, reason",
    [
        ({"p": 3, "alphabet": [{"name": "x"}], "relations": []}, "missing key 'degree'"),
        ({"p": 3, "alphabet": 5, "relations": []}, "not iterable"),
        ({"builtin": "conjectural", "params": {}}, "missing key 'variant'"),
        ([1, 2], "must be a JSON object"),
        (
            {"p": 3, "alphabet": [{"name": "x", "degree": True, "rank": 0}], "relations": []},
            "the degree of generator 'x' must be an integer, not True",
        ),
        (
            {"p": 3, "alphabet": [{"name": "x", "degree": 1, "rank": False}], "relations": []},
            "the rank of generator 'x' must be an integer, not False",
        ),
        (
            {"p": 3, "alphabet": AB, "relations": [[[1, "ab"]]]},
            "term [1, 'ab'] of relation 1 is not a pair [coefficient, [names...]]",
        ),
        (
            {"p": 3, "alphabet": AB, "relations": [[[1, ["a"]], [1.5, ["b"]]]]},
            "the coefficient of term [1.5, ['b']] of relation 1 must be an integer, not 1.5",
        ),
        (
            {"p": 3, "alphabet": AB, "relations": [[], [[1, ["a"], 3]]]},
            "term [1, ['a'], 3] of relation 2 is not a pair [coefficient, [names...]]",
        ),
        ({"builtin": "small", "params": {"l": True}}, "parameter 'l' must be an integer, not True"),
        (
            {"builtin": "big", "params": {"n": 3, "p": 2, "exponent_bound": True}},
            "parameter 'exponent_bound' must be an integer, not True",
        ),
        (
            {"builtin": "conjectural", "params": {"variant": "odd_p_n3", "p": 3, "index_bound": 1.0}},
            "parameter 'index_bound' must be an integer, not 1.0",
        ),
        (
            {"builtin": "small", "params": {"l": 1, "bogus": 5}},
            "unknown parameter 'bogus' of builtin 'small'",
        ),
        ({"builtin": "small", "params": [1]}, "params must be a JSON object, not [1]"),
        (
            {"builtin": "small", "p": 2, "alphabet": AB, "relations": []},
            "a builtin document cannot also give p, alphabet or relations",
        ),
        ({"builtin": "small", "relations": []}, "cannot also give p, alphabet or relations"),
        ({"builtin": "tiny"}, "unknown builtin 'tiny'"),
        ({"builtin": "small", "param": {"l": 1}}, "unknown key 'param' in the document"),
        ({"p": 3, "alphabet": ["x"], "relations": []}, "alphabet entry 'x' is not an object"),
    ],
)
def test_malformed_document_exits_2(tmp_path, capsys, doc, reason):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main(["check", "--file", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and reason in err


@pytest.mark.parametrize("params", [3, [], {"D": 99}, {"l": 1}])
@pytest.mark.parametrize("argv", [["nf", "a"], ["check"], ["betti", "--D", "4", "--json"]])
def test_explicit_document_with_params_exits_2(tmp_path, capsys, argv, params):
    # params select a builtin's parameters: an explicit document has none,
    # whatever their shape, and none reaches a report's own keys
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"p": 2, "alphabet": AB, "relations": [], "params": params}))
    code = main([*argv, "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: params belong to a builtin document, not {params!r}\n"


@pytest.mark.parametrize("argv", [["nf", "a"], ["check"], ["betti", "--D", "4"]])
def test_alphabet_entry_with_an_unknown_key_exits_2(tmp_path, capsys, argv):
    # a misspelt key of a generator is refused, not ignored, on every command
    entry = {"name": "a", "degree": 1, "rank": 0, "degre": 2}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"p": 2, "alphabet": [entry], "relations": []}))
    code = main([*argv, "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: unknown key 'degre' in alphabet entry {entry!r}\n"


@pytest.mark.parametrize(
    "argv, option",
    [(["betti", "--D", "-1"], "--D"), (["check", "--degree-bound", "-3"], "--degree-bound")],
)
def test_negative_degree_bound_exits_2(capsys, argv, option):
    code = main([*argv, "--json"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {option} must be >= 0\n"


def test_anick_single_rule(tmp_path, capsys):
    doc = {
        "p": 2,
        "alphabet": [{"name": "a", "degree": 1, "rank": 0}],
        "relations": [[[1, ["a", "a"]]]],
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "anick", "--file", str(path))
    assert code == 0
    assert "T_2: 1 chains" in out
    assert "d_2(.a a a) = a . a a" in out


def test_betti_minimal(capsys):
    code, out = run(capsys, "betti", "--builtin", "small", "--l", "2", "--D", "8", "--minimal")
    assert code == 0
    assert "level 1  degree 1  count 2" in out
    assert "level 2  degree 3  count 4" in out
    assert "exactness defects: 0" in out


def test_betti_of_a_finite_algebra_to_a_huge_degree_bound_finishes():
    # exactness visits only the degrees that hold a column, so a bound far
    # past the algebra's top degree prints the tables of a bound just past it
    def tables(D):
        argv = ["betti", "--builtin", "small", "--l", "0", "--D", D]
        proc = run_python("-m", "anickres", *argv, timeout=60)
        assert proc.returncode == 0, proc.stderr
        head, *rows = proc.stdout.splitlines()
        assert head == f"betti table (minimal=True, D={D}):"
        return rows

    assert tables("1000000000") == tables("100")


def test_betti_no_minimal_superset(capsys):
    _, out_min = run(capsys, "betti", "--builtin", "small", "--l", "2", "--D", "8", "--json")
    _, out_raw = run(
        capsys, "betti", "--builtin", "small", "--l", "2", "--D", "8", "--no-minimal", "--json"
    )
    bmin = json.loads(out_min)["tables"]["betti"]
    braw = json.loads(out_raw)["tables"]
    for degree, count in bmin["2"].items():
        assert braw["betti"]["2"].get(degree, 0) >= count
    # raw chain counts only bound the Betti numbers: every row above 0 says so
    assert braw["betti_bound_levels"] == ["1", "2", "3"]
    _, text = run(capsys, "betti", "--builtin", "small", "--l", "2", "--D", "8", "--no-minimal")
    rows = [line.split() for line in text.splitlines() if line.startswith("  level")]
    assert len(rows) == sum(len(row) for row in braw["betti"].values())
    for row in rows:
        assert (row[-2:] == ["(upper", "bound)"]) == (row[1] != "0")
    assert "  level 2  degree 4  count 3  (upper bound)" in text.splitlines()


def _betti_report(params, betti):
    """The exact bytes `betti --json` prints: one canonical report."""
    data = {
        "command": "betti",
        "params": params,
        "tables": {"betti": betti, "betti_bound_levels": ["3"]},
        "verdicts": {"exact": True},
    }
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


# Both systems have chains above D (up to degrees 48 and 12), which betti
# leaves out of its resolution; the reports are those of the whole complex.
@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["--builtin", "small", "--l", "3", "--D", "8"],
            _betti_report(
                {"D": 8, "l": 3, "minimal": True},
                {
                    "0": {"0": 1},
                    "1": {"1": 2, "2": 2, "4": 2, "8": 2},
                    "2": {"2": 2, "3": 4, "4": 2, "5": 4, "6": 4, "8": 2},
                    "3": {"3": 2, "4": 3, "5": 6, "6": 9, "7": 8, "8": 5},
                },
            ),
        ),
        (
            ["--builtin", "big", "--n", "3", "--p", "3", "--expbound", "2", "--D", "6"],
            _betti_report(
                {"D": 6, "exponent_bound": 2, "minimal": True, "n": 3, "p": 3},
                {"0": {"0": 1}, "1": {"1": 2}, "2": {"3": 4, "6": 1}, "3": {"4": 10, "5": 18, "6": 10}},
            ),
        ),
    ],
    ids=["small l=3 D=8", "big(3,3,2) D=6"],
)
def test_betti_json_golden(capsys, argv, expected):
    code, out = run(capsys, "betti", *argv, "--json")
    assert code == 0
    assert out == expected


def test_conjectures_exits_zero(capsys):
    code, out = run(capsys, "conjectures")
    assert code == 0
    assert "frobenius shift" in out


def write_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def betti_rows(out):
    """The rows {level: {degree: count}} of betti's text table, the levels
    labelled upper bounds, and its exactness line."""
    rows, bounds = {}, set()
    for line in out.splitlines():
        m = re.fullmatch(r"  level (\d+)  degree (\d+)  count (\d+)(  \(upper bound\))?", line)
        if m:
            level, degree, count = map(int, m.groups()[:3])
            rows.setdefault(level, {})[degree] = count
            if m.group(4):
                bounds.add(level)
    return rows, bounds, out.splitlines()[-1]


@pytest.mark.parametrize("command", ["anick", "betti"])
def test_incomplete_presentation_names_the_tip(tmp_path, capsys, command):
    # y x y + x y x over F_3 is not complete: anick needs every critical pair
    # to resolve and names the first tip that does not, in its --json report
    # too; betti completes the system up to D and prints the table of the
    # one relation in degree 3
    doc = {
        "p": 3,
        "alphabet": [{"name": "x", "degree": 1, "rank": 0}, {"name": "y", "degree": 1, "rank": 1}],
        "relations": [[[1, ["y", "x", "y"]], [1, ["x", "y", "x"]]]],
    }
    path = write_doc(tmp_path, doc)
    if command == "anick":
        code = main(["anick", "--file", path])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and "tip y x y x y" in err
        code = main(["anick", "--file", path, "--json"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == err
        report = json.loads(captured.out)
        assert report["command"] == "anick"
        assert report["verdicts"] == {"complete": False, "unresolved_tip": "y x y x y"}
        return
    code, out = run(capsys, "betti", "--file", path, "--D", "8")
    assert code == 0
    rows, bounds, last = betti_rows(out)
    assert {level: rows.get(level, {}) for level in (0, 1, 2)} == {
        0: {0: 1},
        1: {1: 2},
        2: {3: 1},
    }
    assert bounds == {3} and max(rows) == 3
    assert last == "exactness defects: 0"


ODD_P_N3 = ["--builtin", "conjectural", "--variant", "odd_p_n3", "--p", "3", "--indexbound", "1"]


def test_betti_needs_completeness_only_up_to_D(capsys):
    # the first pair of odd_p_n3 (index 1) that does not resolve has a tip of
    # degree 6: below it the system is complete and betti resolves it as it
    # is; at D = 6 betti completes it up to degree 6 first
    code, out = run(capsys, "betti", *ODD_P_N3, "--D", "5", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"] == {"exact": True}
    assert report["tables"]["betti"]["1"] == {"1": 2, "3": 2}
    assert report["tables"]["betti"]["2"] == {"3": 4, "4": 2}
    code, out = run(capsys, "betti", *ODD_P_N3, "--D", "6")
    assert code == 0
    rows, bounds, last = betti_rows(out)
    assert rows[1] == {1: 2, 3: 2} and rows[2] == {3: 4, 4: 2}
    assert bounds == {3} and last == "exactness defects: 0"


@pytest.mark.parametrize(
    "argv, row1, row2",
    [
        (["--variant", "odd_p_n3", "--p", "3", "--indexbound", "1", "--D", "12"],
         {1: 2, 3: 2}, {3: 4, 4: 2, 9: 4}),
        (["--variant", "odd_p_n3", "--p", "3", "--indexbound", "2", "--D", "14"],
         {1: 2, 3: 2, 9: 2}, {3: 4, 4: 2, 9: 4, 10: 2, 12: 2}),
        (["--variant", "p2_general_n", "--p", "2", "--n", "4", "--indexbound", "1", "--D", "8"],
         {1: 3, 2: 3}, {2: 3, 4: 6, 6: 1, 8: 3}),
    ],
    ids=["odd_p_n3 index 1 D=12", "odd_p_n3 index 2 D=14", "p2_general_n n=4 D=8"],
)
def test_betti_completes_the_conjectural_presentations(capsys, argv, row1, row2):
    # these presentations are not complete up to D: betti completes them and
    # prints exact rows 0-2, with the top row labelled a bound
    code, out = run(capsys, "betti", "--builtin", "conjectural", *argv)
    assert code == 0
    rows, bounds, last = betti_rows(out)
    assert (rows[0], rows[1], rows[2]) == ({0: 1}, row1, row2)
    assert bounds == {3} and max(rows) == 3
    assert last == "exactness defects: 0"


def test_betti_completion_cap_exits_2(monkeypatch, capsys):
    def capped(self, degree_bound):
        raise CompletionCapError("completion cap of 10000 new rules exceeded", self)

    monkeypatch.setattr(RewritingSystem, "complete", capped)
    code = main(["betti", *ODD_P_N3, "--D", "12"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: completion cap of 10000 new rules exceeded\n"


@pytest.mark.parametrize("command", ["anick", "betti"])
def test_presentation_not_augmented_is_refused(tmp_path, capsys, command):
    doc = {
        "p": 3,
        "alphabet": [{"name": "x", "degree": 1, "rank": 0}],
        "relations": [[[1, ["x"]], [-1, []]]],
    }
    code = main([command, "--file", write_doc(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: presentation is not augmented: rule x -> 1 has a constant term\n"


def test_betti_refuses_an_inhomogeneous_presentation(tmp_path, capsys):
    # x y - x is complete and augmented, so anick resolves it, but it has
    # no grading: the Betti table would cancel x y (degree 2) against x
    doc = {
        "p": 3,
        "alphabet": [{"name": "x", "degree": 1, "rank": 0}, {"name": "y", "degree": 1, "rank": 1}],
        "relations": [[[1, ["x", "y"]], [-1, ["x"]]]],
    }
    path = write_doc(tmp_path, doc)
    assert main(["anick", "--file", path]) == 0
    capsys.readouterr()
    code = main(["betti", "--file", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: graded Betti numbers need homogeneous relations: "
        "the tail of rule x y -> x leaves degree 2\n"
    )


def test_anick_interreduces_big(capsys):
    code, out = run(capsys, "anick", "--builtin", "big", "--n", "3", "--p", "3", "--expbound", "2")
    assert code == 0
    assert "complex identities hold: True" in out


def test_betti_cube_over_f3(tmp_path, capsys):
    doc = {
        "p": 3,
        "alphabet": [{"name": "a", "degree": 1, "rank": 0}],
        "relations": [[[1, ["a", "a", "a"]]]],
    }
    code, out = run(capsys, "betti", "--file", write_doc(tmp_path, doc), "--D", "8")
    assert code == 0
    assert "level 2  degree 3  count 1" in out
    assert "level 3  degree 4  count 1  (upper bound)" in out
    assert "exactness defects: 0" in out


def test_betti_labels_only_the_top_row_a_bound(capsys):
    _, out = run(capsys, "betti", "--builtin", "small", "--l", "2", "--D", "8")
    bounds = [line for line in out.splitlines() if line.endswith("(upper bound)")]
    assert bounds and all(line.startswith("  level 3 ") for line in bounds)
    assert "level 2  degree 3  count 4\n" in out


def test_betti_json_names_the_bound_row(capsys):
    from anickres.documents import Report

    _, text = run(capsys, "betti", "--builtin", "small", "--l", "2", "--D", "8")
    _, out = run(capsys, "betti", "--builtin", "small", "--l", "2", "--D", "8", "--json")
    tables = json.loads(out)["tables"]
    assert tables["betti_bound_levels"] == [max(tables["betti"], key=int)] == ["3"]
    assert Report.from_json(out).to_json() == out.rstrip("\n")
    # the text output is unchanged by the new table
    bounds = [line for line in text.splitlines() if line.endswith("(upper bound)")]
    assert len(bounds) == len(tables["betti"]["3"])


@pytest.mark.parametrize(
    "name, relation, expression",
    [("e", [[1, ["e", "e"]]], "e"), ("2", [[1, ["2", "2"]]], "2 2")],
)
def test_generator_names_the_expression_grammar_misreads_exit_2(
    tmp_path, capsys, name, relation, expression
):
    # "e" would parse as the empty word, "2 2" as the coefficient 2 times 2
    doc = {"p": 2, "alphabet": [{"name": name, "degree": 1, "rank": 0}], "relations": [relation]}
    code = main(["nf", "--file", write_doc(tmp_path, doc), expression])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and f"generator name {name!r}" in captured.err


def test_conjectures_prints_criterion_9(capsys):
    from anickres.checks import criterion_9_conjectures

    code, out = run(capsys, "conjectures", "--json")
    assert code == 0
    assert json.loads(out)["verdicts"] == criterion_9_conjectures().details


def test_python_m_anickres_runs_the_cli():
    proc = run_python("-m", "anickres", "betti", "--builtin", "small", "--l", "2", "--D", "8", "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdicts"] == {"exact": True}



def test_betti_interreduces_redundant_rules_of_a_document(tmp_path, capsys):
    # small l=3 with x L -> x R added for its first 30 rules L -> R, as an
    # explicit document: interreduction drops the 30 and the table is that
    # of the builtin
    from anickres.kostant import small_system

    system = small_system(3)
    names = [g.name for g in system.alphabet]
    x = (0,)
    extra = [RewriteRule(x + r.lhs, r.rhs.sandwich(x, ())) for r in system.rules[:30]]
    doc = {
        "p": system.field.p,
        "alphabet": [{"name": g.name, "degree": g.degree, "rank": g.rank} for g in system.alphabet],
        "relations": [
            [[c, [names[i] for i in w]] for w, c in r.polynomial().terms.items()]
            for r in (*system.rules, *extra)
        ],
    }
    code, out = run(capsys, "betti", "--file", write_doc(tmp_path, doc), "--D", "8", "--json")
    assert code == 0
    code, builtin = run(capsys, "betti", "--builtin", "small", "--l", "3", "--D", "8", "--json")
    assert code == 0
    assert json.loads(out)["tables"] == json.loads(builtin)["tables"]


def test_betti_interreduces_a_thousand_copies_of_one_relation(tmp_path, capsys):
    # interreduction always ends, and in linear time: each copy of y x + x y
    # but the last reduces to 0 modulo the others and is left out of one
    # working system, with no system built per copy
    alphabet = [{"name": "x", "degree": 1, "rank": 0}, {"name": "y", "degree": 1, "rank": 1}]
    relation = [[1, ["y", "x"]], [1, ["x", "y"]]]
    doc = {"p": 2, "alphabet": alphabet, "relations": [relation] * 5000}
    code, out = run(capsys, "betti", "--file", write_doc(tmp_path, doc), "--D", "4")
    assert code == 0
    rows, _, last = betti_rows(out)
    assert (rows[0], rows[1], rows[2]) == ({0: 1}, {1: 2}, {2: 1})
    assert last == "exactness defects: 0"


@pytest.mark.parametrize(
    "results, lines, code",
    [
        ([("one", True, True), ("two", False, False)], ["PASS one", "INFO two", "overall: PASS"], 0),
        ([("one", True, True), ("three", False, True)], ["PASS one", "FAIL three", "overall: FAIL"], 1),
    ],
    ids=["informational failure", "gating failure"],
)
def test_verify_fails_only_on_a_gating_criterion(monkeypatch, capsys, results, lines, code):
    # fake results stand in for the criteria, so that none runs
    from anickres import checks
    from anickres.checks import CriterionResult

    criteria = [CriterionResult(name, ok, gating, {"n": {1: ok}}) for name, ok, gating in results]
    monkeypatch.setattr(checks, "run_all", lambda: criteria)
    assert run(capsys, "verify") == (code, "".join(f"{line}\n" for line in lines))
    got, out = run(capsys, "verify", "--json")
    report = json.loads(out)
    assert got == code and report["command"] == "verify"
    assert report["verdicts"] == {name: ok for name, ok, _ in results}
    assert report["tables"] == {"details": {name: {"n": {"1": ok}} for name, ok, _ in results}}
