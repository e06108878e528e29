"""Command line behavior: formats, exit codes, determinism."""

import hashlib
import io
import json
import re
import time
from pathlib import Path

import pytest

from prismcode import cli
from prismcode.cli import main
from prismcode.cycleprism import _prism
from prismcode.graphs import (
    MAX_ORDER,
    GraphFormatError,
    PrismIndexing,
    complementary_prism,
    cycle,
    format_graph,
    parse_graph,
)
from prismcode.layout import parse_layout

import bruteforce as bf


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def prism9(tmp_path, capsys):
    path = tmp_path / "p9.txt"
    assert main(["gen", "prism", "9", "-o", str(path)]) == 0
    capsys.readouterr()
    return str(path)


@pytest.fixture
def pattern9(tmp_path, capsys):
    path = tmp_path / "pat9.txt"
    code, out, _ = run(capsys, "pattern", "9")
    assert code == 0
    path.write_text(out)
    return str(path)


def test_gen_cycle_golden(capsys):
    code, out, _ = run(capsys, "gen", "cycle", "4")
    assert code == 0
    assert out == "p 4 4\ne 1 2\ne 1 4\ne 2 3\ne 3 4\n"
    assert parse_graph(out) == cycle(4)


def test_gen_prism_roundtrip_and_legend(prism9):
    text = Path(prism9).read_text()
    lines = text.splitlines()
    assert sum(1 for ln in lines if ln.startswith("e ")) == 45
    assert any(ln.startswith("c ") and "vbar" in ln for ln in lines)
    assert parse_graph(text) == complementary_prism(cycle(9))


def test_gen_domain_error(capsys):
    code, _, err = run(capsys, "gen", "cycle", "2")
    assert code == 64 and "error" in err


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["scan", "9", "9", "--format", "json"])  # --json is the only output switch
    assert exc.value.code == 64
    # scan takes a range and --json only: the prism of C_n at d = 1, default solver
    for argv in (["scan", "6", "7", "-d", "2"], ["scan", "9", "10", "--cap", "7"],
                 ["scan", "9", "9", "--strategy", "exhaustive"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64, argv


def test_pattern_output(capsys):
    code, out, _ = run(capsys, "pattern", "9")
    assert code == 0 and out == "111000000\n000011110\n"
    code, out, _ = run(capsys, "pattern", "9", "--box")
    assert code == 0 and out.count("##") == 7
    code, _, err = run(capsys, "pattern", "8")
    assert code == 64


def test_verify_pattern_valid(capsys, prism9, pattern9):
    code, out, _ = run(capsys, "verify", prism9, pattern9, "--json")
    assert code == 0
    assert json.loads(out) == {"valid": True}
    code, out, _ = run(capsys, "verify", prism9, pattern9)
    assert code == 0 and out.startswith("valid")


def test_verify_invalid_and_labels(capsys, tmp_path, prism9):
    empty = tmp_path / "empty.txt"
    empty.write_text("000000000\n000000000\n")
    code, out, _ = run(capsys, "verify", prism9, str(empty), "--json")
    assert code == 1
    assert json.loads(out) == {
        "valid": False,
        "failure": {"kind": "empty-ball", "vertices": ["v1"]},
    }
    listed = tmp_path / "listed.txt"
    listed.write_text("v1 v2 v3 vbar5 vbar6 vbar7 vbar8\n")
    code, out, _ = run(capsys, "verify", prism9, str(listed))
    assert code == 0, out


def test_verify_reads_code_files_by_one_rule(capsys, tmp_path, prism9):
    # two 0/1 rows of length order/2 are a code pair, anything else is vertex tokens
    bits = tmp_path / "bits.txt"
    bits.write_text("111000000\n000011110\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", prism9, str(bits), "--code-format", "bits"])  # no format switch: the rule decides
    assert exc.value.code == 64
    assert run(capsys, "verify", prism9, str(bits))[0] == 0
    short = tmp_path / "short.txt"
    short.write_text("111\n000\n")
    assert run(capsys, "verify", prism9, str(short)) == (64, "", "error: vertex 111 outside 1..18\n")
    zero = tmp_path / "zero.txt"
    zero.write_text("0\n")
    assert run(capsys, "verify", prism9, str(zero)) == (64, "", "error: vertex 0 outside 1..18\n")
    # rows of length 10 on the prism of C_20 are no pair; with leading zeros they are no vertex numbers either
    prism20 = tmp_path / "p20.txt"
    assert main(["gen", "prism", "20", "-o", str(prism20)]) == 0
    wrong = tmp_path / "wrong.txt"
    wrong.write_text("0000000001\n0000000011\n")
    for args in ((), ("--json",)):
        assert run(capsys, "verify", str(prism20), str(wrong), *args) == (64, "", "error: bad vertex token '0000000001'\n")
    # one rule for numbers, plain or in a label: ASCII digits with no leading zero
    for text, error in (("\u0660\u0661\n", "bad vertex token '\u0660\u0661'"),  # Arabic-Indic 0, 1
                        ("\u0663\n", "bad vertex token '\u0663'"),
                        ("v01 v02 v03 vbar06\n", "bad vertex label 'v01'"),
                        ("v1 v2 v3 vbar06\n", "bad vertex label 'vbar06'"),
                        ("v\u0663\n", "bad vertex label 'v\u0663'")):
        tokens = tmp_path / "tokens.txt"
        tokens.write_text(text, encoding="utf-8")
        for args in ((), ("--json",)):
            assert run(capsys, "verify", prism9, str(tokens), *args) == (64, "", f"error: {error}\n")
    tokens.write_text("v1 v2 v3 vbar6\n")
    assert run(capsys, "verify", prism9, str(tokens))[0] == 1
    cycle9 = tmp_path / "c9.txt"
    assert main(["gen", "cycle", "9", "-o", str(cycle9)]) == 0
    labels = tmp_path / "labels.txt"
    labels.write_text("v3\n")  # prism labels mean nothing off a prism
    assert run(capsys, "verify", str(cycle9), str(labels)) == (64, "", "error: bad vertex token 'v3'\n")


def test_verify_bad_graph(capsys, tmp_path, pattern9):
    bad = tmp_path / "bad.txt"
    bad.write_text("p 3\n")
    code, _, err = run(capsys, "verify", str(bad), pattern9)
    assert code == 64 and "error" in err


def test_verify_reads_at_most_one_file_from_stdin(capsys, monkeypatch, prism9, pattern9):
    # With both from stdin the graph would empty it and the code read as
    # empty; the pair is refused before anything is read.
    stdin = io.StringIO(format_graph(_prism(9)))
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "verify", "-", "-")
    assert (code, out) == (64, "")
    assert err == "error: verify reads at most one of the graph and the code from stdin\n"
    assert stdin.tell() == 0
    assert run(capsys, "verify", "-", pattern9)[0] == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(Path(pattern9).read_text()))
    assert run(capsys, "verify", prism9, "-")[0] == 0


def test_gen_output_dash_is_stdout(capsys, monkeypatch, tmp_path):
    # "-" as a graph or code file reads stdin; as gen's output it writes
    # stdout, the same bytes as without -o, and leaves no file named "-".
    monkeypatch.chdir(tmp_path)
    plain = run(capsys, "gen", "prism", "5")
    assert plain[0] == 0 and plain[1].startswith("c complementary prism")
    assert run(capsys, "gen", "prism", "5", "-o", "-") == plain
    assert list(tmp_path.iterdir()) == []


def test_solve_refuses_export_instance_to_dash(capsys, monkeypatch, tmp_path):
    # stdout carries the result, so the instance cannot go there too; the
    # option is refused before the graph is read.
    monkeypatch.chdir(tmp_path)
    stdin = io.StringIO(format_graph(_prism(5)))
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "solve", "-", "--export-instance", "-")
    assert (code, out) == (64, "")
    assert err == "error: solve prints its result on stdout, so --export-instance needs a file name, not -\n"
    assert stdin.tell() == 0
    assert list(tmp_path.iterdir()) == []


def test_non_decimal_digits_get_the_parsers_messages(capsys, tmp_path, prism9, pattern9):
    # "²" is a digit to str.isdigit but not to int(); each parser refuses it in its own words.
    files = {}
    for name, text in (("p", "p \u00b2 0\n"), ("e", "p 2 1\ne 1 \u00b2\n"), ("label", "v\u00b2\n"), ("id", "\u00b2\n")):
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text(text)
    for graph, code_file, message in (
        (files["p"], pattern9, "line 1: expected 'p <order> <edges>'"),
        (files["e"], pattern9, "line 2: expected 'e <u> <v>'"),
        (prism9, files["label"], "bad vertex label 'v\u00b2'"),
        (prism9, files["id"], "bad vertex label '\u00b2'"),
    ):
        assert run(capsys, "verify", str(graph), str(code_file)) == (64, "", f"error: {message}\n")
    code, out, err = run(capsys, "cwcheck", "\u00b2")  # not an order bound, so a graph file name
    assert code == 64 and out == "" and "invalid literal" not in err


def test_huge_decimal_fields_get_the_parsers_messages(capsys, tmp_path, prism9, pattern9):
    # int() and str() refuse numerals of more than 4,300 digits; each parser
    # counts the digits first and answers in its own words.
    big = "9" * 5000
    files = {}
    for name, text in (("order", f"p {big} 0\n"), ("edges", f"p 3 {big}\n"), ("edge", f"p 3 1\ne 1 {big}\n"),
                       ("label", f"v{big}\n"), ("id", f"{big}\n")):
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text(text)
    for graph, code_file, message in (
        (files["order"], pattern9, f"line 1: order {big} exceeds the limit of {MAX_ORDER}"),
        (files["edges"], pattern9, f"p line declares {big} edges, found 0"),
        (files["edge"], pattern9, f"line 2: bad edge 1 {big}"),
        (prism9, files["label"], f"bad vertex label 'v{big}'"),
        (prism9, files["id"], f"vertex {big} outside 1..18"),
    ):
        assert run(capsys, "verify", str(graph), str(code_file)) == (64, "", f"error: {message}\n")
    assert run(capsys, "cwcheck", big) == (64, "", f"error: order bound must be between 1 and {MAX_ORDER}\n")


# One verdict per spelling in every reader: a numeral (ASCII digits, no leading zero) or no
# number.  The last three are an Arabic-Indic 3, a fullwidth 3 and a superscript 3.
SPELLINGS = {"3": True, "0": True, "9" * 5000: True,
             "03": False, "00": False, "\u0663": False, "\uff13": False, "\u00b3": False}


def test_every_reader_takes_numbers_by_one_rule(capsys, tmp_path, monkeypatch):
    # Each reader gives the number it read, as text, or its message.  A numeral is
    # read, or refused in the reader's words for its value; anything else is refused
    # as no number.  Layout messages name a refused label by its offset, unquoted.
    monkeypatch.chdir(tmp_path)  # where cwcheck looks for a target that is no numeral as a graph file
    prism = complementary_prism(cycle(9))

    def cwcheck(s):
        code, out, err = run(capsys, "cwcheck", s, "--trials", "20", "--json")
        assert code in (0, 64) and bool(out) == (code == 0)
        return str(max(t["order"] for t in json.loads(out)["trials"])) if code == 0 else err.removeprefix("error: ").rstrip("\n")

    readers = (  # (reader, its messages for a numeral's value, its messages for no number)
        (lambda s: parse_graph(f"p {s} 0\n").order,
         lambda s: {f"line 1: order {s} exceeds the limit of {MAX_ORDER}"}, lambda s: {"line 1: expected 'p <order> <edges>'"}),
        (lambda s: parse_graph(f"p 3 {s}\ne 1 2\ne 2 3\ne 1 3\n").edge_count,
         lambda s: {f"p line declares {s} edges, found 3"}, lambda s: {"line 1: expected 'p <order> <edges>'"}),
        (lambda s: max(next(parse_graph(f"p 3 1\ne {s} 1\n").edges())) + 1,
         lambda s: {f"line 2: bad edge {s} 1"}, lambda s: {"line 2: expected 'e <u> <v>'"}),
        (lambda s: max(next(parse_graph(f"p 3 1\ne 1 {s}\n").edges())) + 1,
         lambda s: {f"line 2: bad edge 1 {s}"}, lambda s: {"line 2: expected 'e <u> <v>'"}),
        (lambda s: max(parse_layout(f"(1,{s})").leaves()) + 1,
         lambda s: {"leaf labels are 1-based", f"leaf label at offset 3 is above the limit of {MAX_ORDER}"},
         lambda s: {"leaf label at offset 3 is not a numeral", f"unexpected {s!r} at offset 3 of layout text"}),
        (lambda s: cli._parse_code_file(s, prism, PrismIndexing(9))[0] + 1,
         lambda s: {f"vertex {s} outside 1..18"}, lambda s: {f"bad vertex token {s!r}", f"bad vertex label {s!r}"}),
        (lambda s: PrismIndexing(9).parse_label("v" + s) + 1,
         lambda s: {f"bad vertex label {'v' + s!r}"}, lambda s: {f"bad vertex label {'v' + s!r}"}),
        (cwcheck,
         lambda s: {f"order bound must be between 1 and {MAX_ORDER}"}, lambda s: {f"[Errno 2] No such file or directory: {s!r}"}),
    )
    for spelling, is_numeral in SPELLINGS.items():
        for k, (read, value_messages, refusals) in enumerate(readers):
            try:
                got = str(read(spelling))
            except GraphFormatError as exc:
                got = str(exc)
            if is_numeral:  # 3 is in range for every reader
                assert got == spelling or spelling != "3" and got in value_messages(spelling), (k, spelling[:20], got[:80])
            else:
                assert got in refusals(spelling), (k, spelling, got[:80])


def test_conditions_clean_and_violations(capsys, tmp_path, pattern9):
    code, out, _ = run(capsys, "conditions", "9", pattern9)
    assert code == 0
    assert "violations 0" in out and "bad_indices 4,9" in out
    alt = tmp_path / "alt.txt"
    alt.write_text("101010101\n010101010\n")
    code, out, _ = run(capsys, "conditions", "9", str(alt), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert {"family": "bar-sep-distance2", "indices": [2, 4]} in payload["violations"]
    assert run(capsys, "conditions", "8", pattern9)[0] == 64


def test_conditions_rejects_non_binary_rows(capsys, tmp_path):
    for i, rows in enumerate(("022000000\n000011110\n", "abcdefghi\nabcdefghi\n")):
        path = tmp_path / f"bad{i}.txt"
        path.write_text(rows)
        code, out, err = run(capsys, "conditions", "9", str(path))
        assert code == 64 and out == "" and "0 and 1" in err


def test_solve_json_and_exit_codes(capsys, tmp_path, prism9):
    code, out, _ = run(capsys, "solve", prism9, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "optimal" and payload["size"] == 7
    assert payload["code"] == ["v1", "v2", "v3", "v6", "vbar5", "vbar6", "vbar8"]
    assert payload["nodes"] == 0 and payload["ms"] >= 0
    code, out, _ = run(capsys, "solve", prism9, "--json", "--cap", "6")
    assert code == 0 and json.loads(out)["status"] == "cap-exceeded"


def test_solve_infeasible_exit_2(capsys, tmp_path):
    p6 = tmp_path / "p6.txt"
    main(["gen", "prism", "6", "-o", str(p6)])
    code, out, _ = run(capsys, "solve", str(p6), "-d", "2", "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "infeasible" and payload["witness"] == ["vbar1", "vbar2"]


def test_solve_exhaustive_order_limit(capsys, tmp_path):
    c64 = tmp_path / "c64.txt"
    main(["gen", "cycle", "64", "-o", str(c64)])
    start = time.perf_counter()
    code, out, err = run(capsys, "solve", str(c64), "--strategy", "exhaustive")
    assert time.perf_counter() - start < 1.0
    assert code == 64 and out == ""
    assert "the exhaustive strategy takes graphs of order at most 63; use bnb" in err


def test_solve_strategies_and_workers_agree(capsys, prism9):
    outs = []
    for extra in ([], ["--strategy", "exhaustive"]):
        code, out, _ = run(capsys, "solve", prism9, "--json", *extra)
        assert code == 0
        payload = json.loads(out)
        payload.pop("ms")
        payload.pop("nodes")  # strategy-relative
        outs.append(payload)
    assert outs[0] == outs[1]
    # solve and scan take no worker or seed flags
    for argv in (["solve", prism9, "--workers", "2"], ["solve", prism9, "--seed", "1"],
                 ["scan", "9", "9", "--workers", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64


def test_solve_json_stable_across_runs(capsys, prism9):
    payloads = []
    for _ in range(2):
        _, out, _ = run(capsys, "solve", prism9, "--json")
        payload = json.loads(out)
        payload.pop("ms")  # wall clock is the one unstable field
        payloads.append(payload)
    assert payloads[0] == payloads[1]


def test_solve_export_instance(capsys, tmp_path, prism9):
    target = tmp_path / "inst.txt"
    code, _, _ = run(capsys, "solve", prism9, "--export-instance", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "h 18 171"
    assert len(lines) == 172


def test_twins_exit_codes(capsys, tmp_path):
    p6 = tmp_path / "p6.txt"
    main(["gen", "prism", "6", "-o", str(p6)])
    code, out, _ = run(capsys, "twins", str(p6), "-d", "2", "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["twins"][0] == ["vbar1", "vbar2"] and len(payload["twins"]) == 15
    c9 = tmp_path / "c9.txt"
    main(["gen", "cycle", "9", "-o", str(c9)])
    code, out, _ = run(capsys, "twins", str(c9))
    assert code == 0 and "count 0" in out


def test_twins_at_huge_radius(capsys, tmp_path):
    c12 = tmp_path / "c12.txt"
    main(["gen", "cycle", "12", "-o", str(c12)])
    capsys.readouterr()
    want = run(capsys, "twins", str(c12), "-d", "6")
    assert want[0] == 2 and "count 66" in want[1]
    start = time.perf_counter()
    assert run(capsys, "twins", str(c12), "-d", str(10**9)) == want
    assert time.perf_counter() - start < 1.0


def test_order_limit_refused_before_allocating(capsys, tmp_path):
    huge = tmp_path / "huge.txt"
    huge.write_text("p 100000000 0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "twins", str(huge))
    assert time.perf_counter() - start < 1.0
    assert code == 64 and out == ""
    assert f"order 100000000 exceeds the limit of {MAX_ORDER}" in err
    edge = tmp_path / "edge.txt"
    edge.write_text(f"p {MAX_ORDER} 0\n")
    assert parse_graph(edge.read_text()).order == MAX_ORDER
    for argv in (["gen", "cycle", str(MAX_ORDER + 1)], ["gen", "prism", str(MAX_ORDER // 2 + 1)],
                 ["cwcheck", str(MAX_ORDER + 1), "--trials", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 64 and out == "" and str(MAX_ORDER) in err, argv
    code, out, _ = run(capsys, "gen", "prism", str(MAX_ORDER // 2))
    assert code == 0 and out.startswith(f"c complementary prism of the cycle on {MAX_ORDER // 2}")


def test_cwcheck_random_and_file(capsys, tmp_path):
    code, out, _ = run(capsys, "cwcheck", "8", "--trials", "12", "--seed", "7")
    assert code == 0
    assert out.count("\n") == 13 and "violations 0" in out
    again = run(capsys, "cwcheck", "8", "--trials", "12", "--seed", "7")
    assert again[1] == out  # seeded, so byte-identical
    c6 = tmp_path / "c6.txt"
    main(["gen", "cycle", "6", "-o", str(c6)])
    code, out, _ = run(capsys, "cwcheck", str(c6), "--trials", "5", "--seed", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and len(payload["trials"]) == 5
    assert all(row["order"] == 6 for row in payload["trials"])
    for trials in ("0", "-3"):
        code, out, err = run(capsys, "cwcheck", "5", "--trials", trials)
        assert code == 64 and out == "" and "--trials must be positive" in err


def test_cwcheck_frozen(capsys):
    # SHA-256 of the output taken when check_doubling still built the lifted
    # layout tree: the counts derived from the base class sets must
    # reproduce every trial's.
    code, out, _ = run(capsys, "cwcheck", "40", "--trials", "200", "--seed", "7", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "7b241e408365ad4e82848aa2a3714eaa43cb17e9a96fc59d56cf0baddb169383"


def test_text_forms_exact(capsys, tmp_path, prism9):
    files = {}
    for name, text in (("empty", "000000000\n000000000\n"), ("drop", "011000000\n000011110\n"), ("some", "1 3 5 7\n")):
        files[name] = tmp_path / name
        files[name].write_text(text)
    c9 = tmp_path / "c9.txt"
    main(["gen", "cycle", "9", "-o", str(c9)])
    assert run(capsys, "verify", prism9, str(files["empty"])) == (1, "invalid: empty-ball at v1\n", "")
    assert run(capsys, "verify", str(c9), str(files["some"])) == (1, "invalid: unseparated at 1, 9\n", "")
    assert run(capsys, "conditions", "9", str(files["drop"])) == (1, (
        "violated dom at 9\nviolated sep-adjacent at 2,3\nviolations 2\nbad_indices 1,4,9\nblind_bar 1\n"
    ), "")
    assert run(capsys, "solve", prism9, "-d", "2") == (2, "status infeasible\nwitness vbar1 vbar2\nnodes 0\n", "")


def test_transcript_frozen(capsys, tmp_path, prism9, pattern9):
    # Every printing subcommand, each --json one in both forms, through exit
    # codes 0, 1, 2 and 64.  The SHA-256 covers stdout and the exit codes,
    # with the wall-clock "ms" masked.  The transcript was first frozen when
    # each command still built its text and its JSON on separate paths; this
    # digest was taken from that code with scan's -d and --cap runs dropped,
    # then retaken when the branch-and-bound search got its tie split and
    # last-level intersection, which changed only the nodes fields of
    # `solve` on the prism of C_9 (114 -> 41) and on the cycle C_6 (13 -> 7),
    # and again when the prism of C_9 was answered from its stored code
    # (41 -> 0); the masked digest below held through that change.
    paths = {"p9": prism9, "pat9": pattern9, "missing": str(tmp_path / "missing.txt")}
    for name, argv in (("p6", ["gen", "prism", "6"]), ("c6", ["gen", "cycle", "6"])):
        paths[name] = str(tmp_path / name)
        main([*argv, "-o", paths[name]])
    for name, text in (("zero9", "000000000\n000000000\n"), ("drop9", "011000000\n000011110\n"), ("ints", "1 3\n")):
        paths[name] = str(tmp_path / name)
        Path(paths[name]).write_text(text)
    p = paths
    both = [
        ["verify", p["p9"], p["pat9"]], ["verify", p["p9"], p["zero9"]], ["verify", p["c6"], p["ints"]],
        ["verify", p["p9"], p["missing"]],
        ["conditions", "9", p["pat9"]], ["conditions", "9", p["drop9"]], ["conditions", "600", p["pat9"]],
        ["solve", p["p9"]], ["solve", p["p9"], "--cap", "6"], ["solve", p["p9"], "-d", "2"], ["solve", p["c6"]],
        ["solve", p["p6"], "--strategy", "exhaustive"],
        ["twins", p["p6"], "-d", "2"], ["twins", p["c6"]],
        ["cwcheck", "6", "--trials", "4", "--seed", "2"], ["cwcheck", p["c6"], "--trials", "2"], ["cwcheck", "0"],
        ["scan", "9", "11"], ["scan", "2", "5"],
    ]
    text_only = [["gen", "cycle", "5"], ["gen", "prism", "4"], ["pattern", "10", "--box"], ["pattern", "8"]]
    transcript = []
    for argv in text_only + [argv + form for argv in both for form in ([], ["--json"])]:
        code = main(argv)
        transcript.append(f"{code}\n" + re.sub(r'"ms": [0-9.e+-]+', '"ms": 0', capsys.readouterr().out))
    assert {int(t.split()[0]) for t in transcript} == {0, 1, 2, 64}
    digest = hashlib.sha256("".join(transcript).encode()).hexdigest()
    assert digest == "6fcfa063c476fcfe358f151dd850cf12ae12c67612b93d99ef160115e6fec2f3"
    # The same transcript with every node count masked as well: a change to
    # the search may move node counts, but never anything else printed.
    masked = re.sub(r'^(nodes |.*"nodes": )[0-9]+', r"\g<1>0", "".join(transcript), flags=re.M)
    assert hashlib.sha256(masked.encode()).hexdigest() == "4b1a44d14297f3e0bf4740dfb5c353dfedb3bad128744f7a82e0682c39bc98b8"


def test_scan_text_and_json(capsys):
    code, out, _ = run(capsys, "scan", "9", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n 9") and "size 7" in lines[0] and "pattern 7" in lines[0]
    assert lines[1].startswith("n 10") and "size 8" in lines[1]
    code, out, _ = run(capsys, "scan", "9", "9", "--json")
    payload = json.loads(out)
    assert payload[0]["n"] == 9 and payload[0]["size"] == 7
    assert payload[0]["code"][0] == "v1"
    assert run(capsys, "scan", "2", "5")[0] == 64
    assert run(capsys, "scan", "9", "8")[0] == 64


def test_scan_rows_agree_with_solve(capsys, tmp_path):
    # scan's row carries the status, size, code and witness of solve's payload
    # for the same prism, under the default strategy and the exhaustive oracle;
    # a key solve leaves out reads as None.
    for n in range(3, 13):
        graph = str(tmp_path / f"p{n}.txt")
        main(["gen", "prism", str(n), "-o", graph])
        code, out, _ = run(capsys, "scan", str(n), str(n), "--json")
        assert code == 0
        [row] = json.loads(out)
        for options in ([], ["--strategy", "exhaustive"]):
            payload = json.loads(run(capsys, "solve", graph, "--json", *options)[1])
            keys = ("status", "size", "code", "witness")
            assert [row[k] for k in keys] == [payload.get(k) for k in keys], (n, options)


def test_scan_order_limit_refused_before_solving(capsys):
    # The rule `gen prism` applies: a prism of order above MAX_ORDER is refused
    # with exit 64 before any prism is built or solved.
    built = _prism.cache_info().misses
    start = time.perf_counter()
    for stop in (MAX_ORDER // 2 + 1, 10**8):
        for first in ("3", str(stop)):
            code, out, err = run(capsys, "scan", first, str(stop))
            assert code == 64 and out == "", (first, stop)
            assert f"scan stop {stop} has prism order {2 * stop}, above the limit of {MAX_ORDER}" in err
    assert time.perf_counter() - start < 1.0
    assert _prism.cache_info().misses == built


def test_pattern_and_conditions_order_limit(capsys, tmp_path):
    # The same rule as `scan`: n above MAX_ORDER // 2 exits 64 before any row
    # is built; `conditions` refuses before it opens its code file.
    missing = str(tmp_path / "missing.txt")
    start = time.perf_counter()
    for n in (MAX_ORDER // 2 + 1, 10**8):
        for argv in (["pattern", str(n)], ["conditions", str(n), missing]):
            code, out, err = run(capsys, *argv)
            assert code == 64 and out == "", argv
            assert f"{argv[0]} {n} has prism order {2 * n}, above the limit of {MAX_ORDER}" in err
    assert time.perf_counter() - start < 1.0
    n = MAX_ORDER // 2
    code, out, _ = run(capsys, "pattern", str(n))
    assert code == 0 and [len(row) for row in out.split()] == [n, n]


def test_main_reuses_one_parser(capsys):
    # main builds its parser once; each call must parse as a fresh parser would.
    for argv in (["scan", "9", "10", "--json"], ["pattern", "9", "--box"], ["scan", "9", "10"]):
        assert vars(cli._main_parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
    assert cli._main_parser() is cli._main_parser()
    code, out, _ = run(capsys, "scan", "9", "10", "--json")
    assert code == 0 and [row["size"] for row in json.loads(out)] == [7, 8]
    code, out, _ = run(capsys, "pattern", "9")
    assert code == 0 and out == "111000000\n000011110\n"
    code, out, _ = run(capsys, "scan", "9", "9")
    assert code == 0 and out.startswith("n 9  status optimal")  # text again: no --json carried over
    with pytest.raises(SystemExit) as exc:
        main(["scan", "9"])
    assert exc.value.code == 64
