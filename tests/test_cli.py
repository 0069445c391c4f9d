"""CLI dispatch: golden outputs, exit codes, and determinism."""

import importlib.util
import pathlib
import time

import pytest

from lcgraph import Report, parse_graph
from lcgraph import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = ROOT / "tests" / "golden"

# the golden files and the commands that produce them live in the
# regeneration script; replay the same table here
_spec = importlib.util.spec_from_file_location(
    "make_goldens", ROOT / "scripts" / "make_goldens.py")
_make_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_make_goldens)
CASES = _make_goldens.CASES


def run_cli(argv, capsys):
    code = cli.main([str(FIXTURES / a) if a.endswith((".ofg", ".fn")) else a
                     for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys):
    code, out, err = run_cli(CASES[name], capsys)
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(
    name for name in CASES if "mode = numeric" not in (GOLDEN / name).read_text()))
def test_rational_golden_output_at_64_bits(name, capsys):
    # exactness is read off the graph, so no golden without numeric
    # coefficients may need the default 256 bits to come out rational
    command, *rest = CASES[name]
    code, out, err = run_cli([command, "--precision", "64", *rest], capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / name).read_text()


def test_output_is_deterministic(capsys):
    first = run_cli(["spectrum", "fig1.ofg"], capsys)
    second = run_cli(["spectrum", "fig1.ofg"], capsys)
    assert first == second


def test_verify_graph_block_round_trips(capsys):
    for fixture in ("fig1.ofg", "fig2.ofg", "k2.ofg", "triangle.ofg"):
        _, out, _ = run_cli(["verify", fixture], capsys)
        lines = out.splitlines()
        start = lines.index("== graph ==") + 1
        end = lines.index("", start)
        reparsed = parse_graph("\n".join(lines[start:end]) + "\n")
        original = parse_graph((FIXTURES / fixture).read_text())
        assert reparsed.vertices == original.vertices
        assert all(u == u2 and v == v2 and w.identical(w2)
                   for (u, v, w), (u2, v2, w2)
                   in zip(reparsed.edges(), original.edges()))


def test_missing_file_exits_2(capsys):
    code, out, err = run_cli(["spectrum", "missing.ofg"], capsys)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.ofg"
    bad.write_text("1 2 1\n1 2\n")
    code, _, err = run_cli(["cheeger", str(bad)], capsys)
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("argv", [
    ["cheeger", "{bad}"],
    ["walk", "fig1.ofg", "--f", "{bad}"],
])
def test_non_utf8_input_exits_2(argv, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"1 2 1\n\xff")
    code, out, err = run_cli([a.format(bad=bad) for a in argv], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: not UTF-8 text, byte 6 is b'\\xff'\n"


def test_invalid_config_exits_2(capsys):
    assert run_cli(["spectrum", "--trunc", "0", "fig1.ofg"], capsys)[0] == 2
    assert run_cli(["spectrum", "--precision", "32", "fig1.ofg"], capsys)[0] == 2
    with pytest.raises(SystemExit):
        run_cli(["spectrum", "--trunc", "abc", "fig1.ofg"], capsys)


@pytest.mark.parametrize("den", [10007, 1000000007])
def test_too_fine_exponent_lattice_exits_2(den, tmp_path, capsys):
    # inverting 1 + eps^(1/den) to order 8 needs 8*den coefficients: it is
    # refused before they are allocated, not after minutes or a MemoryError
    graph = tmp_path / "fine.ofg"
    graph.write_text(f"1 2 1 + eps^(1/{den})\n2 3 1\n")
    start = time.perf_counter()
    code, out, err = run_cli(["cheeger", str(graph)], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert f"lattice 1/{den} needs {8 * den} coefficients" in err


def test_precision_is_restored_after_main(capsys):
    import mpmath
    from lcgraph.series import numeric_precision
    before = numeric_precision(), mpmath.mp.prec
    assert run_cli(["spectrum", "--precision", "128", "k2.ofg"], capsys)[0] == 0
    assert (numeric_precision(), mpmath.mp.prec) == before


@pytest.mark.parametrize("argv", [
    ["walk", "fig1.ofg", "--f", "delta1.fn", "--steps", "0"],
    ["selftest", "--count", "-5"],
    ["spectrum", "--trunc", "1/0", "fig1.ofg"],
    ["spectrum", "--seed", "1", "k2.ofg"],
    ["selftest", "--mode", "numeric"],
    ["spectrum", "--mode", "numeric", "k2.ofg"],
    ["spectrum", "--trunc", "1e1000000000", "k2.ofg"],
    ["spectrum", "--trunc", "1/" + "3" * 5000, "k2.ofg"],
    ["spectrum", "--precision", "7128", "k2.ofg"],
    ["spectrum", "--precision", "5347", "k2.ofg"],
    ["spectrum", "--trunc", "1e", "k2.ofg"],
    ["spectrum", "--trunc", "2.5e", "k2.ofg"],
    ["spectrum", "--trunc", "1_0", "k2.ofg"],
])
def test_bad_flag_value_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv, capsys)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1e3000", "1e-3000"])
def test_rational_past_the_digit_limit_exits_2(value, tmp_path, capsys):
    # norm^2 = 10^6000 or 10^-6000 has more digits than str() may print
    graph, function = tmp_path / "path.ofg", tmp_path / "big.fn"
    graph.write_text("1 2 1\n2 3 1\n")
    function.write_text(f"1 {value}\n2 0\n3 0\n")
    code, out, err = run_cli(["walk", str(graph), "--f", str(function),
                              "--steps", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: a rational coefficient needs more than 4300 digits to print\n"


def test_function_on_wrong_vertex_set_exits_2(capsys):
    code, _, err = run_cli(
        ["walk", "triangle.ofg", "--f", "delta1.fn"], capsys)
    assert code == 2
    assert "error:" in err


def test_failed_check_exits_1(monkeypatch, capsys):
    failing = Report(title="forced")
    failing.add("forced", False, "synthetic failure")
    monkeypatch.setattr(cli, "cheeger_inequality_check",
                        lambda g, spec, cut: failing)
    code, out, _ = run_cli(["cheeger", "k2.ofg"], capsys)
    assert code == 1
    assert "FAIL" in out
    code, out, _ = run_cli(["verify", "k2.ofg"], capsys)
    assert code == 1
    assert "CHECKS FAILED" in out


def test_undecided_nonbipartite_strict_says_so(tmp_path, capsys):
    # a triangle that is nearly a star: lambda_(n-1) = 2 + O(eps^1) at
    # --trunc 1/2, so lambda_(n-1) < 2 is neither shown nor disproved
    graph = tmp_path / "near-star.ofg"
    graph.write_text("1 2 2*eps^2\n1 3 5*eps\n2 3 2*eps\n")
    code, out, _ = run_cli(["verify", str(graph), "--trunc", "1/2"], capsys)
    assert code == 1
    failed = [line for line in out.splitlines() if ": FAIL" in line]
    assert failed == ["check nonbipartite-strict: FAIL  [lambda_(n-1) = 2 + O(eps^1); "
                      "lambda_(n-1) < 2 is not decided at this order]"]


def test_selftest_at_precision_bound(capsys):
    # at MAX_PRECISION_BITS the self-test's print-and-reparse round trip
    # still passes; one bit more is refused by the library and the CLI
    from lcgraph.series import MAX_PRECISION_BITS, set_numeric_precision
    argv = ["selftest", "--count", "100", "--precision", str(MAX_PRECISION_BITS)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and "all checks passed" in out
    with pytest.raises(ValueError):
        set_numeric_precision(MAX_PRECISION_BITS + 1)


def test_selftest_smoke(capsys):
    code, out, _ = run_cli(["selftest", "--count", "200"], capsys)
    assert code == 0
    assert "PASS" in out


_audit_spec = importlib.util.spec_from_file_location(
    "random_audit", ROOT / "scripts" / "random_audit.py")
random_audit = importlib.util.module_from_spec(_audit_spec)
_audit_spec.loader.exec_module(random_audit)


@pytest.mark.parametrize("argv", [
    ["--min-n", "1"],
    ["--min-n", "13", "--max-n", "13"],
    ["--min-n", "5", "--max-n", "4"],
    ["--count", "0"],
    ["--trunc", "0"],
])
def test_random_audit_bad_flag_value_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        random_audit.run(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_random_audit_reports_a_refused_draw(monkeypatch, capsys):
    # a draw the library refuses fails that graph, and the run goes on
    from lcgraph import GraphValidationError
    audit_one, calls = random_audit.audit_one, []

    def first_refused(g, trunc):
        calls.append(g)
        if len(calls) == 1:
            raise GraphValidationError("refused draw")
        return audit_one(g, trunc)

    monkeypatch.setattr(random_audit, "audit_one", first_refused)
    code = random_audit.run(["--count", "2", "--max-n", "3"])
    out = capsys.readouterr().out
    assert code == 1 and len(calls) == 2
    assert out.startswith("graph 0 FAILED:\n")
    assert "  error: refused draw\n" in out
    assert "audited 2 graphs" in out and "1 graph(s) FAILED" in out
