import csv
import io
import itertools

import pytest

import bnras
from bnras import RandomStream, chain, estimate
from bnras.cli import CSV_HEADER, main

from conftest import layered_network


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


AB_PATH = "src/bnras/data/ab.bn"


def test_validate_bundled_file(capsys):
    code, out, err = run_cli(capsys, "validate", AB_PATH)
    assert code == 0
    assert "ok" in out


def test_validate_bad_row_sum_names_node_and_row(tmp_path, capsys):
    bad = tmp_path / "bad.bn"
    bad.write_text(
        "network BAD\nnode A { outcomes: t, f }\ncpt A:\n 0.5 0.5\n"
        "node B { outcomes: t, f }\nparents B: A\ncpt B:\n 0.9 0.1\n 0.7 0.5\n"
    )
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "cpt B" in err and "row 1" in err


def test_validate_prints_location_once(tmp_path, capsys):
    bad = tmp_path / "bad.bn"
    bad.write_text(
        "network BAD\nnode A { outcomes: t, f }\ncpt A:\n 0.5 0.5\n"
        "node B { outcomes: t, f }\nparents B: A\ncpt B:\n 0.9 0.1\n 0.7 0.5\n"
    )
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    first = err.splitlines()[0]
    assert first == f"{bad}: line 7, column 5: cpt B: row 1 sums to 1.2"
    assert err.count("line 7, column 5") == 1


def test_validate_missing_file(capsys):
    code, out, err = run_cli(capsys, "validate", "no/such/file.bn")
    assert code == 3
    assert err


@pytest.mark.parametrize("content, where", [
    (b"network X\xff", "line 1, column 10"),
    (b"network X\r\nnode A { outcomes: t, f }\n\n  \xc3\xa9\xe9\n", "line 4, column 4"),
    (b"\xef\xbb\xbfnetwork X\xff", "line 1, column 10"),  # a leading mark takes no column
    (b"\xef\xbb\xbf" * 2 + b"network X\xff", "line 1, column 11"),  # a second one is text
])
def test_network_file_not_utf8_is_validation_error(tmp_path, capsys, content, where):
    path = tmp_path / "bad.bn"
    path.write_bytes(content)
    byte = "0xff" if where.startswith("line 1") else "0xe9"
    expected = (f"{path}: {where}: byte {byte} is not UTF-8\n"
                f"error: {path}: could not parse network\n")
    for argv in (("validate", str(path)), ("exact", "--network", str(path))):
        assert run_cli(capsys, *argv) == (2, "", expected)


ONE_NODE = "network X\nnode A { outcomes: t, f }\ncpt A:\n 0.5 0.5\n"


def test_network_file_with_byte_order_mark_accepted(tmp_path, capsys):
    path = tmp_path / "bom.bn"
    path.write_bytes(b"\xef\xbb\xbf" + ONE_NODE.encode())
    assert run_cli(capsys, "validate", str(path)) == (
        0, "X: ok (1 nodes, strictly positive)\n", "")
    code, out, err = run_cli(capsys, "exact", "--network", str(path))
    assert (code, out, err) == (0, "P(A=t)=0.500000\nP(A=f)=0.500000\nP(evidence)=1\n", "")
    # only a leading mark is skipped: a second one is text, which the parser refuses
    path.write_bytes(b"\xef\xbb\xbf" * 2 + ONE_NODE.encode())
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, err.splitlines()[0]) == (
        2, f"{path}: line 1, column 1: unexpected character '\\ufeff'")


def test_exact_ab(capsys):
    code, out, err = run_cli(capsys, "exact", "--network", "AB", "--evidence", "B=t")
    assert code == 0
    assert "P(A=t|B=t)=0.818182" in out
    assert "P(evidence)=0.55" in out


def test_exact_no_evidence(capsys):
    code, out, err = run_cli(capsys, "exact", "--network", "PATH2")
    assert code == 0
    assert "P(B=t)=0.500000" in out
    assert "P(evidence)=1" in out


def test_exact_impossible_evidence(tmp_path, capsys):
    det = tmp_path / "det.bn"
    det.write_text(
        "network DET\nnode A { outcomes: t, f }\ncpt A:\n 0.5 0.5\n"
        "node B { outcomes: t, f }\nparents B: A\ncpt B:\n 1 0\n 1 0\n"
    )
    code, out, err = run_cli(capsys, "exact", "--network", str(det), "--evidence", "B=f")
    assert code == 3
    assert "probability zero" in err


def test_evidence_below_every_double_is_kept(tmp_path, capsys):
    # three roots clamped to outcomes of probability 1e-110: P(e) = 1e-330
    # is below every double, but D's posterior is well defined
    root = "node {0} {{ outcomes: x, y, z }}\ncpt {0}:\n 1e-110 0.5 0.5\n"
    path = tmp_path / "tiny.bn"
    path.write_text("network TINYEV\n" + "".join(root.format(name) for name in "ABC")
                    + "node D { outcomes: t, f }\ncpt D:\n 0.5 0.5\n")
    where = ("--network", str(path), "--evidence", "A=x,B=x,C=x")
    code, out, err = run_cli(capsys, "exact", *where)
    assert code == 0
    assert out.splitlines() == ["P(D=t|A=x,B=x,C=x)=0.500000", "P(D=f|A=x,B=x,C=x)=0.500000",
                                "P(evidence)=0"]
    code, out, err = run_cli(capsys, "bounds", *where, "--mode", "exact")
    assert code == 0
    assert "pi_min=0.5 p0=0.25" in out
    code, out, err = run_cli(capsys, "run", *where, "--algorithm", "bnras", "--trials", "100",
                             "--transitions", "10", "--seed", "1")
    assert code == 0
    (row,) = parse_csv(out)
    assert row["worst_node"] == "D"
    assert 0.0 <= float(row["max_error"]) < 0.2


def test_exact_enum_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("BNRAS_ENUM_CAP", "4")
    code, out, err = run_cli(capsys, "exact", "--network", "MINIALARM")
    assert code == 3
    assert "cap" in err
    monkeypatch.setenv("BNRAS_ENUM_CAP", "please")
    code, out, err = run_cli(capsys, "exact", "--network", "MINIALARM")
    assert code == 1


def test_run_bnras_ab(capsys):
    code, out, err = run_cli(
        capsys, "run", "--network", "AB", "--evidence", "B=t",
        "--algorithm", "bnras", "--trials", "5000", "--transitions", "100",
        "--seed", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    rows = parse_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["algorithm"] == "bnras"
    assert row["network"] == "AB"
    assert row["evidence"] == "B=t"
    assert row["trials"] == "5000"
    assert row["transitions_per_trial"] == "100"
    assert row["total_transitions"] == "500000"
    assert row["checkpoint"] == ""
    assert float(row["max_error"]) < 0.05
    assert float(row["cpu_seconds"]) >= 0.0
    assert float(row["wall_seconds"]) >= 0.0


def test_run_straight_path2_seed1_frozen(capsys):
    # Deterministic regression: with this coupling the 1e4-step run flips
    # basins about a hundred times, so the time average is already near
    # the posterior, here 0.0546 from it, as far or farther with
    # probability 0.27 under the exact law of the cyclic-scan chain
    # (tests/test_estimate.py::test_straight_path2_seed1_frozen).
    code, out, err = run_cli(
        capsys, "run", "--network", "PATH2", "--algorithm", "straight",
        "--total", "10000", "--seed", "1",
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert row["transitions_per_trial"] == ""
    assert float(row["avg_error"]) == pytest.approx(0.05435, abs=1e-6)
    assert float(row["max_error"]) == pytest.approx(0.0546, abs=1e-6)
    assert 0.0 <= float(row["max_error"]) <= 1.0
    assert row["worst_node"] == "A"


def test_run_rejects_zero_trials(capsys):
    code, out, err = run_cli(
        capsys, "run", "--network", "AB", "--algorithm", "bnras",
        "--trials", "0", "--transitions", "10",
    )
    assert code == 1


def test_run_requires_algorithm_params(capsys):
    code, out, err = run_cli(
        capsys, "run", "--network", "AB", "--algorithm", "bnras",
    )
    assert code == 1
    code, out, err = run_cli(
        capsys, "run", "--network", "AB", "--algorithm", "straight",
    )
    assert code == 1


def test_run_with_checkpoints(capsys):
    code, out, err = run_cli(
        capsys, "run", "--network", "AB", "--algorithm", "straight",
        "--total", "400", "--seed", "2", "--stride", "100",
    )
    assert code == 0
    rows = parse_csv(out)
    checkpoints = [r for r in rows if r["checkpoint"] != ""]
    summaries = [r for r in rows if r["checkpoint"] == ""]
    assert [c["checkpoint"] for c in checkpoints] == ["100", "200", "300", "400"]
    assert len(summaries) == 1
    assert checkpoints[0]["cpu_seconds"] == ""


def test_run_with_no_free_node(capsys):
    # every node clamped: nothing is tallied, and the summary row scores
    # 0 and 0 with no worst node
    code, out, err = run_cli(
        capsys, "run", "--network", "AB", "--evidence", "A=t,B=t", "--algorithm", "bnras",
        "--trials", "3", "--transitions", "0",
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 2
    assert lines[1].rsplit(",", 2)[0] == 'bnras-AB-N3-t0-s0,0,bnras,AB,"A=t,B=t",3,0,0,,0,0,'


def test_bounds_ab_exact(capsys):
    code, out, err = run_cli(
        capsys, "bounds", "--network", "AB", "--alpha", "0.1", "--delta", "0.1",
        "--gamma", "0.1", "--mode", "exact",
    )
    assert code == 0
    assert "N = 250" in out
    assert "t_mix = 67816" in out
    assert "exact inputs" in out
    assert "AB,,exact,0.1,0.1,0.1," in out


def test_bounds_factored_minialarm(capsys):
    code, out, err = run_cli(
        capsys, "bounds", "--network", "MINIALARM", "--mode", "factored",
    )
    assert code == 0
    assert "lower-bound inputs" in out
    # finite integer requirements on the last CSV line
    last = out.strip().splitlines()[-1]
    trials, t_mix, t_per_trial = last.split(",")[-3:]
    assert int(trials) == 250
    assert int(t_mix) > 0
    assert int(t_per_trial) > int(t_mix)


def test_bounds_refuses_zero_entries(tmp_path, capsys):
    det = tmp_path / "det.bn"
    det.write_text(
        "network DET\nnode A { outcomes: t, f }\ncpt A:\n 0.5 0.5\n"
        "node B { outcomes: t, f }\nparents B: A\ncpt B:\n 1 0\n 0 1\n"
    )
    code, out, err = run_cli(capsys, "bounds", "--network", str(det))
    assert code == 2
    assert "deterministic relationships" in err


def test_bounds_factored_pi_underflow_is_runtime_error(tmp_path, capsys):
    path = tmp_path / "layered600.bn"
    path.write_text(bnras.serialize_network(layered_network(600)))
    code, out, err = run_cli(capsys, "bounds", "--network", str(path), "--mode", "factored")
    assert code == 3
    assert "factored Pi of network LAYERED600 underflows to 0.0" in err
    assert "usage error" not in err


def test_bounds_exact_pi_underflow_is_runtime_error(tmp_path, capsys, tiny_joint):
    path = tmp_path / "tiny.bn"
    path.write_text(bnras.serialize_network(tiny_joint))
    code, out, err = run_cli(capsys, "bounds", "--network", str(path), "--mode", "exact")
    assert code == 3
    assert "exact Pi of network TINY underflows to 0.0" in err
    assert "usage error" not in err


def test_bounds_conditional_underflow_is_runtime_error(tmp_path, capsys, tiny_conditional):
    net, _ = tiny_conditional
    path = tmp_path / "under.bn"
    path.write_text(bnras.serialize_network(net))
    code, out, err = run_cli(capsys, "bounds", "--network", str(path), "--evidence", "B=x,C=x,D=x",
                             "--mode", "exact")
    assert code == 3
    assert "full conditional of node A in network UNDER underflows to 0.0" in err
    assert "usage error" not in err


def test_bounds_csv_line(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--network", "CHAIN5", "--evidence", "C1=t,C5=f",
                           "--mode", "factored")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO("\n".join(out.splitlines()[-2:])), restkey="extra"))
    assert len(rows) == 1
    assert len(rows[0]) == 11
    assert rows[0]["evidence"] == "C1=t,C5=f"
    assert (rows[0]["mode"], rows[0]["trials"]) == ("factored", "250")
    assert int(rows[0]["t_per_trial"]) > int(rows[0]["t_mix"]) > 0
    # a line with no comma in a field is written as it always was
    code, out, _ = run_cli(capsys, "bounds", "--network", "AB", "--evidence", "B=t")
    assert code == 0
    assert out.endswith("\nAB,B=t,exact,0.1,0.1,0.1,0.181818182,0.0909090909,250,3878,25534545\n")


def test_bounds_rejects_bad_alpha(capsys):
    code, out, err = run_cli(capsys, "bounds", "--network", "AB", "--alpha", "2.0")
    assert code == 1


@pytest.mark.parametrize("flag, value", [
    ("--alpha", "1e-200"), ("--alpha", "1e-160"), ("--alpha", "1e-155"), ("--delta", "1e-320"),
])
def test_bounds_tolerance_past_doubles_is_runtime_error(capsys, flag, value):
    code, out, err = run_cli(capsys, "bounds", "--network", "AB", flag, value)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "the trials required exceed every double" in err


def test_sweep_row_count(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, err = run_cli(
        capsys, "sweep", "--network", "PATH2", "--algorithm", "bnras",
        "--trials", "10,100,1000", "--transitions", "1,10,100,1000",
        "--seeds", "0:10", "--out", str(out_path),
    )
    assert code == 0
    rows = parse_csv(out_path.read_text())
    summaries = [r for r in rows if r["checkpoint"] == ""]
    assert len(summaries) == 120  # 3 x 4 grid x 10 seeds
    assert len(rows) == 120  # stride 0: no checkpoint rows
    assert {r["seed"] for r in rows} == {str(s) for s in range(10)}


def test_sweep_deterministic_modulo_timing(tmp_path, capsys):
    args = (
        "sweep", "--network", "AB", "--algorithm", "bnras",
        "--trials", "20,40", "--transitions", "5", "--seeds", "1,2",
        "--stride", "50",
    )
    code1, out1, err1 = run_cli(capsys, *args, "--out", str(tmp_path / "a.csv"))
    code2, out2, err2 = run_cli(capsys, *args, "--out", str(tmp_path / "b.csv"))
    assert code1 == code2 == 0

    def strip_timing(text):
        return [line.rsplit(",", 2)[0] for line in text.splitlines()]

    assert strip_timing((tmp_path / "a.csv").read_text()) == strip_timing(
        (tmp_path / "b.csv").read_text()
    )


def test_sweep_straight_grid(tmp_path, capsys):
    out_path = tmp_path / "s.csv"
    code, out, err = run_cli(
        capsys, "sweep", "--network", "AB", "--algorithm", "straight",
        "--total", "100,200", "--seeds", "0,1,2", "--out", str(out_path),
    )
    assert code == 0
    rows = parse_csv(out_path.read_text())
    assert len(rows) == 6


def sweep_matches_single_runs(capsys, tmp_path, algorithm, grid, seeds, stride):
    """Run a sweep over ``grid`` ((flag, values) pairs, outermost first)
    and ``seeds``, and each of its runs alone with ``run``; assert that the
    rows agree in every column but the timings, in the same order, and
    return the sweep's rows."""
    out_path = tmp_path / "s.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--network", "MINIALARM", "--algorithm", algorithm,
        *(part for flag, values in grid for part in (flag, ",".join(values))),
        "--seeds", ",".join(map(str, seeds)), "--stride", str(stride), "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    single = [CSV_HEADER]
    for point in itertools.product(*(values for _, values in grid)):
        for seed in seeds:
            code, out, _ = run_cli(
                capsys, "run", "--network", "MINIALARM", "--algorithm", algorithm,
                *(part for (flag, _), value in zip(grid, point) for part in (flag, value)),
                "--seed", str(seed), "--stride", str(stride),
            )
            assert code == 0
            single += out.splitlines()[1:]
    assert [line.rsplit(",", 2)[0] for line in lines] == \
        [line.rsplit(",", 2)[0] for line in single]
    return parse_csv("\n".join(lines))


def test_straight_batches_match_single_runs(monkeypatch, tmp_path, capsys):
    # a sweep runs the seeds of each total as one batch; the rows are the
    # single runs' rows in the same order, and each summary row's timing is
    # an equal share of its batch
    rows = sweep_matches_single_runs(capsys, tmp_path, "straight", [("--total", ["300", "500"])],
                                     range(6), 70)
    for total in ("300", "500"):
        shares = {(r["cpu_seconds"], r["wall_seconds"]) for r in rows
                  if r["checkpoint"] == "" and r["total_transitions"] == total}
        assert len(shares) == 1
    # a mark at every step, and a stride past the total: no checkpoint row
    rows = sweep_matches_single_runs(capsys, tmp_path, "straight", [("--total", ["300"])],
                                     range(3), 1)
    assert [r["checkpoint"] for r in rows[:301]] == [*map(str, range(1, 301)), ""]
    rows = sweep_matches_single_runs(capsys, tmp_path, "straight", [("--total", ["300"])],
                                     range(3), 301)
    assert [r["checkpoint"] for r in rows] == [""] * 3
    # marks on the boundaries of the batch's chunks of `size` steps (one
    # chain runs in a single chunk)
    starts = []

    def spy(*args):
        for done, chunk in cyclic_chunks(*args):
            starts.append(done)
            yield done, chunk

    cyclic_chunks = estimate._cyclic_chunks
    monkeypatch.setattr(estimate, "_cyclic_chunks", spy)
    net = bnras.builtin_networks()["MINIALARM"]
    bnras.straight_estimates(net, bnras.Evidence.empty(), 25_000,
                             [RandomStream(s) for s in range(6)])
    size = starts[1]
    assert starts == [0, size, 2 * size]
    starts.clear()
    rows = sweep_matches_single_runs(capsys, tmp_path, "straight", [("--total", ["25000"])],
                                     range(6), size)
    assert starts[:3] == [0, size, 2 * size]
    assert [r["checkpoint"] for r in rows[:3]] == [str(size), str(2 * size), ""]


def test_bnras_batches_match_single_runs(tmp_path, capsys):
    # a sweep runs the seeds of each (trials, transitions) as one batch, the
    # duplicated trial count's runs too; the rows are the single runs' rows
    # in the same order, and within each (trials, transitions) the summary
    # rows share one timing
    grid = [("--trials", ["30", "30", "400"]), ("--transitions", ["0", "7"])]
    rows = sweep_matches_single_runs(capsys, tmp_path, "bnras", grid, range(6), 50)
    assert sum(r["checkpoint"] != "" for r in rows) > 0
    for trials in ("30", "400"):
        for transitions in ("0", "7"):
            shares = {(r["cpu_seconds"], r["wall_seconds"]) for r in rows
                      if r["checkpoint"] == "" and r["trials"] == trials
                      and r["transitions_per_trial"] == transitions}
            assert len(shares) == 1
    # a mark at every transition, seven in each trial
    grid = [("--trials", ["30"]), ("--transitions", ["7"])]
    rows = sweep_matches_single_runs(capsys, tmp_path, "bnras", grid, range(3), 1)
    assert [r["checkpoint"] for r in rows[:211]] == [*map(str, range(1, 211)), ""]
    # a stride past the total: no checkpoint row
    rows = sweep_matches_single_runs(capsys, tmp_path, "bnras", grid, range(3), 211)
    assert [r["checkpoint"] for r in rows] == [""] * 3
    # the third seed's trials straddle two blocks of walkers, and so do its marks
    assert 2 * 2000 < chain._BLOCK < 3 * 2000
    grid = [("--trials", ["2000"]), ("--transitions", ["3"])]
    rows = sweep_matches_single_runs(capsys, tmp_path, "bnras", grid, range(3), 500)
    assert [r["checkpoint"] for r in rows[-13:]] == [*map(str, range(500, 6001, 500)), ""]


def test_negative_stride_is_usage_error(monkeypatch, tmp_path, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("a run started")

    for name in ("enumerate_posteriors", "_bnras_tallies", "_straight_tallies"):
        monkeypatch.setattr(bnras.cli, name, unreachable)
    out_path = tmp_path / "x.csv"
    for argv in (
        ("run", "--network", "AB", "--algorithm", "bnras", "--trials", "10",
         "--transitions", "5"),
        ("run", "--network", "AB", "--algorithm", "straight", "--total", "10"),
        ("sweep", "--network", "AB", "--algorithm", "bnras", "--trials", "10",
         "--transitions", "5", "--out", str(out_path)),
        ("sweep", "--network", "AB", "--algorithm", "straight", "--total", "10",
         "--out", str(out_path)),
        ("compare", "--network", "AB", "--total", "100", "--transitions", "5",
         "--out", str(out_path)),
    ):
        code, out, err = run_cli(capsys, *argv, "--stride", "-3")
        assert (code, out, err) == (1, "", "usage error: --stride must be >= 0\n")
        assert not out_path.exists()


AND_GATE = (
    "network AND\n"
    "node A { outcomes: t, f }\ncpt A:\n 0.5 0.5\n"
    "node C { outcomes: t, f }\ncpt C:\n 0.5 0.5\n"
    "node B { outcomes: t, f }\nparents B: A, C\n"
    "cpt B:\n 1 0\n 0 1\n 0 1\n 0 1\n"
)
CONFLICT = ("error: all conditional weights of node A are zero {}; "
            "the 0/1 table entries conflict with the current state\n")


def test_conflict_reported_in_run_order(tmp_path, capsys):
    path = tmp_path / "and.bn"
    path.write_text(AND_GATE)
    # seed 5's straight chain conflicts, and the straight batch of all four
    # seeds meets it; but in the run order seed 1's trials conflict first
    code, out, err = run_cli(
        capsys, "compare", "--network", str(path), "--total", "6", "--transitions", "3",
        "--seeds", "4,0,1,5", "--out", str(tmp_path / "c.csv"),
    )
    assert (code, err) == (3, CONFLICT.format("in trial 0 of seed 1"))
    code, out, err = run_cli(
        capsys, "sweep", "--network", str(path), "--algorithm", "straight",
        "--total", "6", "--seeds", "4,6,7,9,5", "--out", str(tmp_path / "s.csv"),
    )
    # seeds 9 and 5 both conflict at step 1; the run order meets seed 9 first
    assert (code, err) == (3, CONFLICT.format("at step 1 of seed 9"))
    # seeds 8, 5 and 1 all conflict in their three trials of two transitions;
    # the run order meets seed 8 first, though its batch holds all five seeds
    code, out, err = run_cli(
        capsys, "sweep", "--network", str(path), "--algorithm", "bnras", "--trials", "3",
        "--transitions", "2", "--seeds", "4,6,8,5,1", "--out", str(tmp_path / "b.csv"),
    )
    assert (code, err) == (3, "error: all conditional weights of node C are zero in trial 2 "
                              "of seed 8; the 0/1 table entries conflict with the current state\n")


def test_sweep_usage_errors(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "sweep", "--network", "AB", "--algorithm", "bnras",
        "--trials", "10", "--transitions", "5", "--seeds", "1,1",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1  # duplicate seeds
    code, _, _ = run_cli(
        capsys, "sweep", "--network", "AB", "--algorithm", "bnras",
        "--seeds", "1", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1  # missing grids


@pytest.mark.parametrize("argv, seed", [
    (("sweep", "--algorithm", "straight", "--total", "50",
      "--seeds=-1,18446744073709551615"), -1),
    (("sweep", "--algorithm", "bnras", "--trials", "3", "--transitions", "2",
      "--seeds=18446744073709551614:18446744073709551617"), 18446744073709551616),
    (("compare", "--total", "50", "--seeds=-2:3"), -2),
    (("run", "--algorithm", "straight", "--total", "50", "--seed", "-1"), -1),
    (("run", "--algorithm", "bnras", "--trials", "3", "--transitions", "2",
      "--seed", "18446744073709551616"), 18446744073709551616),
])
def test_seeds_outside_64_bits_refused(tmp_path, capsys, argv, seed):
    # RandomStream refuses these seeds too; the CLI refuses them first, as
    # usage errors, before any run
    out_path = tmp_path / "x.csv"
    out = () if argv[0] == "run" else ("--out", str(out_path))
    assert run_cli(capsys, *argv, "--network", "CHAIN5", *out) == (
        1, "", f"usage error: seed {seed} is outside [0, 2^64)\n")
    assert not out_path.exists()


def test_seeds_at_the_ends_of_64_bits_accepted(tmp_path, capsys):
    code, out, err = run_cli(capsys, "sweep", "--network", "CHAIN5", "--algorithm", "straight",
                             "--total", "50", "--seeds=0,18446744073709551615")
    assert (code, err, len(parse_csv(out))) == (0, "", 2)
    code, out, err = run_cli(capsys, "run", "--network", "CHAIN5", "--algorithm", "straight",
                             "--total", "50", "--seed", "18446744073709551615")
    assert (code, err, len(parse_csv(out))) == (0, "", 1)


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("algorithm, flags, message", [
    pytest.param("bnras", ("--trials", "0", "--transitions", "5"), "--trials must be >= 1",
                 id="trials-0"),
    pytest.param("bnras", ("--trials", "5", "--transitions", "-1"),
                 "--transitions must be >= 0", id="transitions-minus-1"),
    pytest.param("straight", ("--total", "0"), "--total must be >= 1", id="total-0"),
    pytest.param("bnras", (), "bnras needs --trials and --transitions", id="no-bnras-grids"),
    pytest.param("bnras", ("--trials", "5"), "bnras needs --trials and --transitions",
                 id="no-transitions"),
    pytest.param("straight", (), "straight needs --total", id="no-total"),
])
def test_run_and_sweep_refuse_counts_alike(monkeypatch, tmp_path, capsys, command, algorithm,
                                           flags, message):
    # an enumeration cap of 1 refuses AB's oracle, so a check made after
    # the oracle would exit 3
    monkeypatch.setenv("BNRAS_ENUM_CAP", "1")
    out_path = tmp_path / "x.csv"
    argv = [command, "--network", "AB", "--algorithm", algorithm, *flags]
    if command == "sweep":
        argv += ["--seeds", "1,2", "--out", str(out_path)]
    assert run_cli(capsys, *argv) == (1, "", f"usage error: {message}\n")
    assert not out_path.exists()


def test_sweep_grid_with_one_value_out_of_range(tmp_path, capsys):
    argv = ["sweep", "--network", "AB", "--out", str(tmp_path / "x.csv")]
    assert run_cli(capsys, *argv, "--algorithm", "bnras", "--trials", "30,0",
                   "--transitions", "5") == (1, "", "usage error: --trials must be >= 1\n")
    assert run_cli(capsys, *argv, "--algorithm", "straight", "--total", "30,0") == (
        1, "", "usage error: --total must be >= 1\n")


def test_other_algorithms_counts_not_read(tmp_path, capsys):
    out_path = tmp_path / "x.csv"
    for argv in (
        ("run", "--algorithm", "straight", "--total", "9", "--trials", "0", "--transitions", "-1"),
        ("run", "--algorithm", "bnras", "--trials", "3", "--transitions", "2", "--total", "0"),
        ("sweep", "--algorithm", "straight", "--total", "9", "--trials", "x", "--out",
         str(out_path)),
        ("sweep", "--algorithm", "bnras", "--trials", "3", "--transitions", "2",
         "--total", "x", "--out", str(out_path)),
    ):
        code, out, err = run_cli(capsys, *argv, "--network", "AB")
        assert (code, err) == (0, "")


def test_compare_budget_zero_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "compare", "--network", "PATH2", "--total", "0", "--seeds", "0",
    )
    assert code == 1


def test_compare_emits_paired_rows(tmp_path, capsys):
    out_path = tmp_path / "cmp.csv"
    code, out, err = run_cli(
        capsys, "compare", "--network", "AB", "--total", "2000",
        "--transitions", "100", "--seeds", "0,1", "--stride", "500",
        "--out", str(out_path),
    )
    assert code == 0
    rows = parse_csv(out_path.read_text())
    bnras_rows = [r for r in rows if r["algorithm"] == "bnras"]
    straight_rows = [r for r in rows if r["algorithm"] == "straight"]
    assert len(bnras_rows) == len(straight_rows)
    # per seed: 4 checkpoints (500..2000) plus a summary
    assert len(bnras_rows) == 2 * 5
    for r in rows:
        assert r["evidence"] == ""
        if r["checkpoint"]:
            assert int(r["checkpoint"]) % 500 == 0
        assert 0.0 <= float(r["avg_error"]) <= float(r["max_error"]) <= 1.0


def test_compare_ab_parity(capsys, tmp_path):
    # on an easy network both samplers converge to the same answer at a
    # shared budget; medians over a small pinned seed panel agree closely
    import statistics

    out_path = tmp_path / "cmp.csv"
    code, _, _ = run_cli(
        capsys, "compare", "--network", "AB", "--total", "100000",
        "--transitions", "100", "--seeds", "0:8", "--out", str(out_path),
    )
    assert code == 0
    rows = [r for r in parse_csv(out_path.read_text()) if r["checkpoint"] == ""]
    by_algo = {"bnras": [], "straight": []}
    for r in rows:
        by_algo[r["algorithm"]].append(float(r["avg_error"]))
    diff = abs(statistics.median(by_algo["bnras"]) - statistics.median(by_algo["straight"]))
    assert diff < 0.02


def test_sweep_budget_cells_show_transition_dominance(tmp_path, capsys):
    # fixed-budget anti-diagonal of the grid (N*t = 2000): the one-step
    # cell keeps the restart bias and loses to both deeper cells by a wide
    # margin once evidence moves the posterior away from uniform
    import statistics

    out_path = tmp_path / "grid.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--network", "PATH2", "--evidence", "B=t",
        "--algorithm", "bnras", "--trials", "20,200,2000",
        "--transitions", "1,10,100", "--seeds", "0:5",
        "--out", str(out_path),
    )
    assert code == 0
    rows = parse_csv(out_path.read_text())
    assert len(rows) == 45  # 3 x 3 grid x 5 seeds

    def median_err(trials, transitions):
        picked = [
            float(r["avg_error"])
            for r in rows
            if r["trials"] == trials and r["transitions_per_trial"] == transitions
        ]
        assert len(picked) == 5
        return statistics.median(picked)

    shallow = median_err("2000", "1")
    assert shallow > 2 * median_err("200", "10")
    assert shallow > 2 * median_err("20", "100")


def test_csv_column_count_everywhere(tmp_path, capsys):
    out_path = tmp_path / "cols.csv"
    code, _, _ = run_cli(
        capsys, "compare", "--network", "CHAIN5", "--total", "300",
        "--transitions", "50", "--seeds", "3", "--stride", "100",
        "--out", str(out_path),
    )
    assert code == 0
    expected = len(CSV_HEADER.split(","))
    for line in out_path.read_text().strip().splitlines():
        assert len(line.split(",")) == expected


def test_csv_quotes_evidence_of_several_nodes(tmp_path, capsys):
    ev = ("--network", "CHAIN5", "--evidence", "C1=t,C5=f")
    code, out, _ = run_cli(capsys, "run", *ev, "--algorithm", "bnras", "--trials", "5",
                           "--transitions", "2", "--stride", "4")
    assert code == 0
    out_path = tmp_path / "cmp.csv"
    code, _, _ = run_cli(capsys, "compare", *ev, "--total", "300", "--transitions", "50",
                         "--seeds", "3,4", "--stride", "100", "--out", str(out_path))
    assert code == 0
    for text in (out, out_path.read_text()):
        rows = list(csv.DictReader(io.StringIO(text), restkey="extra"))
        assert rows
        for row in rows:
            assert len(row) == len(CSV_HEADER.split(","))
            assert row["evidence"] == "C1=t,C5=f"
            assert int(row["trials"]) > 0


def test_unknown_builtin_is_io_error(capsys):
    code, out, err = run_cli(capsys, "exact", "--network", "NOPE")
    assert code == 3


def test_usage_error_exit_code_from_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "--network", "AB", "--algorithm", "wrong"])
    assert info.value.code == 1


def test_kept_parser_gives_what_a_fresh_one_gives(capsys):
    # main keeps its parser: calls in one process, before and after
    # another, print and exit as calls on a newly built parser do
    from bnras import cli

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    calls = (
        ["exact", "--network", "AB", "--evidence", "B=t"],
        ["run", "--network", "AB", "--algorithm", "wrong"],  # refused by argparse
        ["compare", "--network", "AB", "--total", "0"],  # refused by the command
        ["validate", AB_PATH],
    )
    kept = [call(argv) for _ in range(2) for argv in calls]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(call(argv))
    assert kept == fresh * 2
    assert [code for code, _, _ in fresh] == [0, 1, 1, 0]
    assert "usage: bnras run" in fresh[1][2] and "usage error" in fresh[2][2]
    assert cli._parser() is cli._parser()
