import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import bitorus.census as census
import bitorus.cli
from bitorus.census import (
    _FOREST,
    _forest_walk,
    _nodes,
    _odd_odd_pairs,
    diag_distribution,
    exceptional_pairs,
)
from bitorus.cli import _write_cells, cli_main
from bitorus.counting import (
    _TRANSITIONS,
    CANONICAL_STRINGS,
    TREE_CHARS,
    STRING_CAP,
    TREE_MAPS,
    _base_counts,
    apply_tree_string,
    canonicalize,
    diag_count_string,
    diag_count_tree,
    tree_map_table,
)
from bitorus.diagonals import NAIVE_CAP, diag_count_naive
from bitorus.errors import CapExceededError
from bitorus.hamiltonicity import CELL_CAP, is_hamiltonian_fast
from bitorus.verify import CHECKS, run_verify


def test_exceptional_pairs_below_first_entry():
    assert exceptional_pairs(18) == []


def test_exceptional_pairs_up_to_29():
    got = [(r.n, r.m) for r in exceptional_pairs(29)]
    assert got == [(5, 19), (7, 27), (7, 29), (13, 29), (20, 29)]


def test_exceptional_pairs_records_are_coprime_and_sorted():
    records = exceptional_pairs(29)
    assert all(not r.hamiltonian and r.diag >= 2 for r in records)
    keys = [(r.n, r.m) for r in records]
    assert keys == sorted(keys)


def test_exceptional_pairs_validates_input():
    with pytest.raises(ValueError):
        exceptional_pairs(1)
    with pytest.raises(ValueError, match="must be an integer"):  # raised TypeError
        exceptional_pairs(10.5)


def test_exceptional_pairs_matches_the_per_pair_loop_at_every_limit(monkeypatch):
    # The table's former route: a gcd filter, then diag_count_tree and
    # is_hamiltonian_fast per pair.  The verdicts are computed once and
    # served to every limit, so each limit costs only the walk.
    verdicts = {}
    for n in range(1, 120):
        for m in range(n + 1, 121):
            if math.gcd(n, m) == 1:
                diag = diag_count_tree(n, m)
                verdicts[n, m] = diag, diag >= 2 and is_hamiltonian_fast(n, m)
    monkeypatch.setattr(census, "is_hamiltonian_fast", lambda n, m: verdicts[n, m][1])
    for k in range(2, 121):
        want = [
            (n, m, diag)
            for (n, m), (diag, hamiltonian) in sorted(verdicts.items())
            if m <= k and diag >= 2 and not hamiltonian
        ]
        records = exceptional_pairs(k)
        assert [(r.n, r.m, r.diag) for r in records] == want, k
        assert all(r.method == "link" and not r.hamiltonian for r in records)


def test_table_walk_yields_each_coprime_pair_once_with_its_count():
    values = _FOREST.values
    for h in (2, 3, 4, 17, 200):
        nodes = list(_nodes(h))
        walked = Counter((n, m) for m, n, _ in nodes)
        for m, n, f in nodes:
            assert values[f] == diag_count_tree(n, m), (n, m)
        assert set(walked.values()) == {1}
        assert set(walked) == set(_coprime(h))
    # the odd-odd tree's root (3, 1), with the last map id, lies above h = 2
    visits, generations = _forest_walk(2)
    assert list(_nodes(2)) == [(2, 1, 0)] and visits.tolist() == [1] + [0] * (len(values) - 1)
    assert generations == 1


def _walk_both_ways(h):
    """Visits per map id counted by the forest walk, and tallied over the plain walk's nodes."""
    counted, _ = _forest_walk(h)
    tallied = Counter(f for _, _, f in _nodes(h))
    return counted.tolist(), [tallied[f] for f in range(len(counted))]


def test_leaf_runs_count_the_visits_of_their_built_nodes():
    for h in range(2, 201):
        counted, tallied = _walk_both_ways(h)
        assert counted == tallied, h


def test_cut_runs_and_split_chunks_keep_the_counts(monkeypatch):
    # a tiny chunk splits every frontier chunk and cuts every long run; at
    # h = 100 the root's gamma run builds 32 steps, cut 8 times, each cut
    # adding a generation
    want = {h: _walk_both_ways(h)[1] for h in (30, 60, 100)}
    generations = _generations(100)
    monkeypatch.setattr(census, "_CHUNK", 4)
    for h, tallied in want.items():
        assert _walk_both_ways(h) == (tallied, tallied), h
        assert sum(tallied) == sum(1 for _ in _coprime(h))
    assert _generations(100) > generations


def _generations(h):
    return _forest_walk(h)[1]


def test_forest_walk_generations_grow_like_log_h():
    # No run is cut below h = 3 _CHUNK, so a node's generation is its run
    # count and a node built at h is built at every larger h: the count
    # never falls as h grows, and the count at 2 lo bounds every h in [lo, 2 lo).
    assert 4000 < 3 * census._CHUNK

    def bound(h):  # calibrated: the count is at most log2(h) on 2..256, and log2(lo) at 2 lo
        return math.log2(h) + 1

    counts = [_generations(h) for h in range(2, 257)]
    assert counts == sorted(counts)
    assert all(g <= bound(h) for h, g in enumerate(counts, start=2))
    for lo in (256, 512, 1024, 2048):
        assert _generations(min(2 * lo, 4000)) <= bound(lo), lo


def _odd_odd_sieve(limit):
    """Odd-odd coprime pairs n < m <= h for every h <= limit, from a totient sieve.

    For odd m > 1 the n < m coprime to m pair up as n, m - n of opposite
    parity, so phi(m) / 2 of them are odd.
    """
    phi = np.arange(limit + 1)
    for p in range(2, limit + 1):
        if phi[p] == p:
            phi[p::p] -= phi[p::p] // p
    odd = np.where(np.arange(limit + 1) % 2 == 1, phi // 2, 0)
    return np.cumsum(odd).tolist()


def test_odd_odd_pairs_match_a_totient_sieve():
    want = _odd_odd_sieve(2 * 10**5)
    assert [_odd_odd_pairs(h) for h in range(1, 3001)] == want[1:3001]
    assert _odd_odd_pairs(2 * 10**5) == want[-1]


def test_census_counts_the_odd_odd_pairs_as_its_two_diagonal_pairs():
    # every even-odd map values 1 or 3, so the pairs of 2 diagonals are the odd-odd ones
    assert set(TREE_MAPS.values) == {1, 3}
    for h in (2, 3, 97, 1000, 1001):
        assert diag_distribution(h).count2 == _odd_odd_pairs(h), h


def test_odd_odd_pairs_memory_grows_like_sqrt_h():
    # the memo holds Phi on the ~2 sqrt(h) distinct quotients: 189 KB at h = 10**6
    tracemalloc.start()
    _odd_odd_pairs(10**6)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 400_000


def test_distribution_memory_is_set_by_the_chunk_not_by_h():
    # a few chunk-sized int64 arrays per generation, 1.45 MB at h = 1000 and
    # 1.94 MB at 4000: the pairs grow 16x, the peak with the generation count
    diag_distribution(10)
    peaks = {}
    for h in (1000, 4000):
        tracemalloc.start()
        diag_distribution(h)
        peaks[h] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[4000] < 128 * census._CHUNK * 8
    assert peaks[4000] < 2 * peaks[1000]


def test_distribution_single_pair():
    report = diag_distribution(2)
    assert report.pairs == 1
    assert (report.p1, report.p2, report.p3) == (0, 0, 1)


def test_distribution_small_horizon():
    report = diag_distribution(40)
    assert report.pairs == sum(1 for _ in _coprime(40))
    assert report.count1 + report.count2 + report.count3 <= report.pairs
    assert abs(report.p1 - Fraction(4, 9)) < Fraction(1, 20)


def test_distribution_matches_per_pair_tree_walks_at_every_horizon():
    tally = Counter()
    for h in range(2, 151):
        for n in range(1, h):
            if math.gcd(n, h) == 1:
                tally[diag_count_tree(n, h)] += 1
        report = diag_distribution(h)
        got = (report.pairs, report.count1, report.count2, report.count3)
        assert got == (sum(tally.values()), tally[1], tally[2], tally[3])
        assert report.count1 + report.count2 + report.count3 == report.pairs


def test_distribution_exact_tallies():
    for h, tallies in (
        (1000, (304191, 135229, 101330, 67632)),
        (2000, (1216587, 540900, 405432, 270255)),
        (4000, (4863601, 2161968, 1620645, 1080988)),
    ):
        report = diag_distribution(h)
        assert (report.pairs, report.count1, report.count2, report.count3) == tallies


def test_distribution_validates_input():
    with pytest.raises(ValueError):
        diag_distribution(1)
    for survey in (diag_distribution, exceptional_pairs):  # past the walk's int64 columns
        with pytest.raises(CapExceededError, match="h <= 2\\*\\*60"):
            survey(2**60 + 1)
    with pytest.raises(ValueError, match="must be an integer"):  # reported h = 10.5
        diag_distribution(10.5)


def test_tree_map_table_is_closed_and_valued_at_the_image_of_the_root():
    table = tree_map_table()
    maps = table.maps
    assert maps[0] == CANONICAL_STRINGS
    assert len(set(maps)) == len(maps) == len(table.children) == len(table.values)
    assert table == TREE_MAPS  # the one table, built at import
    for f, row in enumerate(table.children):
        for ch, g in zip(TREE_CHARS, row):
            images = (_TRANSITIONS[(state, ch)] for state in CANONICAL_STRINGS)
            assert maps[g] == tuple(maps[f][CANONICAL_STRINGS.index(s)] for s in images)
        m, n = apply_tree_string(maps[f][0])  # the canonical pair of f's image of the root
        assert table.values[f] == _base_counts()[(n, m)] == diag_count_naive(n, m)


def test_tree_map_ids_follow_prepended_characters():
    table = tree_map_table()
    words = [""]
    for _ in range(6):
        words = [ch + w for w in words for ch in TREE_CHARS]
        for word in words:
            f = 0
            for ch in reversed(word):
                f = table.children[f][TREE_CHARS.index(ch)]
            assert table.maps[f] == tuple(canonicalize(s + word) for s in CANONICAL_STRINGS)
            m, n = apply_tree_string(word)
            assert table.values[f] == diag_count_naive(n, m)


def _coprime(h):
    for m in range(2, h + 1):
        for n in range(1, m):
            if math.gcd(n, m) == 1:
                yield n, m


# --- CLI -------------------------------------------------------------------

def test_cli_diag(capsys):
    assert cli_main(["diag", "2", "3"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    for method in ("naive", "string", "reduction", "tree"):
        assert cli_main(["diag", "6", "10", "--method", method]) == 0
        assert capsys.readouterr().out.strip() == "4"


@pytest.mark.parametrize(
    "method,n,m,cap",
    [("naive", 10**6, 10**6 + 1, "n + m > 2000000"), ("string", 999999, 1000003, "capped at 2000000")],
)
def test_cli_diag_refuses_past_the_linear_routes_caps(capsys, method, n, m, cap):
    assert cli_main(["diag", str(n), str(m), "--method", method]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert cap in err and "use diag_count_tree" in err


def test_linear_routes_answer_up_to_their_caps():
    # the naive walk's cap leaves n + m <= 2 * 10**6 answerable, and the string
    # cap binds only the word of the core (n, m) / g: the side-1 closed form
    # and a small core times any g answer at any size
    assert NAIVE_CAP >= 2 * 10**6
    assert diag_count_naive(1, NAIVE_CAP - 1) == diag_count_tree(1, NAIVE_CAP - 1)
    with pytest.raises(CapExceededError, match="use diag_count_tree"):
        diag_count_naive(1, NAIVE_CAP)
    assert diag_count_string(1, 2 * 10**60) == 1
    assert diag_count_string(3 * 10**12, 5 * 10**12) == 2 * 10**12
    with pytest.raises(CapExceededError, match="use diag_count_tree"):
        diag_count_string(2, STRING_CAP - 1)


def test_cli_witness_lines_match_the_per_cell_format():
    # the vectorised writer against "%d,%d" per cell, across digit-count boundaries
    for cols in (1, 2, 10, 12, 100, 2002):
        flat = np.array([0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 12345, 10**6, 10**7 - 1, 10**9])
        out = io.BytesIO()
        _write_cells(out, flat, cols)
        assert out.getvalue() == "".join("%d,%d\n" % divmod(i, cols) for i in flat.tolist()).encode()


def test_cli_ham(capsys):
    assert cli_main(["ham", "5", "19"]) == 0
    assert capsys.readouterr().out.strip() == "false"
    assert cli_main(["ham", "3", "3", "--method", "brute"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_cli_ham_witness(capsys):
    assert cli_main(["ham", "3", "3", "--witness"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "true"
    assert set(lines[1]) <= {"U", "R"}
    assert len(lines) == 2 + 36
    assert lines[2].count(",") == 1


def test_cli_ham_witness_from_link_tier(capsys):
    assert cli_main(["ham", "4", "6", "--witness", "--method", "link"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "true"
    assert len(lines) == 2 + 4 * 4 * 6


@pytest.mark.parametrize("n,m,route", [
    (2236, 2237, ["--witness"]),
    (2236, 2237, ["--method", "brute"]),
    (100000, 100001, ["--witness"]),
])
def test_cli_ham_refuses_to_expand_cells_past_the_cap(capsys, n, m, route):
    # Hamiltonian, past the cap; without it both routes ask numpy for every
    # cell.  The refusal comes before the verdict, so stdout stays empty.
    assert 4 * n * m > CELL_CAP
    assert cli_main(["ham", str(n), str(m), *route]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: grid ({n},{m}) has {4 * n * m} cells;")
    assert err.count("\n") == 1 and "use is_hamiltonian_fast" in err


def test_cli_ham_refuses_a_witness_past_the_cap_before_walking_it(capsys, monkeypatch):
    def walked(n, m):
        raise AssertionError("the witness was walked before the refusal")

    monkeypatch.setattr(bitorus.cli, "hamiltonian_witness", walked)
    assert cli_main(["ham", "100000", "100001", "--witness"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "cell expansion capped" in err


def test_cli_ham_no_witness_lines_when_negative(capsys):
    assert cli_main(["ham", "2", "3", "--witness"]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_cli_exits_141_when_the_reader_closes_the_pipe():
    # about 280 KB of witness, several pipe buffers, so the writer must meet the closed pipe
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bitorus.cli", "ham", "100", "101", "--witness"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"true\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert stderr == b""


def test_cli_ham_size_one_note(capsys):
    assert cli_main(["ham", "1", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "true"
    assert "size-1" in captured.err


def test_cli_usage_errors(capsys):
    assert cli_main(["diag", "0", "3"]) == 1
    assert "positive" in capsys.readouterr().err
    assert cli_main(["diag", "2"]) == 1
    capsys.readouterr()
    assert cli_main(["unknown"]) == 1
    capsys.readouterr()


def test_cli_table_csv(capsys):
    assert cli_main(["table", "--max", "29", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,m,diag,hamiltonian"
    assert lines[1] == "5,19,2,false"
    assert len(lines) == 6


def test_cli_table_json(capsys):
    assert cli_main(["table", "--max", "20", "--format", "json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ['{"n": 5, "m": 19, "diag": 2, "hamiltonian": false, "method": "link"}']
    record = json.loads(lines[0])
    assert record["diag"] == 2


def test_cli_census_json(capsys):
    assert cli_main(["census", "--max", "30", "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["h"] == 30
    assert record["pairs"] > 0
    assert abs(record["p1"] + record["p2"] + record["p3"] - 1.0) < 0.2


def test_cli_census_csv(capsys):
    assert cli_main(["census", "--max", "10", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "h,pairs,count1,count2,count3,p1,p2,p3"
    assert lines[1].startswith("10,")


def test_cli_verify(capsys):
    assert cli_main(["verify", "--max", "10"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok ") == len(CHECKS) and "FAIL" not in out
    assert "census-tree" in out and "induction-groups" in out
    # each line ends with the check's wall time
    assert all(re.fullmatch(r"ok [\w-]+ \(.+\) \d+\.\d\d s", line) for line in out.splitlines())
    assert "table-route (coprime n < m <= 60, 31 rows)" in out


def test_cli_verify_limit_below_two_is_a_usage_error(capsys):
    for command in ("verify", "census", "table"):
        assert cli_main([command, "--max", "1"]) == 1
        err = capsys.readouterr().err
        assert err == "usage error: argument --max: must be an integer >= 2, got 1\n", command
    assert cli_main(["verify", "--max", "x"]) == 1
    assert capsys.readouterr().err == "usage error: argument --max: invalid integer value: 'x'\n"
    assert cli_main(["diag", "x", "3"]) == 1
    assert capsys.readouterr().err == "usage error: argument n: invalid integer value: 'x'\n"


def test_run_verify_all_green():
    assert all(res.ok for res in run_verify(6))


def test_run_verify_refuses_a_non_integer_limit():
    with pytest.raises(ValueError, match="must be an integer"):  # raised TypeError
        run_verify(2.5)


def test_deterministic_table_output(capsys):
    cli_main(["table", "--max", "29"])
    first = capsys.readouterr().out
    cli_main(["table", "--max", "29"])
    assert capsys.readouterr().out == first


def test_cli_diag_reduction_on_a_large_skewed_pair(capsys):
    # rule 1 runs 249,999 times here; a fixed step cap made this exit 2
    assert cli_main(["diag", "1", "1000000", "--method", "reduction"]) == 0
    assert capsys.readouterr().out.strip() == str(diag_count_tree(1, 1000000))
