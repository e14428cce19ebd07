"""Trial reports pinned to digests taken before each chunk built its parent
array, tree bounds and Schur thresholds once.

tests/oracles.trial_loop, the reference the chunked trials are compared with
in test_trial_chunks.py, calls the same sampler and Schur check as the
commands, so a change under both would go unseen there.  These digests were
taken from the commands themselves: a report, without elapsed_ms, must stay
the same bit for bit.

The preserver-test functions below are ones the exact decider leaves open,
so their trials run; 38 of their 60 commands fail in a trial and 10 more on
the grid.  critical-exponent, which decides every row and runs no trial, is
pinned on refuted and proved rows; its digests were re-taken when it
stopped running trials, from reports equal to the earlier ones apart from
trials, which went from 300 to 0.

star-suite is pinned on seeds 0, 4 and 77 at --trials 1, 7 and 1000, from
reports taken before its criterion and exact stages became one pass over a
leaf-major stack.  Its reference loop compares only the verdicts and counts
it recomputes; a claim folded from the float stage's load instead of the
criterion's moves criterion_wrong, and so the digest.
"""

import hashlib
import json

import pytest

from graphpsd import cli

SEEDS = (0, 1, 7)

# (function, --tree-n): (digest of the three reports, [(exit code, trials)])
PRESERVER_PINS = {
    ("-1*x^1.5, 1*x^2.5", 3): ("e8919350c9217f18", [(1, 1), (1, 1), (1, 10)]),
    ("-1*x^1.5, 1*x^2.5", 12): ("28d56af8638f4358", [(1, 1), (1, 1), (1, 4)]),
    ("-1*x^1.5, 1*x^2.5", 40): ("18cc77f4db16e354", [(1, 1), (1, 1), (1, 1)]),
    ("-1*x^1.5, 1*x^2.5", 1000): ("b27c54aa72b57fbb", [(1, 1), (1, 1), (1, 1)]),
    ("1*x^1.5, -0.01*x^2.5, 1*x^3.5", 3): ("b9ee477660608d9d", [(0, 300), (0, 300), (0, 300)]),
    ("1*x^1.5, -0.01*x^2.5, 1*x^3.5", 12): ("62b0925dfc30419f", [(0, 200), (0, 200), (0, 200)]),
    ("1*x^1.5, -0.01*x^2.5, 1*x^3.5", 40): ("fc89c4b1b7dacb88", [(0, 60), (0, 60), (0, 60)]),
    ("1*x^1.5, -0.01*x^2.5, 1*x^3.5", 1000): ("7249be5319bb7cbc", [(0, 4), (0, 4), (0, 4)]),
    ("1*x^2, -0.3*x^1.5", 3): ("069993b36bc273c9", [(1, 300), (1, 300), (1, 300)]),
    ("1*x^2, -0.3*x^1.5", 12): ("6eae2d793ae07668", [(1, 37), (1, 200), (1, 200)]),
    ("1*x^2, -0.3*x^1.5", 40): ("b171445050918afa", [(1, 13), (1, 60), (1, 60)]),
    ("1*x^2, -0.3*x^1.5", 1000): ("7d629f3050e925df", [(1, 4), (1, 4), (1, 2)]),
    ("1*x^2, -0.6*x^1.5", 3): ("2f287c04e0ed2939", [(1, 1), (1, 41), (1, 300)]),
    ("1*x^2, -0.6*x^1.5", 12): ("2702827b74192eed", [(1, 4), (1, 9), (1, 13)]),
    ("1*x^2, -0.6*x^1.5", 40): ("b7c8a96f87bd47ca", [(1, 1), (1, 3), (1, 2)]),
    ("1*x^2, -0.6*x^1.5", 1000): ("c25242690ba70c0d", [(1, 1), (1, 1), (1, 1)]),
    ("1*x^2, -1*x^1.5", 3): ("16591b2b32680db8", [(1, 1), (1, 1), (1, 10)]),
    ("1*x^2, -1*x^1.5", 12): ("7a202452aba577f6", [(1, 1), (1, 1), (1, 4)]),
    ("1*x^2, -1*x^1.5", 40): ("b6860b40340f3140", [(1, 1), (1, 1), (1, 1)]),
    ("1*x^2, -1*x^1.5", 1000): ("3650c28429a0c6e0", [(1, 1), (1, 1), (1, 1)]),
}
TRIALS = {3: 300, 12: 200, 40: 60, 1000: 4}

# spec: digest of the three reports
CRITICAL_PINS = {
    "path 7": "9f49432799292b76",
    "star 9": "ae1aa5163f70a70b",
    "random_tree 12": "f857a4213f896fe5",
    "random_tree 300": "1ffe751e022ed0a3",
}


# --trials: (digest of the three reports, criterion_wrong of each)
STAR_SEEDS = (0, 4, 77)
STAR_PINS = {
    1: ("0339d763dc831525", [0, 0, 0]),
    7: ("ea08d0cfa8d525fd", [1, 0, 1]),
    1000: ("033b604674256e2b", [58, 62, 76]),
}


def reports(capsys, argv, seeds=SEEDS):
    """[(exit code, report without elapsed_ms)] of argv with --seed s, for each seed."""
    out = []
    for seed in seeds:
        code = cli.main([argv[0], "--seed", str(seed), *argv[1:]])
        rep = json.loads(capsys.readouterr().out)
        rep.pop("elapsed_ms")
        out.append((code, rep))
    return out


def digest(runs):
    return hashlib.sha256(json.dumps(runs, sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.parametrize("lit,tree_n", sorted(PRESERVER_PINS))
def test_preserver_reports_keep_their_digests(capsys, lit, tree_n):
    runs = reports(capsys, ("preserver-test", "--trials", str(TRIALS[tree_n]),
                            "--tree-n", str(tree_n), "--", lit))
    assert (digest(runs), [(code, rep["trials"]) for code, rep in runs]) == \
        PRESERVER_PINS[(lit, tree_n)]


@pytest.mark.parametrize("spec", sorted(CRITICAL_PINS))
def test_critical_exponent_reports_keep_their_digests(capsys, spec):
    runs = reports(capsys, ("critical-exponent", spec, "0.5", "1.0", "1.7", "3",
                            "--trials", "300"))
    assert [(code, rep["trials"]) for code, rep in runs] == [(0, 0)] * 3
    assert digest(runs) == CRITICAL_PINS[spec]


@pytest.mark.parametrize("trials", sorted(STAR_PINS))
def test_star_suite_reports_keep_their_digests(capsys, trials):
    runs = reports(capsys, ("star-suite", "--trials", str(trials)), STAR_SEEDS)
    assert [code for code, _ in runs] == [0] * 3
    assert (digest(runs), [rep["certificate"]["criterion_wrong"] for _, rep in runs]) == \
        STAR_PINS[trials]
