"""One seeded generator per randomized command.

preserver-test and star-suite each make one default_rng(--seed) and read
every draw from it in a fixed order; critical-exponent, which decides every
row and runs no trial, draws only the tree of a random spec, from
default_rng(--seed) as witness does.  These tests count the generators a
command makes, compare the samples of adjacent seeds, and check that a
trial's sample, and so a failing trial's report, does not depend on
--trials.
"""

import json

import numpy as np
import pytest

from graphpsd import cli, functions, graphs, star_tree

COMMANDS = {
    "preserver-test": ("preserver-test", "1*x^1, 1*x^2"),
    "critical-exponent": ("critical-exponent", "random_tree 12", "0.5", "1.0", "2.5"),
    "star-suite": ("star-suite",),
}


def run(capsys, argv):
    code = cli.main(list(argv))
    rep = json.loads(capsys.readouterr().out)
    rep.pop("elapsed_ms")
    return code, rep


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("trials", [1, 70, 300])
def test_one_generator_per_command(capsys, monkeypatch, command, trials):
    made = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        rng = real(*args, **kwargs)
        if not any(rng is m for m in made):  # default_rng returns a Generator as it is
            made.append(rng)
        return rng

    monkeypatch.setattr(np.random, "default_rng", counting)
    code, _ = run(capsys, COMMANDS[command] + ("--trials", str(trials), "--seed", "3"))
    assert code == 0 and len(made) == 1


@pytest.mark.parametrize("spec", ["path 7", "star 9"])
def test_critical_exponent_draws_nothing_for_a_fixed_tree(capsys, monkeypatch, spec):
    # every row is decided: a proved row prints "yes" with no trial, and a
    # path or star spec needs no generator
    def refuse(*args, **kwargs):
        raise AssertionError("critical-exponent drew a sample or ran a trial")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(cli, "_first_failing_trial", refuse)
    code, rep = run(capsys, ("critical-exponent", spec, "0.5", "1.0", "2.5", "6",
                             "--trials", "300"))
    assert (code, rep["verdict"], rep["trials"]) == (0, "pass", 0)
    assert [(row["preserved"], row["certificate"]) for row in rep["rows"][1:]] == \
        [("yes", "")] * 3
    assert rep["rows"][0]["preserved"] == "no"


@pytest.mark.parametrize("spec", ["random_tree 12", "random_tree 300"])
def test_critical_exponent_draws_only_the_tree_of_a_random_spec(capsys, monkeypatch, spec):
    # the one generator a random spec makes draws the tree and nothing after
    # it, and no row runs a trial
    kind, n = spec.split()
    alone = np.random.default_rng(11)
    graphs.build_graph(kind, int(n), seed=alone)
    after_tree = alone.bit_generator.state
    made = []
    real = np.random.default_rng

    def recording(*args, **kwargs):
        rng = real(*args, **kwargs)
        made.append(rng)
        return rng

    def refuse(*args, **kwargs):
        raise AssertionError("critical-exponent ran a trial")

    monkeypatch.setattr(np.random, "default_rng", recording)
    monkeypatch.setattr(cli, "_first_failing_trial", refuse)
    code, rep = run(capsys, ("critical-exponent", spec, "0.5", "1.0", "2.5", "6",
                             "--trials", "300", "--seed", "11"))
    assert (code, rep["verdict"], rep["trials"]) == (0, "pass", 0)
    assert [row["preserved"] for row in rep["rows"]] == ["no", "yes", "yes", "yes"]
    assert len(made) == 1 and made[0].bit_generator.state == after_tree


def trial_samples(monkeypatch, argv):
    """The uniform blocks preserver-test's trials draw, as bytes, one per
    trial in order, drawn chunk by chunk as the trials draw them; the trials
    themselves are not run."""
    seen = []

    def spy(f, trials, draw, width, range_max):
        for start, stop in cli._chunks(trials, width):
            _, _, bounds, uniforms = draw(stop - start)
            seen.extend(block.tobytes() for block in np.split(uniforms, bounds[1:-1], axis=1))

    with monkeypatch.context() as m:
        m.setattr(cli, "_first_failing_trial", spy)
        assert cli.main(list(argv)) == 0
    return seen


def star_samples(monkeypatch, argv):
    """The (p, alpha) stars star-suite checks, as bytes: the columns of its
    verdicts' leaf-major stack, which are every star it draws."""
    seen = []
    stacked_verdicts = star_tree.stacked_verdicts

    def spy(p, alpha):
        seen.extend(pr.tobytes() + ar.tobytes() for pr, ar in zip(p.T, alpha.T))
        return stacked_verdicts(p, alpha)

    with monkeypatch.context() as m:
        m.setattr(star_tree, "stacked_verdicts", spy)
        assert cli.main(list(argv)) == 0
    return seen


@pytest.mark.parametrize("command", ["preserver-test", "star-suite"])
@pytest.mark.parametrize("seed", [0, 41])
def test_adjacent_seeds_share_no_sample(capsys, monkeypatch, command, seed):
    samples = star_samples if command == "star-suite" else trial_samples
    here, next_seed = (samples(monkeypatch, COMMANDS[command] + ("--trials", "200", "--seed", s))
                       for s in (str(seed), str(seed + 1)))
    capsys.readouterr()
    # 200 stars, or 200 trials
    assert len(here) == len(next_seed) == 200
    assert len(set(here)) == len(here) and not set(here) & set(next_seed)


def test_trial_samples_do_not_depend_on_trials(capsys, monkeypatch):
    few, many = (trial_samples(monkeypatch, COMMANDS["preserver-test"] +
                               ("--trials", t, "--seed", "5"))
                 for t in ("10", "150"))
    capsys.readouterr()
    assert few == many[:10]


def test_a_failing_trial_gives_one_report_for_any_longer_run(capsys, monkeypatch):
    # 1*x^0.97 first fails at trial 6 under seed 57; later trials are never
    # drawn, so every --trials above 6 gives the same report, which counts 7
    # trials.  (The decider refutes x^0.97 before any trial; stubbed, the
    # trials run.)
    monkeypatch.setattr(functions, "decide_tree_conditions", lambda f, bound: None)
    reports = []
    for trials in (7, 8, 64, 200, 1000):
        code, rep = run(capsys, ("preserver-test", "1*x^0.97", "--seed", "57",
                                 "--trials", str(trials)))
        assert code == 1 and rep["trials"] == 7
        reports.append(rep)
    assert all(rep == reports[0] for rep in reports)
    assert "image" in reports[0]["certificate"]
    # with 6 trials every trial passes, and the superadditivity scan fails
    code, rep = run(capsys, ("preserver-test", "1*x^0.97", "--seed", "57", "--trials", "6"))
    assert code == 1 and rep["trials"] == 6 and "grid_witness" in rep["certificate"]


def test_tree_spec_is_the_first_draw(capsys, monkeypatch):
    # critical-exponent and witness read a random tree spec from --seed: the
    # tree is default_rng(--seed)'s first draw, the same tree for both
    seen = []
    real = cli._parse_graph_spec

    def parse(spec, seed):
        seen.append(real(spec, seed))
        return seen[-1]

    monkeypatch.setattr(cli, "_parse_graph_spec", parse)
    run(capsys, ("critical-exponent", "random_tree 12", "2.0", "--trials", "5", "--seed", "8"))
    run(capsys, ("witness", "random_tree 12", "--seed", "8"))
    assert seen[0] == seen[1]
    assert seen[0].edges != real("random_tree 12", 9).edges


def test_star_suite_passes_over_many_seeds():
    # every sample gets its exact verdict, and none is skipped.  The float
    # criterion is wrong on about 7 % of the samples, all of them left open
    # by the float stage (mostly random_psd_star's draws at the load); the
    # float stage leaves about 15 % of the samples open, the double-double
    # stage about 0.6 %
    stages = np.zeros(len(cli.STAGES), dtype=int)
    wrong = 0
    for seed in range(200):
        rep = cli.cmd_star_suite(cli.build_parser().parse_args(
            ["star-suite", "--seed", str(seed)]))
        assert rep.verdict == "pass", seed
        cert = rep.certificate
        assert (cert["checked"], cert["boundary_skipped"]) == (1000, 0)
        stages += [cert["decided_by"][name] for name in cli.STAGES]
        wrong += cert["criterion_wrong"]
    assert stages.sum() == 200 * 1000
    assert 0.05 < wrong / stages.sum() < 0.10
    assert 0.12 < stages[2:].sum() / stages.sum() < 0.18
    assert 0.002 < stages[3] / stages.sum() < 0.01
