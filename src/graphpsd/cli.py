"""Command-line surface: randomized suites and machine-readable reports.

Each subcommand builds a Report and exits 0 on pass, 1 on a property failure
(with a re-checkable certificate in the report), 2 on usage or domain errors.
Reports are deterministic given (command, flags, seed) apart from elapsed_ms:
a randomized command reads every draw from one default_rng(seed).

main parses argv once, by the parser of the subcommand that argv[0] names.
The top-level help, a missing or unknown subcommand and leftover arguments
still come from the top-level parser, which parses argv in those cases only,
so every help text, usage error and exit code reads as it did when the
top-level parser parsed every argv and handed it on.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import constructors, functions, graphs, matrices, star_tree, witnesses
from .functions import DEFAULT_GRID_BOUND, DEFAULT_GRID_STEP, FunctionError
from .graphs import GraphError
from .matrices import MatrixError


# preserver-test and critical-exponent echo their --tol, which no verdict
# reads and which checks of their certificates read as their threshold.
MAX_TOL = 1e-6

# star-suite's stages, in the order they decide (star_tree.stacked_verdicts)
STAGES = ("conditions", "float", "double_double", "integers")

FUNCTION_HELP = ('power-sum literal, e.g. "1*x^1, 1*x^2"; a literal that starts with "-" '
                 'goes after "--", which ends the flags: [flags] -- "-1*x^1"')


@dataclass
class Report:
    command: str
    seed: Optional[int]  # None for a command that reads no --seed
    tolerance: Optional[float]  # None for a command that reads no --tol
    trials: int
    verdict: str  # "pass" | "fail"
    certificate: Optional[dict] = None
    elapsed_ms: float = 0.0
    rows: List[dict] = field(default_factory=list)  # extra tabular payload

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "trials": self.trials,
            "verdict": self.verdict,
            "certificate": self.certificate,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.rows:
            payload["rows"] = self.rows
        return json.dumps(payload, indent=2, allow_nan=False)

    def to_csv(self) -> str:
        buf = io.StringIO()
        if self.rows:
            writer = csv.DictWriter(buf, fieldnames=list(self.rows[0]))
            writer.writeheader()
            writer.writerows(self.rows)
        else:
            writer = csv.writer(buf)
            writer.writerow(["command", "seed", "tolerance", "trials", "verdict",
                             "certificate", "elapsed_ms"])
            writer.writerow([self.command, self.seed, self.tolerance, self.trials,
                             self.verdict, json.dumps(self.certificate, allow_nan=False),
                             self.elapsed_ms])
        return buf.getvalue()


class UsageError(Exception):
    pass


def _parse_graph_spec(spec: str, seed) -> graphs.Graph:
    parts = spec.split()
    if len(parts) != 2:
        raise UsageError(f"graph spec must be 'kind n', got {spec!r}")
    kind, n_text = parts
    try:
        n = int(n_text)
    except ValueError:
        raise UsageError(f"bad vertex count {n_text!r}")
    try:
        return graphs.build_graph(kind, n, seed=seed)
    except GraphError as exc:
        raise UsageError(str(exc))


# A chunk of trials draws at most CHUNK_UNIFORMS uniforms, and at least one
# trial: a trial that reads W uniforms runs in chunks of CHUNK_UNIFORMS // W.
# A passing run pays numpy's per-call costs once per chunk, not once per
# trial, and a chunk's arrays stay small.
CHUNK_UNIFORMS = 2 ** 14


def _chunks(trials: int, width: int):
    """(start, stop) of each chunk of trials 0..trials-1, in order, for trials
    that read width uniforms each."""
    size = max(1, CHUNK_UNIFORMS // width)
    for start in range(0, trials, size):
        yield start, min(start + size, trials)


def _first_failing_trial(f: functions.EntrywiseFunction, trials: int, draw, width: int,
                         range_max: float) -> Optional[Tuple[int, dict]]:
    """(index, certificate) of the first failing trial in index order, or None.

    draw(k) gives the next k trials as one forest, trial after trial: its
    elimination plan, the plan's parent as an integer array, the bounds of
    its trees (tree j on the vertices bounds[j] .. bounds[j + 1] - 1, which
    are also its positions in the plan's order) and the (2, total vertices)
    uniforms.  Each trial reads width uniforms, which sets the chunks
    (_chunks).  Per chunk, one draw, one sampler call maps the uniforms to
    (diag, edge), each tree rescaled on its own, and one f evaluation maps
    those; the parent and bounds arrays serve all three, and the trees are
    the blocks of one star_tree.first_failing_block call.
    """
    for start, stop in _chunks(trials, width):
        plan, parent, bounds, uniforms = draw(stop - start)
        diag, edge = matrices.stacked_psd_plan_entries(parent, bounds, range_max, uniforms)
        n = len(diag)
        image = f.value(np.concatenate([diag, edge]))
        fdiag = image[:n]
        # roots carry no edge entry, whatever f(0) is
        fedge = np.where(parent >= 0, image[n:], 0.0)
        k = star_tree.first_failing_block(plan, fdiag, fedge, bounds)
        if k is not None:
            lo, hi = int(bounds[k]), int(bounds[k + 1])
            tree = plan.block(lo, hi)
            return start + k, {
                "tree": graphs.format_graph(tree.graph()),
                "matrix": matrices.format_plan(tree, diag[lo:hi], edge[lo:hi]),
                # NaN and inf entries, which the finite bound on f rules out
                # (cmd_preserver_test), would print as nan and inf
                "image": matrices.format_plan(tree, fdiag[lo:hi], fedge[lo:hi], check=False),
            }
    return None


def cmd_preserver_test(args) -> Report:
    f = functions.parse_function(args.function)
    # trials counts the trials that ran: none for an exact violation
    rep = Report("preserver-test", args.seed, args.tol, 0, "pass")
    # an empty grid is a usage error whatever the verdict (superadditivity
    # needs two steps)
    functions._grid_count(args.grid, args.range, 2)
    # GKR16: f preserves PSD on trees iff it is nonnegative, superadditive and
    # multiplicatively midpoint-convex; decided exactly where that is possible,
    # so a refuted f fails before any trial is drawn
    exact = functions.decide_tree_conditions(f, args.range)
    if exact is not None and exact.failed is not None:
        # the witness was checked in exact arithmetic
        rep.verdict = "fail"
        rep.certificate = _condition_certificate("exact_witness", exact.failed, exact.witness)
        return rep
    rng = np.random.default_rng(args.seed)
    tree_n = args.tree_n
    width = 3 * tree_n - 1

    def draw(k):
        # trial j reads row j alone, width uniforms u: its size
        # n = 2 + floor(u (tree_n - 1)), then tree_n - 2 Pruefer entries
        # floor(u n), then tree_n l_vv and tree_n l_uv uniforms, of which it
        # takes the first n - 2, n and n; its tree follows trials 0..j-1's
        rows = rng.random((k, width))
        sizes = 2 + (rows[:, 0] * (tree_n - 1)).astype(np.intp)
        bounds = np.zeros(k + 1, dtype=np.intp)
        np.cumsum(sizes, out=bounds[1:])
        seqs = (rows[:, 1:tree_n - 1] * sizes[:, None]).astype(np.intp) + bounds[:-1, None]
        plan = graphs.prufer_plan(seqs[np.arange(tree_n - 2) < sizes[:, None] - 2], sizes)
        used = np.arange(tree_n) < sizes[:, None]
        return (plan, np.fromiter(plan.parent, np.intp, bounds[-1]), bounds,
                np.stack([rows[:, tree_n - 1:2 * tree_n - 1][used], rows[:, 2 * tree_n - 1:][used]]))

    # a trial entry lies in [0, R], where |f| <= sum |c| R^e: where that
    # bound overflows, an image may hold an inf that is not f[A], and no
    # trial runs
    try:
        bound = sum(abs(c) * args.range ** e for c, e in f.terms)
    except OverflowError:
        bound = math.inf
    trials = args.trials if math.isfinite(bound) else 0
    failure = _first_failing_trial(f, trials, draw, width, args.range)
    if failure is not None:
        index, rep.certificate = failure
        rep.trials, rep.verdict = index + 1, "fail"
        return rep
    rep.trials = trials
    if exact is None:
        # undecided: the grid scans decide, and a violation is final, as an
        # exact one is.  f >= 0 is the order-0 forward difference
        scans = {"nonnegative": functions.check_abs_monotonic(f, 0, args.grid, args.range),
                 "superadditive": functions.check_superadditive(f, args.grid, args.range),
                 "mult_convex": functions.check_mult_midpoint_convex(f, args.grid, args.range)}
        failed = next((name for name, v in scans.items() if not v.holds), None)
        if failed is not None:
            witness = scans[failed].witness
            if failed == "nonnegative":
                witness = witness[1:2]  # (order, x, step)
            rep.verdict = "fail"
            rep.certificate = _condition_certificate("grid_witness", failed, witness)
            return rep
    rep.certificate = {"grid_superadditive": True, "grid_mult_convex": True,
                       "grid_nonnegative": True, "decided": "grid" if exact is None else "exact"}
    return rep


def _condition_certificate(key: str, failed: str, witness: tuple) -> dict:
    """The certificate of a PSD matrix A on a tree with f[A] not PSD, where
    the named condition fails at witness, listed under key: by GKR16 each
    violation of the three conditions gives one."""
    if failed == "nonnegative":
        # f(x) < 0: the 1x1 matrix [[x]]
        t, mat = graphs.Graph(1), np.array([witness])
    elif failed == "superadditive":
        # B(x+y, x, y) on the open triangle (1; 0, 2) of the 3-vertex path
        t = graphs.path_graph(3)
        mat = constructors.superadditivity_counterexample(t, *witness)
    else:
        # midpoint convexity: the rank-one edge [[x, sqrt(xy)], [sqrt(xy), y]],
        # m = fl(sqrt(xy)) stepped down until m^2 <= xy exactly, so that the
        # edge is PSD; an exact witness has sqrt(xy) exact and keeps it
        from fractions import Fraction

        x, y = witness
        m = math.sqrt(x * y)
        while math.isfinite(m) and Fraction(m) ** 2 > Fraction(x) * Fraction(y):
            m = math.nextafter(m, 0.0)
        t, mat = graphs.path_graph(2), np.array([[x, m], [m, y]])
    return {"tree": graphs.format_graph(t), "matrix": matrices.format_matrix(mat),
            key: list(witness)}


def cmd_absmon_test(args) -> Report:
    f = functions.parse_function(args.function)
    verdict = functions.check_abs_monotonic(f, n_max=args.n_max, step=args.grid,
                                            bound=args.range)
    rep = Report("absmon-test", None, None, 1,
                 "pass" if verdict.holds else "fail")
    if not verdict.holds:
        n, x, h = verdict.witness
        rep.certificate = {"order": n, "x": x, "h": h, "difference": verdict.margin}
    return rep


def cmd_witness(args) -> Report:
    g = _parse_graph_spec(args.graph, args.seed)
    try:
        bound = witnesses.k_lower_bound(g)
    except GraphError as exc:
        raise UsageError(str(exc))
    sets = list(bound.witness_sets)
    if len(g.edges) == g.n * (g.n - 1) // 2:  # complete: Graph stores each edge once
        sets.append(witnesses.vandermonde_witnesses([float(i) for i in range(1, g.n + 1)]))
    ok = all(ws.recertify() for ws in sets)
    rep = Report("witness", args.seed, None, len(sets),
                 "pass" if ok else "fail")
    rep.certificate = {"lower_bound": bound.lower, "upper_bound": bound.upper,
                       "witness_sets": [ws.payload() for ws in sets]}
    return rep


def cmd_critical_exponent(args) -> Report:
    t = _parse_graph_spec(args.tree, args.seed)
    try:
        plan = graphs.elimination_plan(t)
    except GraphError:
        plan = None
    if plan is None or plan.parent.count(-1) != 1:  # a tree is a forest with one root
        raise UsageError("critical-exponent needs a tree spec")
    if t.n < 3:
        raise UsageError("critical-exponent needs a tree with at least 3 vertices")
    # every row is decided, so no trial runs: GKR16 with GKR's critical
    # exponents of graphs, x^alpha preserves PSD on every tree iff alpha >= 1
    rep = Report("critical-exponent", args.seed, args.tol, 0, "pass")
    for alpha in args.alphas:
        # x^alpha is proved for alpha >= 1 and refuted at (x, x) for alpha < 1
        exact = functions.decide_tree_conditions(functions.power_function(alpha), args.range)
        if exact is None:
            raise UsageError(f"--range {args.range!r} is too small to decide alpha = {alpha!r}: "
                             "its witness x, with 2x <= R, underflows")
        if exact.failed is not None:
            x, y = exact.witness
            note = matrices.format_matrix(
                constructors.superadditivity_counterexample(t, x, y)).replace("\n", ";")
            rep.rows.append({"alpha": alpha, "preserved": "no", "certificate": note})
        else:
            rep.rows.append({"alpha": alpha, "preserved": "yes", "certificate": ""})
    return rep


def cmd_construct(args) -> Report:
    rep = Report(f"construct-{args.kind}", None, None, 1, "pass")
    if args.kind == "poly":
        f = constructors.build_tree_preserver_poly(args.n)
        rep.certificate = {"literal": f.literal()}
    elif args.kind == "entire":
        f = constructors.build_entire_function_partial(args.n)
        rep.certificate = {"literal": f.literal(),
                          "negative_run": constructors.longest_negative_run(f)}
    else:  # thresholds
        if len(args.params) == 4:
            r, s, c_r, c_s = args.params
            t = constructors.superadditivity_threshold(r, s, c_r, c_s)
        elif len(args.params) == 8:
            t = constructors.mult_convexity_threshold(*args.params)
        else:
            raise UsageError("thresholds needs 4 (superadditive) or 8 "
                             "(mult-convex) parameters")
        rep.certificate = {"kind": t.kind, "threshold": t.threshold,
                          "exponents": list(t.exponents),
                          "coefficients": list(t.coefficients)}
    return rep


def _draw_stars(rng: np.random.Generator, trials: int):
    """star-suite's samples in one padded leaf-major stack, as (degree, p,
    alpha): column i holds sample i's star, with degree[i] leaves, in p (9,
    trials) and alpha (8, trials), and its absent leaves have p_i = alpha_i
    = 0.

    Every sample's degree comes first, then every sample's kind, random_star
    or random_psd_star with probability 1/2 each; then all random_star stars
    in one call, and all random_psd_star stars in one, whose rows land in
    the stack's columns.
    """
    degree = rng.integers(1, 9, trials)
    psd_kind = rng.random(trials) >= 0.5
    p, alpha = np.zeros((9, trials)), np.zeros((8, trials))
    for kind, sampler in ((~psd_kind, star_tree.random_star),
                          (psd_kind, star_tree.random_psd_star)):
        cols = np.flatnonzero(kind)
        kind_p, kind_alpha = sampler(degree[cols], rng)
        p[:kind_p.shape[1], cols], alpha[:kind_alpha.shape[1], cols] = kind_p.T, kind_alpha.T
    return degree, p, alpha


def cmd_star_suite(args) -> Report:
    rep = Report("star-suite", args.seed, None, args.trials, "pass")
    # one padded stack and one pass for the criterion and the exact verdicts;
    # absent leaves change no load.  A star the criterion calls PSD needs no
    # kernel-stability check, since for a PSD star ker A and ker A^(2) meet
    # inside every ker A^(m) (README)
    degree, p, alpha = _draw_stars(np.random.default_rng(args.seed), args.trials)
    criterion, exact, stage = star_tree.stacked_verdicts(p, alpha)
    claim = criterion == 0
    wrong = claim != exact
    # where the conditions or the float stage decide, the criterion's verdict
    # is proved (the conditions compare floats exactly, and the float margin
    # covers the criterion's load), so a wrong claim there fails the run, at
    # the first such sample in index order; elsewhere it is counted
    failed = wrong & (stage <= 1)
    if failed.any():
        i = int(np.argmax(failed))
        d = int(degree[i])
        rep.verdict = "fail"
        rep.certificate = {"matrix": matrices.format_matrix(
            star_tree.stacked_dense(p[None, :d + 1, i], alpha[None, :d, i])[0]),
            "criterion": bool(claim[i]), "exact": bool(exact[i]),
            "checked": i + 1, "boundary_skipped": 0}
        return rep
    counts = np.bincount(stage, minlength=len(STAGES)).tolist()
    rep.certificate = {"checked": args.trials, "boundary_skipped": 0,
                       "exact_psd": int(exact.sum()), "criterion_wrong": int(wrong.sum()),
                       "decided_by": dict(zip(STAGES, counts))}
    return rep


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser, built once per process."""
    return _parsers()[0]


@functools.cache
def _parsers() -> Tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subcommands' parsers by name, built once
    per process: building them costs far more than a parse."""
    parser = argparse.ArgumentParser(
        prog="graphpsd",
        description="Entrywise positivity preservers on graph-patterned matrices",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, *knobs):
        """--out and --format, which every subcommand reads, plus the flags
        of knobs, the ones it reads."""
        if "seed" in knobs:
            p.add_argument("--seed", type=int, default=0)
        if "tol" in knobs:
            p.add_argument("--tol", type=float, default=matrices.DEFAULT_PSD_TOL)
        if "trials" in knobs:
            p.add_argument("--trials", type=int, default=1000)
        if "grid" in knobs:
            p.add_argument("--grid", type=float, default=DEFAULT_GRID_STEP)
        if "range" in knobs:
            p.add_argument("--range", type=float, default=DEFAULT_GRID_BOUND)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("preserver-test", help="grid + random-tree preserver suite")
    p.add_argument("function", help=FUNCTION_HELP)
    p.add_argument("--tree-n", type=int, default=12,
                   help="trials draw trees on 2..TREE_N vertices; at least 3, since "
                        "GKR16's characterization, which decides the verdict, is for "
                        "trees on 3 or more vertices")
    common(p, "seed", "tol", "trials", "grid", "range")

    p = sub.add_parser("absmon-test", help="forward-difference absolute monotonicity")
    p.add_argument("function", help=FUNCTION_HELP)
    p.add_argument("--n-max", type=int, default=6)
    common(p, "grid", "range")

    p = sub.add_parser("witness", help="order bounds and witness sets for a graph")
    p.add_argument("graph", help='graph spec "kind n", e.g. "star 6"')
    common(p, "seed")

    p = sub.add_parser("critical-exponent", help="entrywise powers on a tree pattern")
    p.add_argument("tree", help='tree spec "kind n"')
    p.add_argument("alphas", type=float, nargs="+")
    common(p, "seed", "tol", "trials", "range")

    p = sub.add_parser("construct", help="threshold reports and preserver polynomials")
    p.add_argument("kind", choices=("poly", "entire", "thresholds"))
    p.add_argument("-n", type=int, default=1, help="negative count / block count")
    p.add_argument("params", type=float, nargs="*")
    common(p)

    p = sub.add_parser("star-suite", help="star criterion against the exact verdicts")
    common(p, "seed", "trials")

    return parser, sub.choices


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    commands = _parsers()[1]
    try:
        # the top-level parser parses argv only where it words the outcome
        # (module docstring)
        args, extra = None, ()
        if argv and argv[0] in commands:
            args, extra = commands[argv[0]].parse_known_args(argv[1:])
            args.subcommand = argv[0]
        if args is None or extra:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or the error
        return 0 if exc.code is None else exc.code
    # looked up per call, so that a rebound cmd_* name is the one that runs
    handler = {
        "preserver-test": cmd_preserver_test,
        "absmon-test": cmd_absmon_test,
        "witness": cmd_witness,
        "critical-exponent": cmd_critical_exponent,
        "construct": cmd_construct,
        "star-suite": cmd_star_suite,
    }[args.subcommand]
    start = time.perf_counter()
    try:
        # every numeric argument is checked here, once; the handlers trust them
        given = vars(args)
        positive = [(f"--{flag}", given[flag]) for flag in ("grid", "range", "tol")
                    if flag in given]
        for label, value in positive + [("ALPHA", a) for a in given.get("alphas", ())]:
            if not (math.isfinite(value) and value > 0):
                raise UsageError(f"{label} must be positive and finite, got {value!r}")
        for value in given.get("params", ()):
            if not math.isfinite(value):
                raise UsageError(f"PARAMS must be finite, got {value!r}")
        for flag, least in (("seed", 0), ("trials", 1), ("tree_n", 3), ("n_max", 0)):
            if given.get(flag, least) < least:
                raise UsageError(f"--{flag.replace('_', '-')} must be >= {least}, "
                                 f"got {given[flag]}")
        if given.get("tol", 0.0) > MAX_TOL:
            raise UsageError(f"--tol must be at most {MAX_TOL!r}, got {args.tol!r}")
        report = handler(args)
        report.elapsed_ms = (time.perf_counter() - start) * 1000.0
        text = report.to_csv() if args.format == "csv" else report.to_json() + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (UsageError, FunctionError, GraphError, MatrixError,
            witnesses.WitnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means "property failed", never a crash
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0 if report.verdict == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
