"""graphpsd benchmark: CLI workloads run in process through graphpsd.cli.main.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

One client, one process, no worker threads: each command starts when the one
before it has returned (a closed loop).  With --trace 0 the run prints the
end-to-end metrics, every time scaled to a reference host speed by the probe
in probe.py; with --trace 1 it runs every command untraced and then traced,
compares the two reports, and prints the per-layer metrics.  The last
line of standard output is one JSON object; the full record of the run goes to
.perfbench_out/.  --workload all runs each workload in its own process.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, here and in every child process.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import probe  # noqa: E402
import sweep  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PROBE_FILE = str(Path(__file__).resolve().parent / "probe.py")
SETUP_REPS = 7
PROBE_EVERY_S = 0.1  # a command is preceded by a probe when the last is this old
HOST_WINDOW = 2  # a command's host speed is the median of the probes this near it
TAIL_BEYOND = 10  # the tail percentile keeps at least this many commands beyond it

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "cmd_p50_ms": "ms",
    "cmd_tail_ms": "ms",
    "correct_share": "ratio",
    "peak_rss_mb": "MB",
}
SPANS = [name for name in workloads.LAYER_MAP if name != "cli"]


def per_layer_units():
    units = {}
    for name in SPANS:
        units.update({f"{name}.calls": "count", f"{name}.busy_s": "s", f"{name}.self_s": "s"})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({"matrices.eig_calls": "count", "star_tree.tree_vertices": "count",
                  "functions.grid_points": "count", "star_tree.boundary_share": "ratio"})
    units.update({name: "ms" for name in sweep.result_names()})
    units.update({"setup.interpreter_s": "s", "setup.import.numpy_s": "s",
                  "setup.import.graphpsd_s": "s", "trace_overhead": "ratio",
                  "host.spin_ms": "ms", "host.cmd_p50_raw_ms": "ms"})
    return units


def fresh_python(*args):
    """Wall time and stderr of one fresh interpreter with the program on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{args} failed: {proc.stderr.strip()[-300:]}")
    return wall, proc.stderr


def setup_seconds():
    """(scaled, raw) median time of a fresh interpreter importing graphpsd.cli.
    Each import is scaled by the fresh-interpreter probe timed right after it."""
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        wall = fresh_python("-c", "import graphpsd.cli")[0]
        raw.append(wall)
        scaled.append(wall * probe.FRESH_REF_S / fresh_python(PROBE_FILE)[0])
    return statistics.median(scaled), statistics.median(raw)


def spin_ms():
    t0 = perf_counter()
    probe.spin()
    return (perf_counter() - t0) * 1000.0


def host_scaled(latencies, probe_of, probes):
    """Each latency times SPIN_REF_MS over the median of the probes around it:
    HOST_WINDOW before the command's last probe, HOST_WINDOW + 1 after it."""
    local = [statistics.median(probes[max(0, p - HOST_WINDOW):p + HOST_WINDOW + 2])
             for p in range(len(probes) - 1)]
    return [ms * probe.SPIN_REF_MS / local[p] for ms, p in zip(latencies, probe_of)]


def setup_breakdown():
    """Interpreter start-up, and numpy and graphpsd import times from -X importtime."""
    interp = statistics.median(fresh_python("-c", "pass")[0] for _ in range(SETUP_REPS))
    numpy_s, graphpsd_s = [], []
    for _ in range(SETUP_REPS):
        cumulative = {}
        for line in fresh_python("-X", "importtime", "-c", "import graphpsd.cli")[1].splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        numpy_s.append(cumulative["numpy"])
        graphpsd_s.append(cumulative["graphpsd.cli"] - cumulative["numpy"])
    return {"setup.interpreter_s": interp, "setup.import.numpy_s": statistics.median(numpy_s),
            "setup.import.graphpsd_s": statistics.median(graphpsd_s)}


def environment(seed):
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "openblas": openblas, "seed": seed,
            "blas_threads": {var: os.environ[var] for var in BLAS_VARS}}


def run_command(cli, argv):
    """(exit code, report or None, wall ms, error text) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects bad argv this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an uncaught exception is a failed op, not a harness crash
        code, error = None, f"{type(exc).__name__}: {exc}"
    ms = (perf_counter() - t0) * 1000.0
    text = out.getvalue()
    report = json.loads(text) if text.lstrip().startswith("{") else None
    return code, report, ms, error or err.getvalue().strip()


def digest(report):
    """Report digest with the timing field left out."""
    if report is None:
        return "none"
    body = {k: v for k, v in report.items() if k != "elapsed_ms"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def tail(latencies):
    """(percentile, value) at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def run_workload(args):
    from graphpsd import cli

    if not workloads.wrong_pass_is_real():
        raise SystemExit("expected-verdict table is wrong: the wrong-pass polynomial preserves")
    make_rounds = workloads.WORKLOADS[args.workload]
    rounds = make_rounds(np.random.default_rng(args.seed))
    setup, setup_raw = (None, None) if args.trace else setup_seconds()
    tracer = Tracer() if args.trace else None
    for op in next(make_rounds(np.random.default_rng([args.seed, 1]))):  # warm-up, uncounted
        spin_ms()
        run_command(cli, op.argv)

    latencies, traced_ms, digests, failures = [], [], [], []
    probes, probe_of = [], []  # host probe times; each command's last probe before it
    known = boundary = star_trials = 0
    start = last_probe = perf_counter()
    while perf_counter() - start < args.seconds:
        for op in next(rounds):
            if not probes or perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(spin_ms())
                last_probe = perf_counter()
            probe_of.append(len(probes) - 1)
            code, report, ms, error = run_command(cli, op.argv)
            reason = error if code is None else checks.check(op, code, report)
            dig = digest(report)
            if tracer is not None:
                tracer.op = len(latencies)
                tracer.install()
                try:
                    _, traced_report, traced, _ = run_command(cli, op.argv)
                finally:
                    tracer.uninstall()
                traced_ms.append(traced)
                if digest(traced_report) != dig:
                    reason = reason or "traced and untraced reports differ"
            latencies.append(ms)
            digests.append(dig)
            if reason:
                failures.append({"argv": list(op.argv), "reason": reason,
                                 "expected": workloads.SOURCES[op.source],
                                 "known_defect": op.known_defect})
                known += bool(op.known_defect)
            if report is not None and report["command"] == "star-suite":
                boundary += report["certificate"]["boundary_skipped"]
                star_trials += report["trials"]
    probes.append(spin_ms())  # the last command is bracketed too
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed = len(latencies), len(failures)
    scaled = host_scaled(latencies, probe_of, probes)
    pct, tail_ms = tail(scaled)
    record = {
        "workload": args.workload, "why": workloads.WHY[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed),
        "attempted": attempted, "failed": failed, "known_defect_failures": known,
        "error_rate": failed / attempted,
        "tail": {"percentile": pct, "samples": attempted},
        "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "failures": failures[:20],
        "layer_map": workloads.LAYER_MAP,
        "host": {"spin_ms_median": statistics.median(probes), "spin_ref_ms": probe.SPIN_REF_MS,
                 "cmd_p50_raw_ms": statistics.median(latencies),
                 "cmd_tail_raw_ms": tail(latencies)[1], "setup_raw_s": setup_raw},
    }
    if tracer is None:
        values = {
            "setup_s": setup,
            "ops_per_s": (attempted - failed) / (sum(scaled) / 1000.0),
            "cmd_p50_ms": statistics.median(scaled),
            "cmd_tail_ms": tail_ms,
            "correct_share": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        table = tracer.table()
        values = {}
        for name in SPANS:
            calls, busy, self_s = table.get(name, (0, 0.0, 0.0))
            values.update({f"{name}.calls": calls, f"{name}.busy_s": busy,
                           f"{name}.self_s": self_s})
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(row[2] for name, row in table.items()
                                            if name.split(".")[0] == layer)
        values.update(tracer.counts)
        values["star_tree.boundary_share"] = boundary / star_trials if star_trials else 0.0
        results, skips = sweep.run()
        values.update(results)
        values.update(setup_breakdown())
        values["trace_overhead"] = sum(traced_ms) / sum(latencies)
        values["host.spin_ms"] = statistics.median(probes)
        values["host.cmd_p50_raw_ms"] = statistics.median(latencies)
        record["environment"]["trace_overhead"] = values["trace_overhead"]
        units = per_layer_units()
        record.update({"spans": {name: dict(zip(("calls", "busy_s", "self_s"), row))
                                 for name, row in sorted(table.items())},
                       "counts": tracer.counts, "sweep_skips": skips})
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record["metrics"] = metrics
    # every failure must be an open defect listed in the expected-verdict table
    correct = failed == known

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (OUT / f"{tag}.spans.json").write_text(json.dumps(tracer.dump()))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commands {attempted}  failed {failed} (known defects {known})  "
          f"error_rate {failed / attempted:.4f}")
    for name, m in metrics.items():
        note = f"  (p{pct:.2f} of {attempted} commands)" if name == "cmd_tail_ms" else ""
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}{note}")
    host = record["host"]
    unscaled_setup = "" if setup_raw is None else f", setup {setup_raw:.4g} s"
    print(f"  host probe {host['spin_ms_median']:.3f} ms (reference {probe.SPIN_REF_MS} ms); "
          f"unscaled cmd_p50 {host['cmd_p50_raw_ms']:.4g} ms, "
          f"cmd_tail {host['cmd_tail_raw_ms']:.4g} ms{unscaled_setup}")
    print(f"  digest {record['digest']}")
    for fail in failures[:5]:
        print(f"  failed: {' '.join(fail['argv'])[:80]} -> {fail['reason']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_all(args):
    """Each workload in its own process, then a summary of every metric."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
                              text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("\nsummary")
    for name, res in results.items():
        print(f"  {name:12s} " + "  ".join(f"{k}={v['value']:.4g}{v['unit']}"
                                            for k, v in res["metrics"].items()
                                            if k in END_TO_END or k == "trace_overhead"))
    if args.trace:
        design_checks(args.seed, results)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))


def design_checks(seed, results):
    """What the traced run must show if the workloads stress the layers they claim to."""
    spans = json.loads((OUT / f"large-trees-s{seed}-t1.json").read_text())["spans"]
    top = max(spans, key=lambda name: spans[name]["self_s"])

    def share(workload):
        m = results[workload]["metrics"]
        total = sum(m[f"{layer}.self_s"]["value"] for layer in LAYERS)
        return (m["functions.self_s"]["value"] + m["witnesses.self_s"]["value"]) / total

    star = results["star-oracle"]["metrics"]
    claims = {
        f"largest self-time span on large-trees is star_tree.tree_psd_check (got {top})":
            top == "star_tree.tree_psd_check",
        "star-oracle makes no random_tree or tree_psd_check call":
            star["graphs.random_tree.calls"]["value"] == 0
            and star["star_tree.tree_psd_check.calls"]["value"] == 0,
        f"functions+witnesses self-time share: certify {share('certify'):.3f} > "
        f"small-trees {share('small-trees'):.3f}": share("certify") > share("small-trees"),
    }
    for text, ok in claims.items():
        print(f"  design check {'PASS' if ok else 'FAIL'}: {text}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("all", *workloads.WORKLOADS), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "graphpsd" / "cli.py").is_file():
        raise SystemExit(f"graphpsd sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
