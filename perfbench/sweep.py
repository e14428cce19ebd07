"""Layer-scaling sweep: one call of each layer function at n = 10 .. 10000.

Each result is the median of repeated calls, ``<module>.<function>.n<N>.call_ms``.
A dense or eigensolver call is skipped, with the reason recorded, when its
n x n arrays would exceed MEMORY_BUDGET.  The budget is tighter than the 8 GB
of a 2-core test machine because such machines are often shared; it skips
every dense call at n = 10000 and none below, so the set of results is fixed.
"""

from __future__ import annotations

import statistics
from time import perf_counter

SIZES = (10, 100, 1000, 10000)
MEMORY_BUDGET = 1 << 30  # bytes of dense float64 arrays alive at once
MIN_TOTAL_S = 0.2  # repeat each measurement until this much time has passed
MAX_REPS = 200


def _time_ms(call):
    times = []
    total = perf_counter()
    while len(times) < 3 or (perf_counter() - total < MIN_TOTAL_S and len(times) < MAX_REPS):
        t0 = perf_counter()
        call()
        times.append((perf_counter() - t0) * 1000.0)
    return statistics.median(times)


# name, dense n x n input, exponent of n in the running time
STEPS = (
    ("graphs.random_tree", False, 1),
    ("matrices.random_psd_with_pattern", True, 2),
    ("matrices.apply_entrywise", True, 2),
    ("star_tree.tree_psd_check", True, 2),
    ("star_tree.tree_psd_check_sparse", False, 1),
    ("matrices.is_psd", True, 3),
)


def _dense_bytes(n):
    return 3 * 8 * n * n  # dense steps keep A, f[A] and the call's result alive


def result_names():
    """Names of the results a sweep reports; the skipped calls are left out."""
    return [f"{name}.n{n}.call_ms" for n in SIZES for name, dense, _ in STEPS
            if not dense or _dense_bytes(n) <= MEMORY_BUDGET]


def run():
    """Returns (results {name: ms}, skips {name: reason})."""
    from graphpsd import functions, graphs, matrices, star_tree

    f = functions.parse_function("1*x^1, 1*x^2, -0.1*x^3, 1*x^4, 1*x^5")
    calls = {
        "graphs.random_tree": lambda s: graphs.random_tree(s["n"], 1),
        "matrices.random_psd_with_pattern": lambda s: matrices.random_psd_with_pattern(
            s["t"], 8.0, 2),
        "matrices.apply_entrywise": lambda s: matrices.apply_entrywise(f.value, s["a"], s["t"]),
        "star_tree.tree_psd_check": lambda s: star_tree.tree_psd_check(s["fa"], s["t"]),
        "star_tree.tree_psd_check_sparse": lambda s: star_tree.tree_psd_check_sparse(
            s["t"], s["diag"], s["off"]),
        "matrices.is_psd": lambda s: matrices.is_psd(s["fa"]),
    }
    results, skips, last = {}, {}, {}
    for n in SIZES:
        t = graphs.random_tree(n, 1)
        diag, off = matrices.random_psd_pattern_entries(t, 8.0, 2)
        state = {"n": n, "t": t, "diag": diag, "off": off}
        dense_ok = _dense_bytes(n) <= MEMORY_BUDGET
        if dense_ok:
            state["a"] = matrices.random_psd_with_pattern(t, 8.0, 2)
            state["fa"] = matrices.apply_entrywise(f.value, state["a"], t)
        for name, dense, power in STEPS:
            key = f"{name}.n{n}.call_ms"
            if dense and not dense_ok:
                prev_n, prev_ms = last[name]
                skips[key] = (f"three dense {n}x{n} float64 arrays need "
                              f"{_dense_bytes(n) / 2 ** 30:.1f} GiB > 1 GiB budget; predicted "
                              f"{prev_ms / 1000.0 * (n / prev_n) ** power:.1f} s per call")
                continue
            results[key] = _time_ms(lambda: calls[name](state))
            last[name] = (n, results[key])
    return results, skips
