"""The layer functions that perfbench/sweep.py times, pinned to fixed outputs.

The sweep calls random_psd_with_pattern, random_psd_pattern_entries,
tree_psd_check and tree_psd_check_sparse by name on a random tree.  These
tests hold their signatures and their values on a few trees and forests to
digests taken before the trials ran as one forest per chunk, so that a
change to the sampler or the Schur loop underneath cannot move the sweep's
inputs or verdicts.
"""

import hashlib

import numpy as np
import pytest

from graphpsd import functions, graphs, matrices, star_tree

from test_elimination_plan import random_forest

FUNCTIONS = ("1*x^1, 1*x^2, -0.1*x^3, 1*x^4, 1*x^5", "1*x^0.5", "1*x^1, -1.9*x^2, 1*x^3")

# name: (digest of the dense sample, digest of (diag, off) with off in key
# order, (tree_psd_check, tree_psd_check_sparse) of f[A] for each of FUNCTIONS)
PINS = {
    "random_tree 1": ("13ee722016ea1928", "13ee722016ea1928",
                      [(True, True), (True, True), (True, True)]),
    "random_tree 2": ("5560c88e607e59f9", "1b187a5c8ca6f9f2",
                      [(True, True), (True, True), (True, True)]),
    "random_tree 10": ("dc7718de67f6e321", "f9ac32cf4f8366cd",
                       [(True, True), (False, False), (True, True)]),
    "random_tree 100": ("9e3a93386778a025", "c42965b3674aff0b",
                        [(True, True), (False, False), (False, False)]),
    "random_forest 9 3": ("a9c8672ff55c1517", "70326af64e7dba83",
                          [(True, True), (False, False), (True, True)]),
    "random_forest 40 7": ("cf7cedb85ebd0f01", "3c34363298c53363",
                           [(True, True), (False, False), (True, True)]),
    "random_forest 150 11": ("d4f132163130e93c", "1b7c9e0f36a39626",
                             [(True, True), (False, False), (False, False)]),
    "star 12": ("d6b529d301b86c9a", "f0e92b0578e49f71",
                [(True, True), (False, False), (True, True)]),
}


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def pattern(name):
    kind, *params = name.split()
    if kind == "random_tree":
        return graphs.random_tree(int(params[0]), 1)
    if kind == "random_forest":
        return random_forest(int(params[0]), int(params[1]))
    return graphs.star_graph(int(params[0]))


@pytest.mark.parametrize("name", sorted(PINS))
def test_sweep_layers_keep_their_values(name):
    g = pattern(name)
    a = matrices.random_psd_with_pattern(g, 8.0, 2)
    diag, off = matrices.random_psd_pattern_entries(g, 8.0, 2)
    keys = sorted(off)
    assert keys == sorted(g.edges)
    verdicts = []
    for lit in FUNCTIONS:
        f = functions.parse_function(lit)
        fa = matrices.apply_entrywise(f.value, a, g)
        verdicts.append((star_tree.tree_psd_check(fa, g), star_tree.tree_psd_check_sparse(
            g, f.value(diag), {k: f.value(v) for k, v in off.items()})))
    assert (digest(a), digest(diag, [off[k] for k in keys]), verdicts) == PINS[name]
