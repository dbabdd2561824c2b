"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v`` to get one line per criterion; the printed lines are
also visible under ``-s`` or on failure.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from ssbmf import (Dataset, RecoverConfig, build_tensor, gen_instahide,
                   gen_selection_matrix, gram, match_columns, mu_table,
                   oracle_tensor, required_sample_size, tensor_recover)
from ssbmf.csp import (Assignment, assignment_to_factors, evaluate,
                       rank_subset, reduce_symmetric, solve_exact)
from ssbmf.instance import SelectionMatrix, save_json, split_seed
from ssbmf.probes import (enumerate_zero_probability, f2_zero_probability,
                          krawtchouk_bound_check, rank_f2,
                          singularity_experiment)
from ssbmf.recover import expected_square_inner, get_heavy_coordinates
from ssbmf.recover import solve_exact as solve_linear


def _report(n, desc, ok):
    print(f"criterion {n:2d} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} failed: {desc}"


def test_criterion_01_tensor_exactness():
    r, k, delta = 12, 2, 0.1
    m = required_sample_size(r, k, 3 * k, delta)
    good = 0
    for seed in range(5):
        start = time.perf_counter()
        W = gen_selection_matrix(m, r, k, seed=seed)
        M = gram(W)
        T = build_tensor(M, r, k, mode="lazy")
        O = oracle_tensor(W)
        rng = np.random.Generator(np.random.Philox(key=split_seed(1000, seed)))
        triples = rng.integers(0, m, size=(10 ** 4, 3))
        mismatches = sum(T.entry(a, b, c) != O.entry(a, b, c)
                         for a, b, c in triples)
        elapsed = time.perf_counter() - start
        assert elapsed <= 60, f"seed {seed} took {elapsed:.1f}s"
        good += mismatches == 0
    _report(1, "tensor exactness 4/5 seeds", good >= 4)


def test_criterion_02_end_to_end_recovery():
    r, k = 16, 3
    m = required_sample_size(r, k, 3 * k, 0.1)
    good = 0
    for seed in range(10):
        start = time.perf_counter()
        W = gen_selection_matrix(m, r, k, seed=seed)
        M = gram(W)
        res = tensor_recover(M, r, k, RecoverConfig(anchors=64, seed=seed))
        ok = res.success and res.residual == 0
        if ok:
            permutation, unmatched = match_columns(res.W_hat, W)
            ok = unmatched is None and sorted(permutation) == list(range(r))
        elapsed = time.perf_counter() - start
        assert elapsed <= 120, f"seed {seed} took {elapsed:.1f}s"
        good += ok
    _report(2, "end-to-end recovery 9/10 seeds", good >= 9)


def test_criterion_03_mu_gap():
    ok = True
    for k in range(1, 7):
        r = 64 * k * k
        table = mu_table(r, k, t_max=3 * k + 1)
        floor = Fraction(k, 4 * r)
        for t in range(3 * k + 1):
            if table.values[t] - table.values[t + 1] < floor:
                ok = False
    _report(3, "mu gap >= k/(4r), exact", ok)


def test_criterion_04_krawtchouk_identity():
    start = time.perf_counter()
    failures = 0
    for r in range(1, 13):
        for k in range(1, r + 1):
            for lam in range(r + 1):
                if f2_zero_probability(r, k, lam) != \
                        enumerate_zero_probability(r, k, lam):
                    failures += 1
    assert time.perf_counter() - start <= 30
    _report(4, "parity probability vs enumeration", failures == 0)


def test_criterion_05_krawtchouk_bound():
    start = time.perf_counter()
    ok = True
    for r in range(1, 65):
        for k in range(1, r + 1):
            if Fraction(k) > Fraction(16, 100) * r:
                break
            if not krawtchouk_bound_check(r, k)["ok"]:
                ok = False
    assert time.perf_counter() - start <= 30
    _report(5, "Krawtchouk magnitude bound", ok)


def test_criterion_06_even_k_forced_kernel():
    ok = True
    for m, r, k in [(80, 20, 2), (120, 30, 4)]:
        for trial in range(100):
            W = gen_selection_matrix(m, r, k, seed=split_seed(77, trial))
            if rank_f2(W) > r - 1:
                ok = False
    _report(6, "even k forces F2 rank <= r-1", ok)


def test_criterion_07_odd_k_independence():
    out = singularity_experiment(160, 40, 3, trials=200, seed=5)
    big_ok = out["real"]["frequency"] >= 0.95

    trials = 10 ** 4
    out_small = singularity_experiment(4, 4, 1, trials=trials, seed=6)
    p = 24 / 256  # 4! permutation matrices out of 4^4 draws
    sigma = math.sqrt(p * (1 - p) / trials)
    small_ok = abs(out_small["real"]["frequency"] - p) <= 3 * sigma
    _report(7, "odd-k full rank frequencies", big_ok and small_ok)


def test_criterion_08_expected_square_inner():
    rng = np.random.Generator(np.random.Philox(key=8))
    ok = True
    for r in range(2, 9):
        for k in range(1, r + 1):
            p = rng.normal(size=r)
            exact = np.mean([sum(p[j] for j in sup) ** 2
                             for sup in itertools.combinations(range(r), k)])
            if abs(expected_square_inner(p, r, k) - exact) > 1e-12:
                ok = False

    r, k, n = 50, 4, 10 ** 5
    p = rng.normal(size=r)
    vals = p[gen_selection_matrix(n, r, k, seed=8).support].sum(axis=1) ** 2
    se = vals.std(ddof=1) / math.sqrt(n)
    mc_ok = abs(vals.mean() - expected_square_inner(p, r, k)) <= 5 * se
    _report(8, "second-moment closed form", ok and mc_ok)


def test_criterion_09_heavy_coordinate_recovery():
    r, k, d, m = 50, 4, 20, 6000
    good_seeds = 0
    for seed in range(10):
        start = time.perf_counter()
        rng = np.random.Generator(np.random.Philox(key=split_seed(90, seed)))
        X = rng.normal(size=(r, d))
        X /= np.abs(X).sum(axis=0)  # unit absolute mass of the noise part
        heavy_rows = rng.integers(0, r, size=d)
        signs = np.where(rng.random(size=d) < 0.5, -1.0, 1.0)
        for j in range(d):
            # heavy share 1.8 / 2.8 = 0.643 >= 8 k / r = 0.64 of the column mass
            X[heavy_rows[j], j] = 1.8 * signs[j]
        syn, M = gen_instahide(Dataset(X=X), m=m, k=k,
                               seed=split_seed(91, seed))
        hits = 0
        for j in range(d):
            est = get_heavy_coordinates(syn.W, syn.Z[:, j])
            truth = abs(X[heavy_rows[j], j])
            if abs(est[heavy_rows[j]] - truth) <= 0.25 * truth:
                hits += 1
        elapsed = time.perf_counter() - start
        assert elapsed <= 120, f"seed {seed} took {elapsed:.1f}s"
        good_seeds += hits >= 0.9 * d
    _report(9, "heavy coordinates within 25% in 8/10 seeds", good_seeds >= 8)


def test_criterion_10_csp_identity_and_solver():
    start = time.perf_counter()
    W = SelectionMatrix(m=4, r=4, k=2,
                        rows=((0, 1), (1, 2), (2, 3), (0, 3)))
    inst = reduce_symmetric(gram(W, "integer"), 4, 2, "integer")
    ok = True
    for sigma in itertools.product(range(6), repeat=4):
        value = evaluate(inst, sigma)
        _, residual = assignment_to_factors(
            inst, Assignment(sigma=sigma, value=value))
        if residual != 2 * (inst.n_edges - value):
            ok = False
    best = solve_exact(inst)
    ok = ok and best.value == 6
    assert time.perf_counter() - start <= 10
    _report(10, "CSP residual identity and exact optimum", ok)


def test_criterion_11_exact_linear_solve():
    r, k = 32, 3
    m = 4 * r
    rng = np.random.Generator(np.random.Philox(key=11))
    X = rng.normal(size=(r, 7))
    W = gen_selection_matrix(m, r, k, seed=11)
    Y = W.dense().astype(float) @ X
    out = solve_linear(W, Y)
    err = float(np.max(np.abs(out.X - X)))
    _report(11, "exact linear solve max error <= 1e-9", err <= 1e-9)


def test_criterion_12_determinism(tmp_path):
    from ssbmf.cli import main

    def run(tag):
        base = tmp_path / tag
        base.mkdir()
        w = base / "w.json"
        g = base / "g.json"
        rep = base / "attack.json"
        what = base / "w_hat.json"
        mu = base / "mu.json"
        assert main(["gen", "--m", "3905", "--r", "8", "--k", "2",
                     "--seed", "12", "--out", str(w)]) == 0
        assert main(["gram", "--in", str(w), "--out", str(g)]) == 0
        assert main(["attack", "--gram", str(g), "--r", "8", "--k", "2",
                     "--anchors", "40", "--seed", "12", "--out", str(rep),
                     "--w-out", str(what)]) == 0
        save_json(mu_table(8, 2).to_json(), mu)
        return {p.name: p.read_bytes() for p in (w, g, rep, what, mu)}

    first = run("run1")
    second = run("run2")
    _report(12, "byte-identical artifacts across runs", first == second)
