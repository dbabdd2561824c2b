"""Tests of the benchmark itself: every check rejects a corrupted result, and
the traced run leaves ssbmf exactly as it found it.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import numpy as np
import pytest

import ssbmf
import ssbmf.csp
from ssbmf.csp import Assignment
from ssbmf.jennrich import RecoveredFactors

import bench_tracing
import bench_workloads as bw
import run
from run import run_job, tail


def _permuted(W, perm):
    rows = tuple(tuple(sorted(perm[j] for j in row)) for row in W.rows)
    return ssbmf.SelectionMatrix(m=W.m, r=W.r, k=W.k, rows=rows)


def test_recover_check_rejects_one_flipped_row():
    W = ssbmf.gen_selection_matrix(200, 8, 2, seed=3)
    good = _permuted(W, [3, 1, 0, 2, 7, 6, 5, 4])
    assert bw.check_recover(W, RecoveredFactors(good, True, 0)) is None
    rows = list(good.rows)
    rows[5] = next(p for p in ((0, 1), (2, 3)) if p != rows[5])
    flipped = ssbmf.SelectionMatrix(m=W.m, r=W.r, k=W.k, rows=tuple(rows))
    assert bw.check_recover(W, RecoveredFactors(flipped, True, 0)) is not None
    assert bw.check_recover(W, RecoveredFactors(good, True, 2)) is not None


def test_failures_are_counted_and_only_wrong_results_or_bugs_are_wrong():
    declined = run_job(_Declining(), 1)
    assert declined.failure.startswith("declined") and not declined.wrong
    typed = run_job(_TooFewAnchors(), 1)  # ParameterError, one of ssbmf's own
    assert typed.failure == "job raised ParameterError" and not typed.wrong
    bug = run_job(_Buggy(), 1)
    assert bug.failure == "job raised TypeError" and bug.wrong


def test_declined_attempt_is_retried_with_a_fresh_anchor_seed_and_counted():
    retried = run_job(_DecliningOnce(), 1)
    assert retried.failure is None and retried.declined == 1
    declined = run_job(_Declining(), 1)
    assert declined.declined == run.ATTEMPTS - 1
    seeds = [bw.anchor_seed(12345, a) for a in range(run.ATTEMPTS)]
    assert seeds[0] == 12345 and len(set(seeds)) == len(seeds)
    assert seeds == [bw.anchor_seed(12345, a) for a in range(run.ATTEMPTS)]


def test_attack_check_rejects_one_heavy_estimate_beyond_tolerance():
    rng = np.random.Generator(np.random.Philox(key=5))
    r, d = 6, 10
    X_abs = 0.05 * np.abs(rng.normal(size=(r, d)))
    planted = rng.integers(0, r, size=d)
    X_abs[planted, np.arange(d)] = 1.0
    perm = np.array([2, 0, 1, 5, 3, 4])
    X_hat = X_abs[perm].copy()
    row_of = np.argsort(perm)
    X_hat[row_of[planted[0]], 0] = 1.3  # 9 of 10 within 25%: exactly the floor
    assert bw.check_attack(X_abs, planted, X_hat) is None
    X_hat[row_of[planted[1]], 1] = 1.26
    assert bw.check_attack(X_abs, planted, X_hat) is not None


def test_attack_check_rejects_alignment_that_is_not_a_bijection():
    X_abs = np.eye(3)
    X_hat = np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 0, 1.0]])
    assert bw.check_attack(X_abs, np.arange(3), X_hat) is not None


def test_entry_check_rejects_one_wrong_tensor_entry():
    W = ssbmf.gen_selection_matrix(600, 8, 2, seed=4)
    T = ssbmf.build_tensor(ssbmf.gram(W), 8, 2, mode="lazy")
    oracle = ssbmf.oracle_tensor(W)
    triples = [(a, (a * 7) % 600, (a * 13) % 600) for a in range(40)]
    got = [T.entry(*t) for t in triples]
    expected = [oracle.entry(*t) for t in triples]
    assert bw.check_entries(expected, got) is None
    got[17] = (got[17] + 1) % 3
    assert bw.check_entries(expected, got) is not None


def test_csp_check_rejects_residual_off_by_one():
    W = ssbmf.gen_selection_matrix(8, 6, 2, seed=2)
    inst = ssbmf.csp.reduce_symmetric(ssbmf.gram(W), 6, 2, "boolean")
    best = ssbmf.csp.solve_local(inst, restarts=1, iters=5, seed=2)
    assert bw.check_csp(inst, best) is None
    off = Assignment(sigma=best.sigma, value=best.value - 1)
    assert bw.check_csp(inst, off) is not None


def test_singularity_check_applies_the_floor():
    out = {"trials": 30, "real": {"frequency": 29 / 30}}
    assert bw.check_singularity(out, 30) is None
    out["real"]["frequency"] = 28 / 30
    assert bw.check_singularity(out, 30) is not None


def _originals():
    return {(t.owner, t.attr): getattr(bench_tracing._resolve(t.owner), t.attr)
            for t in bench_tracing.TARGETS}


class _SmallRecover(bw.Recover):
    m, r, k, anchors = 700, 8, 2, 32


class _Declining(_SmallRecover):
    def job(self, inp, attempt=0):
        return RecoveredFactors(None, False, -1, failure="rank 7 < r=8")


class _DecliningOnce(_SmallRecover):
    def job(self, inp, attempt=0):
        if attempt == 0:
            return RecoveredFactors(None, False, -1, failure="rank 7 < r=8")
        return super().job(inp, attempt)


class _TooFewAnchors(_SmallRecover):
    anchors = 4


class _Buggy(_SmallRecover):
    def job(self, inp, attempt=0):
        return ssbmf.tensor_recover(inp.data["M"], "8", self.k)


def test_traced_run_records_spans_and_restores_every_name():
    before = _originals()
    tracer = bench_tracing.Tracer()
    rec = run_job(_SmallRecover(), 11, tracer)
    assert rec.failure is None and rec.traced_s > 0 and rec.job_s > 0
    assert _originals() == before
    assert all(before[k] is v for k, v in _originals().items())
    names = {sp.name for sp in tracer.spans}
    assert {"setup", "job", "instance.gen", "instance.gram", "jennrich.recover",
            "tensor.build", "jennrich.extend", "mu.union_block",
            "instance.verify"} <= names
    metrics = bench_tracing.layer_metrics(tracer, 1)
    assert metrics["jennrich.extend_rows"]["value"] == 700 - 32
    assert metrics["tensor.build_slices"]["value"] == 32


def test_wrappers_are_removed_when_the_job_raises():
    before = _originals()
    tracer = bench_tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert ssbmf.jennrich.union_block is not before[("ssbmf.jennrich", "union_block")]
            raise RuntimeError("boom")
    assert all(before[k] is v for k, v in _originals().items())


def test_missing_name_makes_its_metrics_absent():
    targets = bench_tracing.TARGETS + (
        bench_tracing.Target("ssbmf.jennrich", "no_such_kernel", "mu.union_block"),)
    tracer = bench_tracing.Tracer(targets)
    assert tracer.missing == ["ssbmf.jennrich.no_such_kernel"]
    with tracer.installed():
        ssbmf.gen_selection_matrix(20, 6, 2, seed=1)
    metrics = bench_tracing.layer_metrics(tracer, 1)
    assert "mu.union_block_s" not in metrics and "instance.gen_s" in metrics


def test_job_seeds_are_wide_reproducible_and_give_distinct_instances():
    first = [s for s, _ in zip(bw.job_seeds(1), range(4))]
    assert first == [s for s, _ in zip(bw.job_seeds(1), range(4))]
    assert len(set(first)) == 4 and all(0 <= s < 1 << 63 for s in first)
    assert max(first) >= 1 << 32
    keys = {bw.instance_key(ssbmf.gen_selection_matrix(300, 8, 2, s)) for s in first}
    assert len(keys) == 4


def test_tail_has_ten_jobs_beyond_it():
    values = list(range(25))
    assert tail(values) == (14, 15)
    assert tail([3.0, 1.0, 2.0, 5.0, 4.0]) == (3.0, 3)
