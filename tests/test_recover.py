import itertools
import math

import numpy as np
import pytest

from ssbmf import (Dataset, ParameterError, RecoverConfig,
                   SyntheticDataset, expected_square_inner, gen_instahide,
                   gen_selection_matrix, get_heavy_coordinates, gram,
                   recover_dataset)
from ssbmf.errors import RankDeficiencyError
from ssbmf.instance import split_seed
from ssbmf.recover import solve_exact


def esp_by_enumeration(p, r, k):
    """Oracle: average <e_S, p>^2 over all C(r, k) subsets."""
    total = 0.0
    count = 0
    for sup in itertools.combinations(range(r), k):
        total += sum(p[j] for j in sup) ** 2
        count += 1
    return total / count


def test_dataset_validation():
    with pytest.raises(ParameterError):
        Dataset(X=np.array([[1.0, np.inf]]))
    d = Dataset(X=np.arange(6.0).reshape(3, 2))
    assert (d.r, d.d) == (3, 2)


def test_synthetic_validation():
    with pytest.raises(ParameterError):
        SyntheticDataset(Z=np.array([[-1.0]]))
    with pytest.raises(TypeError):
        SyntheticDataset(Z=np.array([[3.0], [3.0]]), Y=np.array([[-3.0]]))
    SyntheticDataset(Z=np.array([[3.0]]))


def test_gen_instahide_shapes_and_consistency():
    rng = np.random.Generator(np.random.Philox(key=1))
    X = Dataset(X=rng.normal(size=(10, 3)))
    syn, M = gen_instahide(X, m=25, k=2, seed=4)
    assert syn.Z.shape == (25, 3)
    assert np.all(syn.Z >= 0)
    assert np.allclose(syn.Z, np.abs(syn.W.dense() @ X.X))
    assert M.m == 25 and np.array_equal(gram(syn.W).bits, M.bits)


def test_gen_instahide_requires_k_at_least_2():
    X = Dataset(X=np.zeros((5, 2)))
    with pytest.raises(ParameterError):
        gen_instahide(X, m=4, k=1, seed=0)


def test_expected_square_inner_matches_enumeration():
    rng = np.random.Generator(np.random.Philox(key=2))
    for r in (3, 5, 8):
        for k in range(1, r + 1):
            p = rng.normal(size=r)
            got = expected_square_inner(p, r, k)
            assert got == pytest.approx(esp_by_enumeration(p, r, k), abs=1e-12)


def test_expected_square_inner_closed_cases():
    # k = r: <e_S, p> is the full sum
    p = np.array([1.0, -2.0, 0.5])
    assert expected_square_inner(p, 3, 3) == pytest.approx(p.sum() ** 2)
    # k = 1: average of squares
    assert expected_square_inner(p, 3, 1) == pytest.approx(np.mean(p ** 2))


def test_expected_square_inner_monte_carlo():
    r, k = 50, 4
    rng = np.random.Generator(np.random.Philox(key=3))
    p = rng.normal(size=r)
    n = 20000
    vals = p[gen_selection_matrix(n, r, k, seed=3).support].sum(axis=1) ** 2
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - expected_square_inner(p, r, k)) <= 5 * se


def test_heavy_estimator_zero_input():
    W = gen_selection_matrix(200, 20, 3, seed=1)
    est = get_heavy_coordinates(W, np.zeros(200))
    assert np.array_equal(est, np.zeros(20))


def test_heavy_estimator_preconditions():
    W = gen_selection_matrix(10, 5, 3, seed=0)  # r < 2k
    with pytest.raises(ParameterError):
        get_heavy_coordinates(W, np.zeros(10))
    W = gen_selection_matrix(10, 20, 3, seed=0)
    with pytest.raises(ParameterError):
        get_heavy_coordinates(W, -np.ones(10))
    with pytest.raises(ParameterError):
        get_heavy_coordinates(W, np.zeros(9))


def test_heavy_estimator_population_value():
    # population-exact input (every k-subset once) with p summing to zero:
    # a direct expansion of the second moments gives
    #   q_hat_j = p_j^2 * (r-k)(r-2k) / ((r-2)(r-2k+1))
    # so the estimate is |p_j| times a known constant close to 1
    r, k = 8, 2
    sups = list(itertools.combinations(range(r), k))
    from ssbmf.instance import SelectionMatrix
    W = SelectionMatrix(m=len(sups), r=r, k=k, rows=tuple(sups))
    rng = np.random.Generator(np.random.Philox(key=5))
    p = rng.normal(size=r)
    p -= p.mean()
    z = np.abs(W.dense().astype(float) @ p)
    est = get_heavy_coordinates(W, z)
    factor = math.sqrt((r - k) * (r - 2 * k) / ((r - 2) * (r - 2 * k + 1)))
    assert np.allclose(est, factor * np.abs(p), atol=1e-10)


def test_heavy_estimator_matrix_input_matches_columns():
    W = gen_selection_matrix(500, 20, 3, seed=2)
    rng = np.random.Generator(np.random.Philox(key=10))
    Z = np.abs(W.dense().astype(float) @ rng.normal(size=(20, 6)))
    est = get_heavy_coordinates(W, Z)
    assert est.shape == (20, 6)
    for j in range(6):
        assert np.allclose(est[:, j], get_heavy_coordinates(W, Z[:, j]),
                           rtol=1e-12, atol=0)
    with pytest.raises(ParameterError):
        get_heavy_coordinates(W, Z[:-1])


def test_heavy_estimator_scale_equivariant():
    W = gen_selection_matrix(500, 20, 3, seed=2)
    rng = np.random.Generator(np.random.Philox(key=6))
    p = rng.normal(size=20)
    z = np.abs(W.dense().astype(float) @ p)
    a = get_heavy_coordinates(W, z)
    b = get_heavy_coordinates(W, 3.0 * z)
    assert np.allclose(b, 3.0 * a)


def test_heavy_estimator_planted_spike():
    # one dominant coordinate among small noise is located and sized
    r, k, m = 50, 4, 6000
    rng = np.random.Generator(np.random.Philox(key=7))
    p = rng.normal(size=r) * 0.05
    p[17] = 1.0
    W = gen_selection_matrix(m, r, k, seed=9)
    z = np.abs(W.dense().astype(float) @ p)
    est = get_heavy_coordinates(W, z)
    assert int(np.argmax(est)) == 17
    assert est[17] == pytest.approx(1.0, rel=0.25)


def test_recover_dataset_end_to_end():
    r, k, d = 8, 2, 3
    rng = np.random.Generator(np.random.Philox(key=8))
    X = rng.normal(size=(r, d)) * 0.05
    for j in range(d):
        X[2 * j, j] = 1.0
    m = 3905
    syn, M = gen_instahide(Dataset(X=X), m=m, k=k, seed=11)
    dataset, report = recover_dataset(
        M, syn, r, k, recover_config=RecoverConfig(anchors=40, seed=11))
    assert report["success"]
    # recovered W may be column-permuted; compare sorted magnitude estimates
    for j in range(d):
        got = np.sort(dataset.X[:, j])
        want = np.sort(np.abs(X[:, j]))
        assert got[-1] == pytest.approx(want[-1], rel=0.25)
    assert sorted(report) == ["factorization", "success"]


@pytest.mark.parametrize("c_heavy", [0, -1.0, float("nan")])
def test_recover_dataset_rejects_c_heavy_before_any_recovery(c_heavy, monkeypatch):
    # The heavy mask and its threshold c_heavy are retired: any c_heavy,
    # the once-rejected values included, is an unknown keyword.
    calls = []
    monkeypatch.setattr("ssbmf.recover.tensor_recover", lambda *args: calls.append(args))
    W = gen_selection_matrix(30, 8, 2, seed=1)
    syn = SyntheticDataset(Z=np.ones((30, 2)))
    with pytest.raises(TypeError, match="c_heavy"):
        recover_dataset(gram(W), syn, 8, 2, c_heavy=c_heavy)
    assert calls == []


def test_recover_dataset_failure_passthrough():
    from ssbmf.instance import GramMatrix
    m = 64
    M = GramMatrix.from_json({"m": m, "hex_rows": [format((1 << m) - 1, "x")] * m})
    syn = SyntheticDataset(Z=np.zeros((m, 2)))
    dataset, report = recover_dataset(M, syn, 8, 2,
                                      recover_config=RecoverConfig(anchors=m))
    assert dataset is None and not report["success"]
    assert sorted(report) == ["factorization", "failure", "success"]


def test_solve_exact_recovers_planted():
    r, m, d = 16, 64, 5
    rng = np.random.Generator(np.random.Philox(key=9))
    X = rng.normal(size=(r, d))
    W = gen_selection_matrix(m, r, 3, seed=13)
    Y = W.dense().astype(float) @ X
    out = solve_exact(W, Y)
    assert np.max(np.abs(out.X - X)) <= 1e-9


def test_solve_exact_rank_deficient():
    from ssbmf.instance import SelectionMatrix
    rows = tuple((0, 1) for _ in range(6))
    W = SelectionMatrix(m=6, r=4, k=2, rows=rows)
    with pytest.raises(RankDeficiencyError):
        solve_exact(W, np.zeros(6))


def test_dataset_csv_roundtrip(tmp_path):
    d = Dataset(X=np.array([[0.1, -2.5], [3.25, 0.0]]))
    path = tmp_path / "x.csv"
    d.to_csv(path)
    back = np.loadtxt(path, delimiter=",")
    assert np.array_equal(back, d.X)
