"""Partition/restriction matrices, exact and approximate rank, experiments."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from statetrees.builders import build_cat
from statetrees.codes import VandermondeParams
from statetrees.gf2 import (BitMatrix, Coset, from_numpy, invertibility_product,
                            random_bitmatrix, rank_gf2)
from statetrees.rank import (Partition, _reshape_rank, _split_ranks, chi_max,
                             erasure_recoverability_check, partition_matrix,
                             random_partition, random_restriction,
                             rank_eps_lower_bound, rank_exact,
                             restriction_matrix, subgroup_rank_experiment,
                             subset_sum_coverage, subset_sums_mod_p,
                             vandermonde_rank_experiment)
from statetrees.rng import stream
from statetrees.trees import evaluate


def fraction_rank(m) -> int:
    """Independent plain Gaussian elimination over Q."""
    rows = [[Fraction(int(x)) for x in row] for row in m]
    nr, nc = len(rows), len(rows[0])
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


# ---------------------------------------------------------------------------
# dense reference for coset indicators: the 2^n table, sliced and ranked
# through its disjoint-or-equal rows


def coset_table(c: Coset) -> np.ndarray:
    """Indicator of {x : Ax = b} as a length-2^n 0/1 table."""
    xs = np.arange(1 << c.n, dtype=np.int64)
    table = np.ones(1 << c.n, dtype=np.int8)
    for i, r in enumerate(c.a.rows):
        want = (c.b >> (c.a.k - 1 - i)) & 1
        table &= (np.bitwise_count(xs & r) & 1) == want
    return table


def rank_disjoint_rows(m: np.ndarray) -> int:
    """Rank of a 0/1 matrix whose nonzero rows are pairwise equal or
    support-disjoint; the structure is asserted, not assumed."""
    nz = m[np.any(m != 0, axis=1)]
    if len(nz) == 0:
        return 0
    uniq = np.unique(nz, axis=0)
    assert int((uniq != 0).sum(axis=0).max()) == 1
    return len(uniq)


def dense_rank_and_multirow(table: np.ndarray, r) -> tuple[int, int]:
    """Rank of the restriction matrix and its rows with >= 2 nonzero entries."""
    m = restriction_matrix(table, r)
    return rank_disjoint_rows(m), int(np.sum((m != 0).sum(axis=1) >= 2))


def closed_form_rank_and_multirow(c: Coset, r) -> tuple[int, int]:
    x_fixed = sum(bit << (c.n - v) for v, bit in r.fixed)
    split = _split_ranks(c.a, c.b ^ c.a.mul_vec(x_fixed),
                         [v - 1 for v in r.y_vars], [v - 1 for v in r.z_vars])
    if split is None:
        return 0, 0
    r_y, r_z, r_yz = split
    l = len(r.y_vars)
    rank = 2 ** (r_y + r_z - r_yz)
    return rank, (rank * 2 ** (l - r_y) if r_z < l else 0)


def random_coset(rng, n: int, k: int, seed: int, index: int) -> Coset:
    a = random_bitmatrix(k, n, seed, index)
    return Coset(a, a.mul_vec(int(rng.integers(0, 1 << n))))


def test_random_partition_uniform_and_deterministic():
    counts = {0: 0, 1: 0}
    for t in range(10_000):
        p = random_partition(2, 5, t)
        counts[0 if p.y_vars == (1,) else 1] += 1
    assert abs(counts[0] / 10_000 - 0.5) < 0.05
    assert random_partition(8, 3, 7) == random_partition(8, 3, 7)
    assert random_restriction(8, 2, 3, 7) == random_restriction(8, 2, 3, 7)


def test_restriction_with_l_half_is_a_partition():
    r = random_restriction(6, 3, 11)
    assert r.fixed == ()
    table = stream(0).normal(size=64)
    p = Partition(r.y_vars, r.z_vars)
    assert np.array_equal(partition_matrix(table, p), restriction_matrix(table, r))


def test_partition_matrix_cat_and_parity():
    cat = np.zeros(4, dtype=np.int64)
    cat[0] = cat[3] = 1
    m = partition_matrix(cat, Partition((1,), (2,)))
    assert np.array_equal(m, np.eye(2, dtype=np.int64))
    par = np.array([1 if bin(x).count("1") % 2 == 0 else 0 for x in range(16)],
                   dtype=np.int64)
    m = partition_matrix(par, Partition((1, 2), (3, 4)))
    assert fraction_rank(m) == 2


def test_rank_exact_basics_and_oracle():
    assert rank_exact(np.eye(8, dtype=np.int64)) == 8
    assert rank_exact(np.ones((6, 6), dtype=np.int64)) == 1
    rng = stream(5)
    for _ in range(3):
        m = rng.integers(0, 2, size=(64, 64))
        assert rank_exact(m) == fraction_rank(m)
        assert rank_exact(m) == rank_exact(m.T)


def test_rank_exact_float_paths():
    assert rank_exact(np.array([[0.5, 0.25], [1.0, 0.5]])) == 1
    assert rank_exact(np.array([[0.5, 0.25], [1.0, 0.75]])) == 2
    # irrational-derived doubles take the SVD fallback
    r2 = 2**-0.5
    assert rank_exact(np.array([[r2, r2], [r2, r2]])) == 1
    assert rank_exact(np.array([[r2, 0], [0, r2]], dtype=complex) * 1j) == 2


def test_rank_eps_permutation_identity():
    for n_side in (16, 64, 256):
        perm = stream(9).permutation(n_side)
        m = np.zeros((n_side, n_side))
        m[np.arange(n_side), perm] = 1 / math.sqrt(n_side)
        for eps in (0.0, 0.25, 0.5):
            assert rank_eps_lower_bound(m, eps) == math.ceil((1 - eps) * n_side)


def test_rank_eps_diagonal_and_monotone():
    sv = np.array([3.0, 2.0, 1.0, 0.5])
    q1, _ = np.linalg.qr(stream(3).normal(size=(4, 4)))
    q2, _ = np.linalg.qr(stream(4).normal(size=(4, 4)))
    m = q1 @ np.diag(sv) @ q2
    # squared tail after keeping 2: 1 + 0.25
    assert rank_eps_lower_bound(m, 1.3) == 2
    assert rank_eps_lower_bound(m, 0.0) == 4
    vals = [rank_eps_lower_bound(m, float(e)) for e in np.linspace(0, 15, 40)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    exact = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1], [2, 1, 1]], dtype=float)
    assert rank_eps_lower_bound(exact, 0) == fraction_rank(exact)


def test_subgroup_experiment_small():
    rep = subgroup_rank_experiment(8, 400, 17)
    assert rep["permutation_mismatch"] == 0
    assert rep["permutation_confirmed"] == round(rep["both_invertible_fraction"] * 400)
    assert abs(rep["both_invertible_fraction"] - invertibility_product(4) ** 2) < 0.06
    assert rep["full_rank_fraction"] >= rep["both_invertible_fraction"]
    assert rep == subgroup_rank_experiment(8, 400, 17)
    assert rep == {"n": 8, "trials": 400, "seed": 17, "both_invertible_fraction": 0.08,
                   "expected_both_invertible": 0.09462833404541016,
                   "full_rank_fraction": 0.08, "permutation_confirmed": 32,
                   "permutation_mismatch": 0}


def test_subgroup_experiment_matches_dense_oracle():
    for n in (2, 4, 6, 8, 10):
        half, trials, seed = n // 2, 80, 40 + n
        both = full = 0
        for t in range(trials):
            rng = stream(seed, t)
            a = from_numpy(rng.integers(0, 2, size=(half, n)))
            perm = rng.permutation(n) + 1
            p = Partition(tuple(sorted(int(v) for v in perm[:half])),
                          tuple(sorted(int(v) for v in perm[half:])))
            m = partition_matrix(coset_table(Coset(a, 0)), p)
            full += rank_disjoint_rows(m) == 1 << half
            both += (rank_gf2(a.column_submatrix([v - 1 for v in p.y_vars])) == half
                     and rank_gf2(a.column_submatrix([v - 1 for v in p.z_vars])) == half)
        rep = subgroup_rank_experiment(n, trials, seed)
        assert rep["full_rank_fraction"] == full / trials
        assert rep["both_invertible_fraction"] == both / trials
        assert rep["permutation_confirmed"] == both


def test_vandermonde_experiment():
    rep = vandermonde_rank_experiment(VandermondeParams(15, 3, 4, 8), 300, 7)
    assert rep["full_rank_fraction"] >= 2 / 3
    # c = 0 edge: square submatrices, report only
    rep0 = vandermonde_rank_experiment(VandermondeParams(15, 3, 4, 0), 100, 7)
    assert 0.0 <= rep0["full_rank_fraction"] <= 1.0
    assert rep["full_rank_fraction"] >= rep["union_bound"] - 0.1
    # measured fraction grows with the slack c
    fracs = [vandermonde_rank_experiment(VandermondeParams(15, 3, 4, c), 300, 7)
             ["full_rank_fraction"] for c in (2, 4, 8, 16)]
    assert all(a <= b + 0.02 for a, b in zip(fracs, fracs[1:]))


def test_erasure_cases():
    single = Coset(BitMatrix(4, 4, (0b1000, 0b0100, 0b0010, 0b0001)), 0b0110)
    rep = erasure_recoverability_check(single, 2, 20, 5)
    assert rep["rank_max"] <= 1
    assert rep["nonrecoverable_fraction"] == 0.0
    full = Coset(BitMatrix(0, 6, ()), 0)
    rep = erasure_recoverability_check(full, 2, 20, 5)
    assert rep["rank_min"] == rep["rank_max"] == 1
    assert rep["nonrecoverable_fraction"] == 1.0
    sub = Coset(BitMatrix(4, 8, (0b11000000, 0b00110000, 0b00001100, 0b00000011)), 0)
    rep = erasure_recoverability_check(sub, 3, 40, 5)
    # a fixing can contradict a pair constraint, zeroing the whole slice
    assert 0 <= rep["rank_min"] <= rep["rank_max"] <= 8
    assert rep == erasure_recoverability_check(sub, 3, 40, 5)
    assert rep == {"n": 8, "l": 3, "trials": 40, "seed": 5, "rank_min": 0,
                   "rank_median": 2.0, "rank_max": 4, "threshold": 5.375498890131907,
                   "prob_rank_ge_threshold": 0.0, "nonrecoverable_rows_mean": 0.8,
                   "nonrecoverable_fraction": 0.35}


def test_closed_form_matches_dense_oracle():
    seen = Counter()
    for t in range(500):
        rng = stream(808, t)
        n = int(rng.integers(1, 13))
        k = int(rng.integers(0, n + 1))
        l = int(rng.integers(0, n // 2 + 1))
        c = random_coset(rng, n, k, 809, t)
        table = coset_table(c)
        for j in range(3):
            r = random_restriction(n, l, 810 + j, t)
            rank, multirow = dense_rank_and_multirow(table, r)
            assert closed_form_rank_and_multirow(c, r) == (rank, multirow), (n, k, l, t, j)
            seen["inconsistent"] += rank == 0
            seen["partition"] += 2 * l == n
            seen["l=0"] += l == 0
            seen["k=0"] += k == 0
            seen["multirow"] += multirow > 0
            seen["rank>1"] += rank > 1
    assert min(seen.values()) >= 20, seen


def test_dense_oracle_agrees_with_exact_rank():
    for t in range(40):
        rng = stream(811, t)
        n = int(rng.integers(2, 9))
        c = random_coset(rng, n, int(rng.integers(0, n + 1)), 812, t)
        m = restriction_matrix(coset_table(c), random_restriction(n, n // 2, 813, t))
        assert rank_disjoint_rows(m) == fraction_rank(m)


def test_erasure_report_matches_dense_oracle():
    for t in range(16):
        rng = stream(814, t)
        n = int(rng.integers(2, 13))
        l = int(rng.integers(0, n // 2 + 1))
        c = random_coset(rng, n, int(rng.integers(0, n + 1)), 815, t)
        table = coset_table(c)
        dense = [dense_rank_and_multirow(table, random_restriction(n, l, t, i))
                 for i in range(25)]
        ranks = np.array([d[0] for d in dense])
        multi = np.array([d[1] for d in dense])
        rep = erasure_recoverability_check(c, l, 25, t)
        assert (rep["rank_min"], rep["rank_median"], rep["rank_max"]) == (
            ranks.min(), np.median(ranks), ranks.max())
        assert rep["prob_rank_ge_threshold"] == np.mean(ranks >= rep["threshold"])
        assert rep["nonrecoverable_rows_mean"] == multi.mean()
        assert rep["nonrecoverable_fraction"] == np.mean(multi > 0)


def test_erasure_needs_no_dense_table():
    # 2^40 points: the closed form needs only the 6 x 40 matrix
    a = random_bitmatrix(6, 40, 816)
    rep = erasure_recoverability_check(Coset(a, a.mul_vec(12345)), 8, 30, 3)
    assert 0 <= rep["rank_min"] <= rep["rank_max"] <= 1 << 6


def test_chi_values():
    prod = np.zeros(16, dtype=complex)
    prod[5] = 1
    assert chi_max(prod) == 1
    assert chi_max(evaluate(build_cat(4))) == 2
    assert chi_max(evaluate(build_cat(8))) == 2
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 2**-0.5
    assert chi_max(np.kron(bell, bell)) == 4
    assert chi_max(np.kron(bell, bell), mode="sampled", samples=64) == 4
    # submultiplicative on products (sanity)
    v = evaluate(build_cat(3))
    assert chi_max(np.kron(v, v)) <= chi_max(v) * chi_max(v)


def test_chi_exhaustive_visits_every_bipartition():
    # qubits 1 and 5 together: the split {1,2,5}|{3,4} has Schmidt rank 4
    v = np.zeros(32)
    v[[0b00000, 0b00011, 0b01100, 0b10110]] = 0.5
    assert _reshape_rank(v, 5, 0b10011) == 4
    assert chi_max(v, "exhaustive") == 4
    for t in range(400):
        n = 3 + t % 4
        rng = stream(817, t)
        support = rng.choice(1 << n, size=2 + t % 5, replace=False)
        v = np.zeros(1 << n)
        v[support] = rng.normal(size=len(support))
        every = max(_reshape_rank(v, n, mask) for mask in range(1, (1 << n) - 1))
        assert chi_max(v, "exhaustive") == every, (n, t)


def test_subset_sum_coverage():
    assert subset_sums_mod_p([0], 2) == {0, 1}
    rep = subset_sum_coverage(16, 8, 101, 0.2, 100, 99)
    assert 0 <= rep["prob_coverage_ge_target"] <= 1
    assert rep == subset_sum_coverage(16, 8, 101, 0.2, 100, 99)
    with pytest.raises(ValueError):
        subset_sum_coverage(16, 8, 100, 0.2, 10, 0)  # composite p


def test_subset_sum_incremental_equals_naive():
    for n, m, p in [(10, 6, 13), (12, 9, 31), (12, 12, 97), (8, 5, 2)]:
        for t in range(4):
            rng = stream(55, t)
            places = sorted(int(a) for a in rng.choice(n, size=m, replace=False))
            naive = set()
            for mask in range(1 << m):
                s = sum(1 << places[i] for i in range(m) if (mask >> i) & 1)
                naive.add(s % p)
            assert subset_sums_mod_p(places, p) == naive
