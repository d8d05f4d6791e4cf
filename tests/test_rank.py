"""Partition/restriction matrices, exact and approximate rank, experiments."""

from __future__ import annotations

import math
import time
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import compress
from operator import xor

import numpy as np
import pytest

from statetrees.builders import build_cat, build_cluster1d, build_hamming, build_parity_fourier
from statetrees import rank as rank_module
from statetrees.codes import VandermondeParams, build_binary_vandermonde
from statetrees.errors import OversizeError
from statetrees.gf2 import (BitMatrix, Coset, _echelon, from_numpy, invertibility_product,
                            random_bitmatrix, rank_gf2, solve, to_numpy)
from statetrees.rank import (_SUBSET_SUM_MAX_WORK, Partition, _coverage, _gf2_ranks, _reshape_rank, _split_ranks,
                             chi_max,
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
    split = _split_ranks(c.a.columns(), c.b ^ c.a.mul_vec(x_fixed),
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
            cols = a.columns()
            both += (len(_echelon([cols[v - 1] for v in p.y_vars])) == half
                     and len(_echelon([cols[v - 1] for v in p.z_vars])) == half)
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


def _words(rows: list[int], width: int) -> np.ndarray:
    """Packed rows as _gf2_ranks reads them: bit i in word i // 64 at bit i % 64."""
    words = -(-width // 64)
    return np.array([[r >> 64 * w & (1 << 64) - 1 for w in range(words)] for r in rows], dtype=np.uint64)


def test_stacked_gf2_ranks_equal_rank_gf2_per_matrix():
    # full-rank, deficient and zero matrices of one to three words, square (c = 0) and tall
    for width in (1, 12, 63, 64, 65, 128, 129, 200):
        for extra in (0, 3):
            r = width + extra if width < 100 else width // 2
            rng = stream(6060, 10 * width + extra)
            mats = []
            for t in range(9):  # rows from a random basis of 1 + t width / 9 rows; t = 8 all zero
                basis = [int.from_bytes(rng.bytes(32), "big") % (1 << width) for _ in range(1 + t * width // 9)]
                picks = rng.integers(0, 2, size=(r, len(basis))).tolist()
                mats.append([reduce(xor, compress(basis, pick), 0) if t < 8 else 0 for pick in picks])
            stack = np.stack([_words(rows, width) for rows in mats])
            want = [rank_gf2(BitMatrix(r, width, tuple(int(x) for x in rows))) for rows in mats]
            assert _gf2_ranks(stack, width).tolist() == want, (width, extra)
            assert len(set(want)) > min(2, width), (width, extra)


def test_vandermonde_experiment_equals_one_rank_gf2_per_trial(monkeypatch):
    # kd = 12, 64, 65 and 132, c = 0 and c > 0, and stacks of 3 trials over
    # 10: the last stack is partial
    for params in (VandermondeParams(15, 3, 4, 0), VandermondeParams(9, 8, 8, 0), VandermondeParams(9, 8, 8, 2),
                   VandermondeParams(14, 13, 5, 0), VandermondeParams(14, 13, 5, 1), VandermondeParams(23, 22, 6, 0)):
        vbin = build_binary_vandermonde(params)
        kd = params.k * params.d
        full = 0
        for t in range(10):
            rows = stream(70, t).choice(vbin.k, size=kd + params.c, replace=False)
            full += rank_gf2(BitMatrix(len(rows), kd, tuple(vbin.rows[i] for i in rows))) == kd
        want = vandermonde_rank_experiment(params, 10, 70)
        assert want["full_rank_fraction"] == full / 10, params
        monkeypatch.setattr(rank_module, "_STACK_WORDS", 3 * (kd + params.c) * -(-kd // 64))
        assert vandermonde_rank_experiment(params, 10, 70) == want, params
        monkeypatch.undo()


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
    # but each trial lists all n variables: past 2^14 of them it is refused
    with pytest.raises(OversizeError, match="capped at n <= 16384 variables, got n=16385"):
        erasure_recoverability_check(Coset(BitMatrix(0, 16385, ()), 0), 1, 1, 0)


def _reference_split_ranks(a: BitMatrix, b: int, y: list[int], z: list[int]):
    """_split_ranks from row-packed column submatrices, solve and rank_gf2."""
    if not y:
        return (0, 0, 0) if b == 0 else None
    ay, az, ayz = (from_numpy(to_numpy(a)[:, cols]) for cols in (y, z, y + z))
    if solve(ayz, b) is None:
        return None
    return rank_gf2(ay), rank_gf2(az), rank_gf2(ayz)


def test_split_ranks_match_submatrix_elimination():
    outcomes = Counter()
    for t in range(3000):
        rng = stream(8181, t)
        n = int(rng.integers(1, 15))
        k = int(rng.integers(0, n + 2))
        a = random_bitmatrix(k, n, 8181, t)
        l = int(rng.integers(0, n // 2 + 1))
        perm = [int(j) for j in rng.permutation(n)]
        y, z = perm[:l], perm[l:2 * l]
        # a right-hand side in the column space half the time, any k bits otherwise
        b = a.mul_vec(int(rng.integers(0, 1 << n))) if t % 2 else int(rng.integers(0, 1 << k))
        want = _reference_split_ranks(a, b, y, z)
        assert _split_ranks(a.columns(), b, y, z) == want, (t, a, b, y, z)
        outcomes[want is None, not y, k == 0] += 1
    assert all(outcomes[key] for key in [(False, False, False), (True, False, False),
                                         (False, True, False), (True, True, False),
                                         (False, False, True), (False, True, True)]), outcomes


def _chi_every_split(v: np.ndarray, mode: str, seed: int = 0, samples: int = 200) -> int:
    """Max of _reshape_rank over every split the mode names: all of them, or
    the sampled ones drawn as chi_max draws them."""
    n = int(np.log2(len(v)))
    if n == 1:
        return 1
    if mode == "exhaustive" or (mode == "auto" and n <= 12):
        return max(_reshape_rank(v, n, amask) for amask in range(1, (1 << n) - 1))
    rng = stream(seed)
    best = 1
    for _ in range(samples):
        amask = 1 | sum(int(bit) << (j + 1) for j, bit in enumerate(rng.integers(0, 2, size=n - 1)))
        if amask == (1 << n) - 1:
            amask ^= 1 << (n - 1)
        best = max(best, _reshape_rank(v, n, amask))
    return best


def test_chi_equals_the_max_over_every_split_in_every_mode():
    states = []
    for n in range(1, 11):
        rng = stream(8282, n)
        dense = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        sparse = np.zeros(1 << n)
        sparse[rng.choice(1 << n, size=min(1 << n, 2 + n % 4), replace=False)] = 1.0
        states += [dense, sparse]
        if n > 2:  # a product of two dense factors: no split ranks past the cut
            states.append(np.kron(dense[:1 << (n // 2)], dense[:1 << (n - n // 2)]))
    states += [evaluate(t) for t in (build_cat(7), build_cluster1d(8), build_parity_fourier(6, 1),
                                     build_hamming(8, 2))]
    for v in states:
        for mode in ("auto", "exhaustive", "sampled"):
            for seed, samples in ((0, 200), (5, 7)):
                assert chi_max(v, mode, seed, samples) == _chi_every_split(v, mode, seed, samples), (len(v), mode)


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


def test_subset_sum_refuses_work_past_the_budget_before_the_first_trial():
    assert _SUBSET_SUM_MAX_WORK == 1 << 20
    # 1024 trials of 2^10 residues each: exactly the budget, so it runs
    rep = subset_sum_coverage(16, 10, 1000000007, 0.2, 1024, 0)
    assert rep["coverage_min"] == rep["coverage_max"] == 1 << 10
    t = time.perf_counter()
    for m, p, trials in ((10, 1000000007, 1025), (20, 1000000007, 2), (21, 1000000007, 1),
                         (8, 101, 10382)):  # 10382 * 101 is just past 2^20
        with pytest.raises(OversizeError, match=rf"= {trials * min(1 << m, p)} exceeds the cap 2\^20"):
            subset_sum_coverage(24, m, p, 0.2, trials, 0)
    assert time.perf_counter() - t < 0.1
    with pytest.raises(ValueError, match="need 0 <= m <= n"):
        subset_sum_coverage(16, -1, 101, 0.2, 1, 0)


def test_subset_sum_coverage_equals_naive_on_both_sides_of_p_equal_2_to_the_m():
    # p <= 2^m reads the residues off a p-bit int, p > 2^m off the set engine
    for n, m, p in [(8, 3, 7), (8, 3, 11), (10, 4, 13), (10, 4, 17), (12, 5, 31), (12, 5, 37), (16, 7, 127),
                    (16, 7, 131), (12, 12, 4093), (6, 0, 2), (6, 0, 3), (6, 1, 2), (6, 1, 3), (6, 3, 2), (1, 1, 2)]:
        for t in range(6):
            places = stream(56, 100 * m + t).choice(n, size=m, replace=False).tolist()
            naive = {sum(1 << places[i] for i in range(m) if mask >> i & 1) % p for mask in range(1 << m)}
            assert _coverage(places, p) == len(naive), (n, m, p, places)


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
