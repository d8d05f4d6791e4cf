"""Partition/restriction machinery and matrix-rank experiments.

A function f on n bits is stored as its dense table (length 2^n,
variable 1 = most significant bit).  A partition relabels the inputs
into two equal halves y and z, and M[y, z] = f at the assembled input;
a restriction additionally fixes the leftover variables to constants.
The rank of these matrices, exactly or after an epsilon-perturbation,
is what the experiments measure.

The coset experiments rank no matrix; they use a closed form over
GF(2), the coset case of Raz's partition rank.  Split the indicator of
{x : Ax = b} into l columns y and l columns z, the rest fixed to x_F,
and put b' = b + A x_F.  Row y of M is nonzero iff A_y y lies in
b' + col(A_z); two nonzero rows are equal when A_y y agrees and
support-disjoint otherwise.  So M is zero when [A_y A_z] x = b' has no
solution, and otherwise has rank 2^(r(A_y) + r(A_z) - r([A_y A_z])),
each distinct row repeated 2^(l - r(A_y)) times and holding
2^(l - r(A_z)) ones.

No experiment calls `rank_exact`; it stays because the benchmark
(`perfbench/spans.py`) traces it by name.
Integer matrices are ranked over the rationals by fraction-free
(Bareiss) elimination.  Float matrices are reconstructed as small dyadic
rationals when possible and eliminated modulo the Mersenne prime
2^61 - 1; entries that reconstruct to huge dyadics (irrational-derived
doubles) or carry nonzero imaginary parts fall back to singular-value
thresholding at 1e-9, which is then a numerical rather than exact answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import VandermondeParams, build_binary_vandermonde
from .errors import OversizeError
from .gf2 import (BitMatrix, Coset, from_numpy, invertibility_product,
                  rank_gf2, solve)
from .rng import stream

_MERSENNE61 = (1 << 61) - 1
_EPS_RANK_MAX_SIDE = 1024  # widest matrix rank_eps_lower_bound takes an SVD of
_CHI_MAX_QUBITS = 16  # widest state chi_max reads
_SUBSET_SUM_MAX_P = 1 << 40  # largest p _is_prime tries: about 0.06 s on a 2-vCPU VM


@dataclass(frozen=True)
class Partition:
    y_vars: tuple[int, ...]
    z_vars: tuple[int, ...]

    def __post_init__(self):
        if len(self.y_vars) != len(self.z_vars):
            raise ValueError("halves must be the same size")
        if set(self.y_vars) & set(self.z_vars):
            raise ValueError("halves overlap")


@dataclass(frozen=True)
class Restriction:
    y_vars: tuple[int, ...]
    z_vars: tuple[int, ...]
    fixed: tuple[tuple[int, int], ...]  # (variable, bit)

    def __post_init__(self):
        if len(self.y_vars) != len(self.z_vars):
            raise ValueError("halves must be the same size")
        names = [v for v, _ in self.fixed] + list(self.y_vars) + list(self.z_vars)
        if len(set(names)) != len(names):
            raise ValueError("variables repeat across y, z, fixed")


def random_partition(n: int, seed: int, index: int = 0) -> Partition:
    """Uniform split of {1..n} into two sorted halves."""
    if n % 2:
        raise ValueError("n must be even")
    perm = stream(seed, index).permutation(n) + 1
    half = n // 2
    return Partition(tuple(sorted(int(v) for v in perm[:half])),
                     tuple(sorted(int(v) for v in perm[half:])))


def random_restriction(n: int, l: int, seed: int, index: int = 0) -> Restriction:
    """2l variables renamed into y and z, the rest fixed uniformly."""
    if 2 * l > n:
        raise ValueError("need 2l <= n")
    rng = stream(seed, index)
    perm = rng.permutation(n) + 1
    y = tuple(sorted(int(v) for v in perm[:l]))
    z = tuple(sorted(int(v) for v in perm[l:2 * l]))
    rest = [int(v) for v in perm[2 * l:]]
    bits = rng.integers(0, 2, size=len(rest))
    fixed = tuple(sorted((v, int(b)) for v, b in zip(rest, bits)))
    return Restriction(y, z, fixed)


def _index_contrib(vars_: tuple[int, ...], n: int) -> np.ndarray:
    l = len(vars_)
    idx = np.arange(1 << l)
    out = np.zeros(1 << l, dtype=np.int64)
    for j, v in enumerate(vars_):
        out += ((idx >> (l - 1 - j)) & 1) << (n - v)
    return out


def partition_matrix(f: np.ndarray, p: Partition) -> np.ndarray:
    """M[y, z] = f at the input assembled from the two index halves."""
    return _index_matrix(f, Restriction(p.y_vars, p.z_vars, ()), "partition")


def restriction_matrix(f: np.ndarray, r: Restriction) -> np.ndarray:
    return _index_matrix(f, r, "restriction")


def _index_matrix(f: np.ndarray, r: Restriction, name: str) -> np.ndarray:
    """M[y, z] = f at the input assembled from r's fixed bits and the two
    index halves; name is the kind of split, for the error text."""
    n = int(np.log2(len(f)))
    if 1 << n != len(f):
        raise ValueError("table length must be a power of 2")
    if len(r.y_vars) + len(r.z_vars) + len(r.fixed) != n:
        raise ValueError(f"{name} does not cover all variables")
    base = 0
    for v, b in r.fixed:
        base += b << (n - v)
    yc = _index_contrib(r.y_vars, n)
    zc = _index_contrib(r.z_vars, n)
    return f[base + yc[:, None] + zc[None, :]]


# ---------------------------------------------------------------------------
# exact and approximate rank


def _bareiss_rank(m: list[list[int]]) -> int:
    """Fraction-free elimination over the integers; exact rational rank."""
    rows = len(m)
    if rows == 0:
        return 0
    cols = len(m[0])
    prev = 1
    rank = 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pivval = m[r][c]
        for i in range(r + 1, rows):
            mic = m[i][c]
            row_i, row_r = m[i], m[r]
            for j in range(c, cols):
                row_i[j] = (pivval * row_i[j] - mic * row_r[j]) // prev
        prev = pivval
        rank += 1
        r += 1
        if r == rows:
            break
    return rank


def _modp_rank(m: list[list[int]], p: int = _MERSENNE61) -> int:
    rows = [[x % p for x in row] for row in m]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        row_r = rows[r]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if f:
                f = (f * inv) % p
                row_i = rows[i]
                for j in range(c, ncols):
                    row_i[j] = (row_i[j] - f * row_r[j]) % p
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


_DYADIC_LIMIT = 1 << 40


def _as_dyadic(x: float) -> tuple[int, int] | None:
    """x as (numerator, exponent) with x = num / 2^exp, refusing huge ones."""
    num, den = float(x).as_integer_ratio()
    if abs(num) > _DYADIC_LIMIT or den > _DYADIC_LIMIT:
        return None
    return num, den.bit_length() - 1


def rank_exact(m: np.ndarray, max_n: int = 4096) -> int:
    """Rank over the complex numbers, exactly where the entries allow.

    Integer matrices: fraction-free elimination over the rationals.
    Real float matrices of small dyadics: scaled to integers and
    eliminated mod 2^61 - 1.  Anything else: singular values > 1e-9.
    """
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError("rank_exact needs a matrix")
    if max(m.shape) > max_n:
        raise OversizeError(f"matrix side exceeds {max_n}")
    if m.size == 0:
        return 0
    if np.issubdtype(m.dtype, np.integer):
        return _bareiss_rank([[int(x) for x in row] for row in m])
    if np.issubdtype(m.dtype, np.complexfloating) and np.any(m.imag != 0):
        sv = np.linalg.svd(m, compute_uv=False)
        return int(np.sum(sv > 1e-9))
    real = m.real if np.issubdtype(m.dtype, np.complexfloating) else m
    dyadics = []
    max_exp = 0
    ok = True
    for row in real:
        drow = []
        for x in row:
            d = _as_dyadic(float(x))
            if d is None:
                ok = False
                break
            drow.append(d)
            max_exp = max(max_exp, d[1])
        if not ok:
            break
        dyadics.append(drow)
    if not ok:
        sv = np.linalg.svd(real, compute_uv=False)
        return int(np.sum(sv > 1e-9))
    scaled = [[num << (max_exp - e) for num, e in row] for row in dyadics]
    return _modp_rank(scaled)


def rank_eps_lower_bound(m: np.ndarray, eps: float) -> int:
    """Smallest k with sum_{i>k} sigma_i(M)^2 <= eps.

    Any matrix within squared Frobenius distance eps of M has rank at
    least this k (Hoffman-Wielandt), so the value lower-bounds the
    epsilon-approximate rank.  For a permutation of I/sqrt(N) it equals
    ceil((1-eps) N) exactly.
    """
    m = np.asarray(m, dtype=complex)
    if max(m.shape) > _EPS_RANK_MAX_SIDE:
        raise OversizeError(f"matrix side exceeds {_EPS_RANK_MAX_SIDE}")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    sv = np.linalg.svd(m, compute_uv=False)
    sq = sv**2
    total = float(sq.sum())
    slack = 1e-9 * max(1.0, total)
    tail = total
    for k in range(len(sq) + 1):
        if tail <= eps + slack:
            return k
        tail -= float(sq[k])
    return len(sq)


# ---------------------------------------------------------------------------
# coset indicators: closed-form partition rank


def _split_ranks(a: BitMatrix, b: int, y: list[int],
                 z: list[int]) -> tuple[int, int, int] | None:
    """(r(A_y), r(A_z), r([A_y A_z])) for the 0-based columns y, z of A,
    or None when [A_y A_z] x = b has no solution (M is then zero)."""
    if not y:  # M is the single entry [b = 0]
        return (0, 0, 0) if b == 0 else None
    ay, az, ayz = (a.column_submatrix(cols) for cols in (y, z, y + z))
    if solve(ayz, b) is None:
        return None
    return rank_gf2(ay), rank_gf2(az), rank_gf2(ayz)


# ---------------------------------------------------------------------------
# experiments


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError("trials must be at least 1")


def subgroup_rank_experiment(n: int, trials: int, seed: int) -> dict:
    """Random subgroup {x : Ax = 0} vs a random input partition.

    Per trial an n/2 x n matrix A and a partition P are drawn; the trial
    reports whether the two n/2 x n/2 column submatrices A_y, A_z are
    invertible and whether the partition matrix has full rank (both in
    closed form), and - when both submatrices are invertible - builds M
    and verifies entrywise that it is a permutation of the identity.
    """
    if n % 2 or n < 2:
        raise ValueError("n must be even and positive")
    half = n // 2
    if half > 12:
        raise OversizeError("partition matrices capped at 2^12 per side")
    _check_trials(trials)
    both = 0
    fullrank = 0
    perm_confirmed = 0
    perm_mismatch = 0
    for t in range(trials):
        rng = stream(seed, t)
        a = from_numpy(rng.integers(0, 2, size=(half, n)))
        perm = rng.permutation(n) + 1
        p = Partition(tuple(sorted(int(v) for v in perm[:half])),
                      tuple(sorted(int(v) for v in perm[half:])))
        r_y, r_z, r_a = _split_ranks(a, 0, [v - 1 for v in p.y_vars],
                                     [v - 1 for v in p.z_vars])
        if r_y + r_z - r_a == half:
            fullrank += 1
        if r_y == r_z == half:
            both += 1
            xs = np.arange(1 << n, dtype=np.int64)
            table = np.ones(1 << n, dtype=np.int8)
            for r in a.rows:
                par = np.bitwise_count(xs & r).astype(np.int64) & 1
                table &= (par == 0)
            m = partition_matrix(table, p)
            ok = (np.all(m.sum(axis=0) == 1) and np.all(m.sum(axis=1) == 1))
            if ok:
                perm_confirmed += 1
            else:
                perm_mismatch += 1
    return {
        "n": n,
        "trials": trials,
        "seed": seed,
        "both_invertible_fraction": both / trials,
        "expected_both_invertible": invertibility_product(half) ** 2,
        "full_rank_fraction": fullrank / trials,
        "permutation_confirmed": perm_confirmed,
        "permutation_mismatch": perm_mismatch,
    }


def vandermonde_rank_experiment(params: VandermondeParams, trials: int, seed: int) -> dict:
    """Full-rank fraction of random (kd+c) x kd row submatrices."""
    vbin = build_binary_vandermonde(params)
    kd = params.k * params.d
    pick_rows = kd + params.c
    if pick_rows > vbin.k:
        raise ValueError("kd + c exceeds the number of rows")
    _check_trials(trials)
    full = 0
    for t in range(trials):
        rng = stream(seed, t)
        rows = sorted(int(i) for i in rng.choice(vbin.k, size=pick_rows, replace=False))
        sub = vbin.row_submatrix(rows)
        if rank_gf2(sub) == kd:
            full += 1
    bound = 1.0 - (1.0 + params.k / params.n) ** kd * (0.5 + params.k / (2 * params.n)) ** params.c
    return {
        "n": params.n,
        "k": params.k,
        "d": params.d,
        "c": params.c,
        "trials": trials,
        "seed": seed,
        "full_rank_fraction": full / trials,
        "union_bound": bound,
    }


def erasure_recoverability_check(c: Coset, l: int, trials: int, seed: int) -> dict:
    """Row structure of restriction matrices of a coset indicator.

    A row y with two or more nonzero entries witnesses a string that the
    n - l bits outside z cannot pin down.  Reports the distribution of
    matrix ranks against the threshold 2^(l - l^(1/8)/2).
    """
    n = c.n
    try:
        threshold = 2.0 ** (l - (l ** 0.125) / 2.0)
    except OverflowError:
        raise OversizeError(f"threshold 2^(l - l^(1/8)/2) overflows a float at l={l}") from None
    _check_trials(trials)
    ranks = []
    multirow_counts = []
    for t in range(trials):
        r = random_restriction(n, l, seed, t)
        x_fixed = sum(bit << (n - v) for v, bit in r.fixed)
        split = _split_ranks(c.a, c.b ^ c.a.mul_vec(x_fixed),
                             [v - 1 for v in r.y_vars], [v - 1 for v in r.z_vars])
        rank = multirow = 0
        if split is not None:
            r_y, r_z, r_yz = split
            rank = 1 << (r_y + r_z - r_yz)
            if r_z < l:  # every nonzero row holds 2^(l - r_z) >= 2 ones
                multirow = rank << (l - r_y)
        ranks.append(rank)
        multirow_counts.append(multirow)
    ranks_arr = np.array(ranks)
    multi = np.array(multirow_counts)
    return {
        "n": n,
        "l": l,
        "trials": trials,
        "seed": seed,
        "rank_min": int(ranks_arr.min()),
        "rank_median": float(np.median(ranks_arr)),
        "rank_max": int(ranks_arr.max()),
        "threshold": threshold,
        "prob_rank_ge_threshold": float(np.mean(ranks_arr >= threshold)),
        # rows with >= 2 consistent completions: the witness that a string
        # is not pinned down by the bits outside z
        "nonrecoverable_rows_mean": float(multi.mean()),
        "nonrecoverable_fraction": float(np.mean(multi > 0)),
    }


# ---------------------------------------------------------------------------
# Schmidt rank


def _reshape_rank(v: np.ndarray, n: int, amask: int, tol: float = 1e-9) -> int:
    axes_a = [q for q in range(n) if (amask >> q) & 1]
    axes_b = [q for q in range(n) if not (amask >> q) & 1]
    t = v.reshape([2] * n).transpose(axes_a + axes_b)
    mat = t.reshape(1 << len(axes_a), 1 << len(axes_b))
    sv = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sv > tol))


def chi_max(v: np.ndarray, mode: str = "auto", seed: int = 0,
            samples: int = 200) -> int:
    """Max Schmidt rank over bipartitions of the qubits.

    Exhaustive over all 2^(n-1) - 1 bipartitions for n <= 12 (or with
    mode='exhaustive'), sampled otherwise.
    """
    n = int(np.log2(len(v)))
    if 1 << n != len(v):
        raise ValueError("amplitude vector length must be a power of 2")
    if n > _CHI_MAX_QUBITS:
        raise OversizeError(f"chi capped at {_CHI_MAX_QUBITS} qubits")
    if n == 1:
        return 1
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ValueError("mode must be auto, exhaustive or sampled")
    exhaustive = mode == "exhaustive" or (mode == "auto" and n <= 12)
    best = 1
    if exhaustive:
        # qubit 1 stays on the A side: each split counted once
        for amask in range(1, (1 << n) - 1, 2):
            best = max(best, _reshape_rank(v, n, amask))
    else:
        rng = stream(seed)
        for _ in range(samples):
            bits = rng.integers(0, 2, size=n - 1)
            amask = 1
            for j, b in enumerate(bits):
                amask |= int(b) << (j + 1)
            if amask == (1 << n) - 1:
                amask ^= 1 << (n - 1)
            best = max(best, _reshape_rank(v, n, amask))
    return best


# ---------------------------------------------------------------------------
# subset sums modulo a prime


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def subset_sums_mod_p(places: list[int], p: int) -> set[int]:
    """Residues hit by subset sums of {2^a : a in places}, incrementally."""
    residues = {0}
    for a in places:
        e = pow(2, a, p)
        residues |= {(r + e) % p for r in residues}
    return residues


def subset_sum_coverage(n: int, m: int, p: int, gamma: float,
                        trials: int, seed: int) -> dict:
    """Coverage |S mod p| of random m-element subsets of {2^0..2^(n-1)}."""
    if p > _SUBSET_SUM_MAX_P:
        raise OversizeError(f"p={p} exceeds the cap 2^{_SUBSET_SUM_MAX_P.bit_length() - 1}")
    if not _is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if m > 24:
        raise OversizeError("subset size capped at 24")
    if m > n:
        raise ValueError("need m <= n")
    _check_trials(trials)
    target = (1.0 + gamma) * p / 2.0
    coverages = []
    hits = 0
    for t in range(trials):
        rng = stream(seed, t)
        places = sorted(int(a) for a in rng.choice(n, size=m, replace=False))
        cov = len(subset_sums_mod_p(places, p))
        coverages.append(cov)
        if cov >= target:
            hits += 1
    arr = np.array(coverages)
    return {
        "n": n,
        "m": m,
        "p": p,
        "gamma": gamma,
        "trials": trials,
        "seed": seed,
        "coverage_min": int(arr.min()),
        "coverage_median": float(np.median(arr)),
        "coverage_max": int(arr.max()),
        "target": target,
        "prob_coverage_ge_target": hits / trials,
    }


__all__ = [
    "Partition", "Restriction", "chi_max", "erasure_recoverability_check",
    "partition_matrix", "random_partition", "random_restriction",
    "rank_eps_lower_bound", "rank_exact", "restriction_matrix",
    "subgroup_rank_experiment", "subset_sum_coverage", "subset_sums_mod_p",
    "vandermonde_rank_experiment",
]
