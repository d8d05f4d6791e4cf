"""MOTS solver: recurrence values, witnesses, brute-force oracle agreement."""

from __future__ import annotations

import contextlib
import io
from collections import Counter

import numpy as np
import pytest

from statetrees.builders import build_coset_sigma1
from statetrees.cli import dispatch
from statetrees.dsl import serialize
from statetrees.errors import EmptyCosetError, OversizeError
from statetrees.gf2 import BitMatrix, Coset, enumerate_coset, from_numpy, random_bitmatrix, to_numpy
from statetrees.mots import (_CHUNK, _VAL_BITS, MAX_N, _leaf_base, _split_dp, _subset_ranks,
                             mots_bruteforce, mots_coset, mots_random_experiment)
from statetrees.rng import stream
from statetrees.trees import (Leaf, Node, Plus, StateTree, Tensor, classify_tree, evaluate,
                              fidelity, tree_size, validate)


def parity_matrix(n: int) -> BitMatrix:
    return BitMatrix(1, n, ((1 << n) - 1,))


def cat_matrix(n: int) -> BitMatrix:
    rows = tuple(0b11 << (n - 2 - i) for i in range(n - 1))
    return BitMatrix(n - 1, n, rows)


def test_parity_values():
    for conv in ("classical", "free"):
        for n, want in [(2, 4), (4, 16), (8, 64)]:
            assert mots_coset(parity_matrix(n), conv, witness=False,
                              table=False).value == want


def test_cat_matrix_value():
    assert mots_coset(cat_matrix(4), witness=False, table=False).value == 8


def test_base_cases():
    z = BitMatrix(1, 1, (0,))
    assert mots_coset(z, "classical", witness=False).value == 2
    assert mots_coset(z, "free", witness=False).value == 1
    nz = BitMatrix(1, 1, (1,))
    assert mots_coset(nz, "classical", witness=False).value == 1
    assert mots_coset(nz, "free", witness=False).value == 1


def test_table_contents():
    res = mots_coset(parity_matrix(2))
    assert res.table[0b11] == (4, 0b01)
    assert res.table[0b01][0] == 1 and res.table[0b01][1] is None


def test_witness_soundness():
    cases = [(parity_matrix(4), 0), (parity_matrix(3), 1), (cat_matrix(4), 0),
             (BitMatrix(2, 4, (0, 0)), 0), (random_bitmatrix(2, 5, 9), 0)]
    for conv in ("classical", "free"):
        for a, b in cases:
            res = mots_coset(a, conv, b=b)
            w = res.witness
            assert validate(w) == []
            assert classify_tree(w) == "manifestly-orthogonal"
            assert tree_size(w) == res.value
            elems = enumerate_coset(Coset(a, b))
            expect = np.zeros(1 << a.n, dtype=complex)
            expect[elems] = len(elems) ** -0.5
            assert fidelity(evaluate(w), expect) > 1 - 1e-9


def test_classical_witness_uses_classical_leaves():
    def leaves(node):
        if isinstance(node, Leaf):
            yield node
        elif isinstance(node, Tensor):
            for ch in node.children:
                yield from leaves(ch)
        else:
            for _, ch in node.children:
                yield from leaves(ch)

    res = mots_coset(BitMatrix(2, 4, (0, 0)), "classical")
    for lf in leaves(res.witness.root):
        assert (lf.alpha, lf.beta) in ((1.0, 0.0), (0.0, 1.0))


def test_bruteforce_examples():
    assert mots_bruteforce({0, 1}, 1, "free") == 1
    assert mots_bruteforce({0, 1}, 1, "classical") == 2
    assert mots_bruteforce({0b00, 0b11}, 2, "classical") == 4
    assert mots_bruteforce({0b00, 0b11}, 2, "free") == 4
    assert mots_bruteforce({0, 1, 2, 3}, 2, "free") == 2
    assert mots_bruteforce({0, 1, 2, 3}, 2, "classical") == 4


def test_bruteforce_guards():
    with pytest.raises(OversizeError):
        mots_bruteforce({0}, 5)
    with pytest.raises(ValueError):
        mots_bruteforce(set(), 2)


def test_oracle_equivalence_sample():
    for conv in ("classical", "free"):
        for trial in range(30):
            n = 2 + trial % 3
            k = 1 + trial % n
            a = random_bitmatrix(k, n, 1000, trial)
            b = a.mul_vec(trial % (1 << n))
            got = mots_coset(a, conv, b=b, witness=False, table=False).value
            want = mots_bruteforce(enumerate_coset(Coset(a, b)), n, conv)
            assert got == want, (conv, trial)


def test_column_duplication_monotone():
    for trial in range(15):
        n = 3 + trial % 6
        k = 1 + trial % 3
        a = random_bitmatrix(k, n, 2000, trial)
        base = mots_coset(a, witness=False, table=False).value
        dup_col = trial % n
        rows = tuple((r << 1) | ((r >> (n - 1 - dup_col)) & 1) for r in a.rows)
        a2 = BitMatrix(k, n + 1, rows)
        assert mots_coset(a2, witness=False, table=False).value >= base


def test_upper_bound_vs_sigma1():
    for trial in range(10):
        n = 3 + trial % 5
        k = 1 + trial % 3
        a = random_bitmatrix(k, n, 3000, trial)
        c = Coset(a, 0)
        value = mots_coset(a, witness=False, table=False).value
        assert value <= tree_size(build_coset_sigma1(c))


def test_random_experiment_edges():
    rep = mots_random_experiment(6, 0, 4, 3)
    assert rep["min"] == rep["max"] == 12  # classical free state: 2n
    rep = mots_random_experiment(6, 0, 4, 3, convention="free")
    assert rep["min"] == rep["max"] == 6
    rep = mots_random_experiment(5, 5, 12, 4)
    assert rep["min"] == 5  # some invertible draw pins a single point
    rep2 = mots_random_experiment(5, 5, 12, 4)
    assert rep == rep2
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            mots_random_experiment(5, 2, trials, 4)


def test_oversize_guard():
    with pytest.raises(OversizeError):
        mots_coset(BitMatrix(1, 23, (0,)), witness=False, table=False)


def test_oversize_message_names_the_work_and_the_cap():
    with pytest.raises(OversizeError, match=rf"3\^n/2 = 5\.81e\+08 .*n <= {MAX_N}"):
        mots_coset(BitMatrix(1, MAX_N + 1, (0,)), witness=False, table=False)
    with pytest.raises(OversizeError):
        mots_random_experiment(MAX_N + 1, 2, 1, 0)
    # past n = 646, 3^n / 2 overflows a float: the message names its power of ten
    with pytest.raises(OversizeError, match=r"3\^n/2 = 10\^334 column splits"):
        mots_coset(BitMatrix(0, 700, ()), witness=False, table=False)


# ---------------------------------------------------------------------------
# the pure-Python loops the numpy kernels replaced, kept as their oracles


def _loop_ranks(cols: list[int]) -> list[int]:
    """GF(2) rank of every column subset, by incremental basis insertion."""
    size = 1 << len(cols)
    rank = [0] * size
    bases: list[tuple[int, ...]] = [()] * size
    for mask in range(1, size):
        low = mask & -mask
        prev = mask ^ low
        v = cols[low.bit_length() - 1]
        for b in bases[prev]:
            if (v ^ b) < v:
                v ^= b
        if v:
            rank[mask] = rank[prev] + 1
            bases[mask] = bases[prev] + (v,)
        else:
            rank[mask] = rank[prev]
            bases[mask] = bases[prev]
    return rank


def _loop_table(a: BitMatrix, convention: str) -> dict[int, tuple[int, int | None]]:
    cols = a.columns()
    rank = _loop_ranks(cols)
    size = 1 << a.n
    val = [0] * size
    arg: list[int | None] = [None] * size
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        if rest == 0:
            val[mask] = _leaf_base(convention, cols[low.bit_length() - 1] == 0)
            continue
        best = None
        best_i = -1
        s = (rest - 1) & rest  # largest proper submask; I always keeps the low bit
        while True:
            i_mask = low | s
            j_mask = mask ^ i_mask
            v = (val[i_mask] + val[j_mask]) << (rank[i_mask] + rank[j_mask] - rank[mask])
            if best is None or v < best or (v == best and i_mask < best_i):
                best, best_i = v, i_mask
            if s == 0:
                break
            s = (s - 1) & rest
        val[mask] = best
        arg[mask] = best_i
    return {m: (val[m], arg[m]) for m in range(1, size)}


def _matrix(bits: np.ndarray) -> BitMatrix:
    k, n = bits.shape
    return BitMatrix(k, n, tuple(int("".join(map(str, row)), 2) for row in bits))


def _tie_heavy_matrix(trial: int, n: int | None = None) -> tuple[str, BitMatrix]:
    """Seeded k x n bit matrices, n <= 10 unless given, cycling through four families."""
    rng = stream(4242, trial)
    n = int(rng.integers(1, 11)) if n is None else n
    k = int(rng.integers(1, 7))
    kind = ("uniform", "zero columns", "repeated columns", "low rank")[trial % 4]
    if kind == "low rank":
        base = rng.integers(0, 2, size=(int(rng.integers(1, 3)), n))
        bits = rng.integers(0, 2, size=(k, len(base))) @ base % 2
    else:
        bits = rng.integers(0, 2, size=(k, n))
    if kind == "zero columns":
        bits[:, rng.random(n) < 0.4] = 0
    elif kind == "repeated columns":
        bits = bits[:, rng.integers(0, max(1, n // 2), size=n)]
    return kind, _matrix(bits)


def test_subset_ranks_match_basis_insertion():
    for trial in range(60):
        rng = stream(4343, trial)
        n = int(rng.integers(1, 12))
        k = int(rng.integers(0, 80))  # past 62 rows the columns no longer fit an int64
        a = _matrix(rng.integers(0, 2, size=(k, n))) if k else BitMatrix(0, n, ())
        assert _subset_ranks([list(a.rows)], n)[:, 0].tolist() == _loop_ranks(a.columns()), trial


def test_stacked_subset_ranks_equal_one_stack_per_matrix():
    # each trial is reduced to its echelon basis first, so the stack holds
    # matrices of 0 to 90 rows side by side, past 63 too
    for n in (1, 2, 5, 9, 12):
        rng = stream(4344, n)
        mats = [rng.integers(0, 2, size=(k, n)) for k in (0, 1, n, 64, 90, 3, n + 1)]
        mats[-1][:, ::2] = 0  # zero columns
        rows = [[int("".join(map(str, row)), 2) for row in bits] for bits in mats]
        stacked = _subset_ranks(rows, n)
        assert stacked.shape == (1 << n, len(rows)) and stacked.dtype == np.int8
        for t, (bits, r) in enumerate(zip(mats, rows)):
            assert np.array_equal(stacked[:, t], _subset_ranks([r], n)[:, 0]), (n, t)
            assert stacked[:, t].tolist() == _loop_ranks(_matrix(bits).columns()), (n, t)


def test_kernel_matches_split_loop():
    kinds = set()
    for trial in range(120):
        kind, a = _tie_heavy_matrix(trial)
        kinds.add(kind)
        rank = _loop_ranks(a.columns())
        for conv in ("classical", "free"):
            table = mots_coset(a, conv, witness=False).table
            assert table == _loop_table(a, conv), (trial, kind, conv)
            # the bound behind the packed int32 keys (see mots._split_dp)
            for m, (v, _) in table.items():
                p = m.bit_count()
                assert v <= p << (p - rank[m])
    assert len(kinds) == 4


def _int64_split_dp(cols: list[int], rank: np.ndarray, convention: str) -> tuple[np.ndarray, np.ndarray]:
    """The dp on unpacked int64 arrays: four lookups per split and J = mask - I."""
    n = len(cols)
    val = np.zeros(1 << n, dtype=np.int64)
    arg = np.zeros(1 << n, dtype=np.int64)
    for j, c in enumerate(cols):
        val[1 << j] = _leaf_base(convention, c == 0)
    pop = np.bitwise_count(np.arange(1 << n))
    layers = np.split(np.argsort(pop, kind="stable"), np.cumsum(np.bincount(pop))[:-1])
    for p in range(2, n + 1):
        masks = layers[p]
        bits = np.empty((len(masks), p), dtype=np.int64)  # set bits, low bit first
        rest = masks.copy()
        for q in range(p):
            bits[:, q] = rest & -rest
            rest ^= bits[:, q]
        splits = (1 << (p - 1)) - 1
        step = max(1, _CHUNK // splits)
        for a in range(0, len(masks), step):
            m, b = masks[a:a + step], bits[a:a + step]
            i = np.empty((len(m), splits + 1), dtype=np.int64)
            i[:, 0] = b[:, 0]
            for q in range(1, p):
                h = 1 << (q - 1)
                np.add(i[:, :h], b[:, q:q + 1], out=i[:, h:2 * h])
            i = i[:, :splits]
            j = m[:, None] - i
            score = ((np.take(val, i) + np.take(val, j))
                     << (np.take(rank, i) + np.take(rank, j) - rank[m, None]))
            best = np.argmin(score, axis=1)
            rows = np.arange(len(m))
            val[m] = score[rows, best]
            arg[m] = i[rows, best]
    return val, arg


def test_packed_kernel_matches_int64_kernel_where_chunks_hold_one_mask():
    # from n = 14 on, a chunk of the widest layers holds one or two masks
    for trial in range(12):
        n = 13 + trial % 4
        kind = ("uniform", "zero columns", "repeated columns")[trial // 4]
        rng = stream(4444, trial)
        bits = rng.integers(0, 2, size=(int(rng.integers(1, n)), n))
        if kind == "zero columns":
            bits[:, rng.random(n) < 0.3] = 0
        elif kind == "repeated columns":
            bits = bits[:, rng.integers(0, n // 2, size=n)]
        a = _matrix(bits)
        rank = _subset_ranks([list(a.rows)], n)
        for conv in ("classical", "free"):
            val, arg = _split_dp(rank, conv)
            want_val, want_arg = _int64_split_dp(a.columns(), rank[:, 0], conv)
            assert np.array_equal(val[:, 0], want_val) and np.array_equal(arg[:, 0], want_arg), (trial, kind, conv)


def test_stacked_dp_equals_one_dp_per_trial():
    # the trials of a stack share each chunk's splits: every column of the
    # stack must be its trial's own dp, whatever the other trials hold
    kinds = ("uniform", "zero columns", "repeated columns")
    for n in range(1, 13):
        for stack in (1, 2, 7, 55):
            rng = stream(4545, 100 * n + stack)
            mats = []
            for t in range(stack):
                bits = rng.integers(0, 2, size=(t % (n + 2), n))  # k = 0 .. n + 1
                if kinds[t % 3] == "zero columns":
                    bits[:, rng.random(n) < 0.4] = 0
                elif kinds[t % 3] == "repeated columns":
                    bits = bits[:, rng.integers(0, max(1, n // 2), size=n)]
                mats.append(_matrix(bits))
            ranks = _subset_ranks([list(a.rows) for a in mats], n)
            for conv in ("classical", "free"):
                val, arg = _split_dp(ranks, conv)
                assert val.shape == arg.shape == (1 << n, stack)
                for t in range(stack):
                    one_val, one_arg = _split_dp(ranks[:, t:t + 1], conv)
                    assert np.array_equal(val[:, t], one_val[:, 0]), (n, stack, t, conv)
                    assert np.array_equal(arg[:, t], one_arg[:, 0]), (n, stack, t, conv)


def test_random_experiment_across_stacks_counts_each_trial_once():
    # n = 12 stacks 16 trials a dp: 37 trials are two full stacks and a partial one
    for conv in ("classical", "free"):
        rep = mots_random_experiment(12, 5, 37, 8, conv)
        mats = [random_bitmatrix(5, 12, 8, t) for t in range(37)]
        values = [mots_coset(a, conv, witness=False, table=False).value for a in mats]
        assert rep["histogram"] == dict(sorted(Counter(values).items()))
        assert rep["zero_column_fraction"] == sum(0 in a.columns() for a in mats) / 37


def test_packed_key_layout_holds_max_n():
    # a value sum is below MAX_N 2^MAX_N (see mots._split_dp): it must fit its field
    assert MAX_N << MAX_N < 1 << _VAL_BITS
    # a key sum: a rank sum of at most 2 MAX_N above a value sum
    assert (2 * MAX_N + 1) << _VAL_BITS <= np.iinfo(np.int32).max + 1


def _row_by_row_table_text(table, n: int) -> str:
    """The --table text as the CLI once wrote it, one f-string per row."""
    names = [format(m, f"0{n}b") for m in range(1 << n)]
    lines = [f"{names[m]}\t{v}\t{'-' if i is None else names[i]}" for m, (v, i) in table.items()]
    return "columns\tvalue\targmin\n" + "\n".join(lines) + "\n"


def test_table_text_matches_row_by_row_text(tmp_path):
    mat, tab = tmp_path / "a.mat", tmp_path / "t.tsv"
    for n in range(1, 16):
        cases = [_tie_heavy_matrix(4 * n + trial, n)[1] for trial in range(4)] + [BitMatrix(0, n, ())]
        for a in cases:
            mat.write_text(f"{a.k} {n}\n" + "".join(f"{r:0{n}b}\n" for r in a.rows))
            for conv in ("classical", "free"):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert dispatch(["mots", "--matrix", str(mat), "--table", str(tab),
                                     "--convention", conv]) == 0
                want = _row_by_row_table_text(mots_coset(a, conv, witness=False).table, n)
                assert tab.read_text() == want, (n, a, conv)


def test_table_is_a_mapping_over_the_dp_arrays():
    a = random_bitmatrix(3, 6, 31)
    table = mots_coset(a, witness=False).table
    as_dict = dict(table.items())
    assert table == as_dict and as_dict == table
    assert list(table) == list(range(1, 64)) and len(table) == 63
    assert all(table[m] == (int(table.val[m]), int(table.arg[m]) if m & (m - 1) else None)
               for m in table)
    for m in (0, 64):
        assert m not in table
        with pytest.raises(KeyError):
            table[m]


# ---------------------------------------------------------------------------
# metamorphic checks beyond the brute-force oracle's reach


def _row_mixed(a: BitMatrix, rng) -> BitMatrix:
    """T A for a random invertible T: a sequence of row swaps and row additions."""
    rows = list(a.rows)
    for _ in range(3 * a.k):
        i, j = (int(x) for x in rng.integers(0, a.k, size=2))
        if i == j:
            continue
        if rng.random() < 0.5:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] ^= rows[j]
    return BitMatrix(a.k, a.n, tuple(rows))


def test_metamorphic_row_operations_and_column_permutations():
    for trial in range(12):
        rng = stream(5151, trial)
        n = 8 + trial % 7  # 8..14
        k = int(rng.integers(1, n))
        a = random_bitmatrix(k, n, 5151, 1000 + trial)
        base = mots_coset(a, witness=False).table
        # M depends on the row space only, so the whole table (argmin too) stays
        assert mots_coset(_row_mixed(a, rng), witness=False).table == base, trial
        perm = [int(x) for x in rng.permutation(n)]
        moved = mots_coset(from_numpy(to_numpy(a)[:, perm]), witness=False, table=True).table
        # column perm[t] of a is column t of the permuted matrix
        for m, (v, _) in base.items():
            pm = sum(1 << t for t in range(n) if (m >> perm[t]) & 1)
            assert moved[pm][0] == v, (trial, m)


def test_witness_metamorphic_up_to_14():
    for trial in range(8):
        rng = stream(6161, trial)
        n = 9 + trial % 6  # 9..14
        k = int(rng.integers(n // 2, n))
        a = random_bitmatrix(k, n, 6161, 1000 + trial)
        b = a.mul_vec(int(rng.integers(0, 1 << n)))  # a nonempty coset, often b != 0
        conv = ("classical", "free")[trial % 2]
        res = mots_coset(a, conv, b=b, table=False)
        w = res.witness
        assert tree_size(w) == res.value
        assert classify_tree(w) == "manifestly-orthogonal"
        elems = enumerate_coset(Coset(a, b))
        expect = np.zeros(1 << n, dtype=complex)
        expect[elems] = len(elems) ** -0.5
        assert fidelity(evaluate(w), expect) >= 1 - 1e-9


def reference_witness(a: BitMatrix, b: int, arg: list[int], convention: str) -> StateTree:
    """The witness rebuilt from the coset's elements: at each split I = arg[mask]
    the elements are grouped by A_I x_I, and each group is checked to be
    the product of its projections on I and J."""
    n, r2 = a.n, 2.0 ** -0.5

    def qubit_bits(mask: int) -> int:  # column j is bit n - 1 - j of a string
        return sum(1 << (n - 1 - j) for j in range(n) if mask >> j & 1)

    def build(mask: int, group: list[int]) -> Node:
        if mask & (mask - 1) == 0:
            q = mask.bit_length()
            vals = {x >> (n - q) & 1 for x in group}
            if len(vals) == 1:
                v = vals.pop()
                return Leaf(q, 1.0 - v, float(v))
            if convention == "free":
                return Leaf(q, r2, r2)
            return Plus(((r2, Leaf(q, 1.0, 0.0)), (r2, Leaf(q, 0.0, 1.0))))
        i_mask = arg[mask]
        i_bits, j_bits = qubit_bits(i_mask), qubit_bits(mask ^ i_mask)
        groups: dict[int, list[int]] = {}
        for x in group:
            groups.setdefault(a.mul_vec(x & i_bits), []).append(x)
        parts = []
        for key in sorted(groups):
            si = sorted({x & i_bits for x in groups[key]})
            sj = sorted({x & j_bits for x in groups[key]})
            assert len(si) * len(sj) == len(groups[key])
            parts.append(Tensor((build(i_mask, si), build(mask ^ i_mask, sj))))
        if len(parts) == 1:
            return parts[0]
        return Plus(tuple(((1.0 / len(parts)) ** 0.5, p) for p in parts))

    return StateTree(n, build((1 << n) - 1, enumerate_coset(Coset(a, b))))


def test_witness_text_matches_the_element_grouping_reference():
    cases = 0
    for n in range(1, 11):
        for k in range(n + 2):  # k = 0 and k > n included
            for t in range(2):
                a = random_bitmatrix(k, n, 2424, 100 * n + 10 * k + t)
                if t and n > 1:  # plant zero columns: the first and the last
                    a = BitMatrix(k, n, tuple(r & ~(1 << (n - 1)) & ~1 for r in a.rows))
                b = a.mul_vec(int(stream(2424, 100 * n + 10 * k + t).integers(0, 1 << n)))
                for conv in ("classical", "free"):
                    res = mots_coset(a, conv, b=b)
                    want = reference_witness(a, b, res.table.arg.tolist(), conv)
                    assert serialize(res.witness) == serialize(want), (n, k, t, conv)
                    assert res.witness == want
                    cases += 1
    assert cases >= 300


def test_an_unsolvable_b_refuses_the_witness_but_not_the_value():
    a = BitMatrix(2, 3, (0b110, 0b000))  # the second row is zero, so b = 01 has no solution
    with pytest.raises(EmptyCosetError):
        mots_coset(a, b=0b01)
    assert mots_coset(a, b=0b01, witness=False).value == mots_coset(a, witness=False).value
