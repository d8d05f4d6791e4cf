"""Spans around the public functions of statetrees, installed from outside.

`Tracer.install` replaces each traced public name with a wrapper in
every loaded `statetrees` module that holds it, so calls made through
a by-name import (`statetrees.circuits.classify_tree`,
`statetrees.mots.enumerate_coset`, ...) are seen as well as calls made
through the defining module.  Spans (name, start, end, parent, round)
stay in memory and are written out once, at exit.  Work counts are
computed from the recorded arguments after each job, outside the timed
region, with the iterative helpers in `checks`.

Self time of a span is its duration minus the durations of its direct
children; the job spans that the harness opens are the roots, and each
span's time is converted to reference seconds with its job's factor.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks

MODULES = ("cli", "dsl", "builders", "trees", "formulas", "gf2", "codes", "mots", "circuits", "rank")

TRACED = {
    "cli": ["dispatch"],
    "dsl": ["parse", "serialize", "format_amplitudes", "parse_amplitudes"],
    "builders": ["build_cat", "build_cluster1d", "build_coset_fourier_otree", "build_coset_sigma1",
                 "build_divisibility_tree", "build_hamming", "build_knill_tree", "build_parity",
                 "build_parity_fourier"],
    "trees": ["evaluate", "validate", "classify_tree"],
    "formulas": ["tree_to_formula", "balance", "serialize_formula", "parse_formula"],
    "gf2": ["rank_gf2", "enumerate_coset", "parse_matrix"],
    "codes": ["build_binary_vandermonde"],
    "mots": ["mots_coset", "mots_random_experiment"],
    "circuits": ["compile_tree", "format_circuit", "parse_circuit", "simulate"],
    "rank": ["subgroup_rank_experiment", "erasure_recoverability_check",
             "vandermonde_rank_experiment", "subset_sum_coverage", "chi_max", "rank_exact"],
}

MOVES_MOTS = "wall_s/job_tail_s on mots-witness; wall_s on experiments"
MOVES_TREES = "wall_s/job_tail_s on tree-pipeline"
MOVES_TEXT = "wall_s on tree-pipeline"
MOVES_BUILD = "setup_s/wall_s on tree-pipeline and prep-simulate"
MOVES_CIRC = "wall_s/job_tail_s on prep-simulate"
MOVES_RANK = "wall_s on experiments"
MOVES_GF2 = "wall_s on experiments; the witness part of mots-witness"

# per-layer metric -> (source, end-to-end metric and workload it should move);
# the units are in BENCHMARK.json.  source: the spans whose self time the
# metric sums, "count" for a work counter, or "derived" for a value
# computed from the others.
LAYER_METRICS: dict[str, tuple[list[str] | str, str]] = {
    "mots.coset_s": (["mots.mots_coset"], MOVES_MOTS),
    "mots.coset_calls": ("count", MOVES_MOTS),
    "mots.dp_pairs": ("count", MOVES_MOTS),
    "mots.pairs_per_s": ("derived", MOVES_MOTS),
    "trees.evaluate_s": (["trees.evaluate"], MOVES_TREES),
    "trees.validate_s": (["trees.validate"], MOVES_TREES),
    "trees.classify_s": (["trees.classify_tree"], MOVES_TREES),
    "trees.leaves_walked": ("count", MOVES_TREES),
    "trees.max_depth": ("count", MOVES_TREES),
    "dsl.parse_s": (["dsl.parse"], MOVES_TEXT),
    "dsl.serialize_s": (["dsl.serialize"], MOVES_TEXT),
    "dsl.format_amplitudes_s": (["dsl.format_amplitudes"], MOVES_TEXT),
    "dsl.bytes_parsed": ("count", MOVES_TEXT),
    "formulas.convert_s": (["formulas.tree_to_formula"], MOVES_TEXT),
    "formulas.balance_s": (["formulas.balance"], MOVES_TEXT),
    "formulas.size_in": ("count", MOVES_TEXT),
    "formulas.size_out": ("count", MOVES_TEXT),
    "formulas.depth_out": ("count", MOVES_TEXT),
    "builders.build_s": ([f"builders.{f}" for f in TRACED["builders"]], MOVES_BUILD),
    "builders.leaves_built": ("count", MOVES_BUILD),
    "circuits.compile_s": (["circuits.compile_tree"], MOVES_CIRC),
    "circuits.format_s": (["circuits.format_circuit"], MOVES_CIRC),
    "circuits.parse_s": (["circuits.parse_circuit"], MOVES_CIRC),
    "circuits.simulate_s": (["circuits.simulate"], MOVES_CIRC),
    "circuits.gates": ("count", MOVES_CIRC),
    "circuits.width_max": ("count", MOVES_CIRC),
    "circuits.amp_updates": ("count", MOVES_CIRC),
    "circuits.updates_per_s": ("derived", MOVES_CIRC),
    "circuits.bytes_moved_computed": ("derived", MOVES_CIRC),
    "rank.subgroup_s": (["rank.subgroup_rank_experiment"], MOVES_RANK),
    "rank.erasure_s": (["rank.erasure_recoverability_check"], MOVES_RANK),
    "rank.vandermonde_s": (["rank.vandermonde_rank_experiment"], MOVES_RANK),
    "rank.subset_sum_s": (["rank.subset_sum_coverage"], MOVES_RANK),
    "rank.chi_s": (["rank.chi_max"], MOVES_RANK),
    "rank.trials": ("count", MOVES_RANK),
    "rank.exact_fallbacks": ("count", MOVES_RANK),
    "rank.partition_cells": ("count", MOVES_RANK),
    "gf2.rank_s": (["gf2.rank_gf2"], MOVES_GF2),
    "gf2.rank_calls": ("count", MOVES_GF2),
    "gf2.enumerate_coset_s": (["gf2.enumerate_coset"], MOVES_GF2),
    "codes.vandermonde_s": (["codes.build_binary_vandermonde"], MOVES_RANK),
    "cli.self_s": (["cli.dispatch"], "job_p50_s on mots-witness and prep-simulate"),
    **{f"{m}.share": ("derived", "module self time over traced wall_s") for m in MODULES},
    "trace.overhead_ratio": ("derived", "traced wall_s over untraced wall_s"),
    "trace.accounted_frac": ("derived", "library span self time over traced wall_s"),
}


def dp_pairs(n: int) -> int:
    """(I, J) splits the MO dp scores: sum over masks of 2^(|mask|-1) - 1."""
    return (3 ** n - 1) // 2 - (2 ** n - 1)


def _gates(circ) -> int:
    total = 0
    stack = list(circ.gates)
    while stack:
        g = stack.pop()
        if hasattr(g, "body"):
            stack.extend(g.body.gates)
        else:
            total += 1
    return total


def _count(counts: dict, name: str, args, result) -> None:
    """Work counts for one traced call, from its positional arguments (as
    the CLI passes them) and its result."""
    if name == "mots.mots_coset":
        counts["mots.coset_calls"] += 1
        counts["mots.dp_pairs"] += dp_pairs(args[0].n)
    elif name in ("trees.evaluate", "trees.validate", "trees.classify_tree"):
        leaves, depth = checks.tree_shape(args[0].root)
        counts["trees.leaves_walked"] += leaves
        counts["trees.max_depth"] = max(counts["trees.max_depth"], depth)
    elif name == "dsl.parse":
        counts["dsl.bytes_parsed"] += len(args[0].encode())
    elif name == "formulas.balance":
        counts["formulas.size_in"] += _formula_shape(args[0])[0]
        leaves, depth = _formula_shape(result)
        counts["formulas.size_out"] += leaves
        counts["formulas.depth_out"] = max(counts["formulas.depth_out"], depth)
    elif name.startswith("builders."):
        counts["builders.leaves_built"] += checks.tree_shape(result.root)[0]
    elif name == "circuits.simulate":
        circ = args[0]
        gates = _gates(circ)
        counts["circuits.gates"] += gates
        counts["circuits.width_max"] = max(counts["circuits.width_max"], circ.width)
        counts["circuits.amp_updates"] += gates << circ.width
    elif name == "rank.subgroup_rank_experiment":
        n, trials = args[0], args[1]
        counts["rank.trials"] += trials
        counts["rank.partition_cells"] += trials << n
    elif name == "rank.erasure_recoverability_check":
        l, trials = args[1], args[2]
        counts["rank.trials"] += trials
        counts["rank.partition_cells"] += trials << (2 * l)
    elif name == "rank.vandermonde_rank_experiment":
        counts["rank.trials"] += args[1]
    elif name == "rank.subset_sum_coverage":
        counts["rank.trials"] += args[4]
    elif name == "rank.rank_exact":
        counts["rank.exact_fallbacks"] += 1
    elif name == "gf2.rank_gf2":
        counts["gf2.rank_calls"] += 1


def _formula_shape(f) -> tuple[int, int]:
    """(leaf count, depth) of a formula object, iteratively."""
    leaves = 0
    deepest = 0
    stack = [(f, 0)]
    while stack:
        g, d = stack.pop()
        if hasattr(g, "left"):
            stack.append((g.left, d + 1))
            stack.append((g.right, d + 1))
        else:
            leaves += 1
            deepest = max(deepest, d)
    return leaves, deepest


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.round = -1
        self.recording = False  # off while the harness checks outputs
        self.pending: list[tuple] = []
        self.counts: dict[int, defaultdict] = defaultdict(lambda: defaultdict(int))
        self.factors: dict[int, float] = {}  # job span -> reference seconds per measured second
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, pending = self.spans, self.stack, self.pending
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.round)
            pending.append((name, args, result))
            return result

        return wrapper

    def install(self) -> None:
        mods = {k: v for k, v in sys.modules.items()
                if k == "statetrees" or k.startswith("statetrees.")}
        for mod_name, funcs in TRACED.items():
            home = mods[f"statetrees.{mod_name}"]
            for fn_name in funcs:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in mods.values():
                    if getattr(mod, fn_name, None) is original:
                        setattr(mod, fn_name, wrapper)
                        self._restore.append((mod, fn_name, original))

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._restore):
            setattr(mod, fn_name, original)
        self._restore.clear()

    def open_job(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def close_job(self, idx: int, label: str, start: float, end: float) -> None:
        self.stack.pop()
        self.spans[idx] = (f"job.{label}", start, end, -1, self.round)

    def flush_counts(self) -> None:
        """Turn the calls recorded during the last job into work counts."""
        counts = self.counts[self.round]
        for name, args, result in self.pending:
            _count(counts, name, args, result)
        self.pending.clear()

    def self_times(self) -> list[tuple[str, float, int]]:
        """(span name, self time in reference seconds, round) for every closed span."""
        child = [0.0] * len(self.spans)
        root = list(range(len(self.spans)))
        for i, sp in enumerate(self.spans):
            if sp is not None and sp[3] >= 0:
                child[sp[3]] += sp[2] - sp[1]
                root[i] = root[sp[3]]  # a parent always opens before its children
        return [(sp[0], (sp[2] - sp[1] - child[i]) * self.factors.get(root[i], 1.0), sp[4])
                for i, sp in enumerate(self.spans) if sp is not None]

    def layer_metrics(self, rounds: list[int], round_wall: dict[int, float],
                      untraced_wall: float) -> dict[str, float]:
        """Per-round medians of every per-layer metric over the traced rounds."""
        per_round: dict[int, defaultdict] = {r: defaultdict(float) for r in rounds}
        for name, self_s, r in self.self_times():
            if r in per_round:
                per_round[r][name] += self_s
        values: dict[str, list[float]] = defaultdict(list)
        for r in rounds:
            span_s = per_round[r]
            counts = self.counts[r]
            wall = round_wall[r]
            for metric, (source, _moves) in LAYER_METRICS.items():
                if source == "count":
                    values[metric].append(float(counts.get(metric, 0)))
                elif source != "derived":
                    values[metric].append(sum(span_s.get(s, 0.0) for s in source))
            values["mots.pairs_per_s"].append(
                counts["mots.dp_pairs"] / span_s["mots.mots_coset"] if span_s["mots.mots_coset"] else 0.0)
            values["circuits.updates_per_s"].append(
                counts["circuits.amp_updates"] / span_s["circuits.simulate"]
                if span_s["circuits.simulate"] else 0.0)
            values["circuits.bytes_moved_computed"].append(
                # read and write one complex128 amplitude per update
                32.0 * counts["circuits.amp_updates"])
            library = 0.0
            for m in MODULES:
                mod_s = sum(v for k, v in span_s.items() if k.startswith(f"{m}."))
                library += mod_s
                values[f"{m}.share"].append(mod_s / wall)
            values["trace.accounted_frac"].append(library / wall)
            values["trace.overhead_ratio"].append(wall / untraced_wall)
        out = {}
        for metric in LAYER_METRICS:
            vals = values.get(metric)
            out[metric] = statistics.median(vals) if vals else 0.0
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, sp in enumerate(self.spans):
                if sp is not None:
                    name, start, end, parent, r = sp
                    fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                         "parent": parent, "round": r}) + "\n")
