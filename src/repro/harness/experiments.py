"""Experiment implementations E1..E18 (DESIGN.md §2).

Every function runs a sweep, fills an
:class:`~repro.harness.report.ExperimentTable`, and asserts nothing
itself — the benches assert the hard invariants from the returned
``checks``.  Sweep sizes default to bench-friendly values (seconds,
not minutes); EXPERIMENTS.md records a larger run.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from repro import registry
from repro.baselines.luby import (
    check_distance_k_mis,
    luby_distance_k_mis,
)
from repro.baselines.naive import naive_congest_d2_color
from repro.baselines.trial import trial_d2_color
from repro.congest.policy import BandwidthPolicy
from repro.core.constants import Constants
from repro.core.d2color import basic_d2_color, improved_d2_color
from repro.det.det_d2color import deterministic_d2_color
from repro.det.eps_coloring import eps_coloring_g
from repro.det.eps_d2coloring import eps_d2_color
from repro.det.linial import linial_d2_coloring
from repro.det.locally_iterative import locally_iterative_d2_coloring
from repro.det.recursive_split import recursive_split
from repro.det.splitting import (
    derandomized_splitting,
    random_splitting,
)
from repro.graphs.generators import (
    clique_clusters,
    gnp,
    random_regular,
    unit_disk,
)
from repro.graphs.instances import (
    hoffman_singleton,
    moore_graph,
    petersen,
    projective_plane_incidence,
)
from repro.graphs.properties import slack, sparsity
from repro.graphs.square import d2_neighborhoods, max_d2_degree
from repro.harness.report import ExperimentTable
from repro.util.fitting import compare_models, log_star
from repro.verify.checker import check_coloring, check_d2_coloring

_SHAPE_MODELS = {
    "log(n)*log(delta)": lambda n, d: math.log(n)
    * math.log(max(d, 2)),
    "log(n)": lambda n, d: math.log(n),
    "delta^2": lambda n, d: float(d * d),
    "n": lambda n, d: float(n),
}


def _check_valid(table, graph, result, label):
    report = check_d2_coloring(
        graph, result.coloring, result.palette_size
    )
    table.add_check(f"{label}: valid d2-coloring", report.valid)
    table.add_check(
        f"{label}: palette respected",
        result.colors_used <= result.palette_size,
    )


# ----------------------------------------------------------------------


def e01_improved_randomized(
    ns: Sequence[int] = (32, 128, 512),
    deltas: Sequence[int] = (6, 8, 12),
    fixed_delta: int = 8,
    fixed_n: int = 96,
    seeds: Sequence[int] = (1, 2, 3),
) -> ExperimentTable:
    """Theorem 1.1: Δ²+1 colors in O(log Δ · log n) rounds."""
    table = ExperimentTable(
        "E1",
        "Improved-d2-Color rounds scaling",
        "Thm 1.1: Δ²+1 colors, O(log Δ · log n) rounds w.h.p.",
        ["graph", "n", "Δ", "rounds(mean)", "colors", "palette"],
    )
    seed = seeds[0]
    points: List[Tuple[float, float]] = []
    rounds_list: List[float] = []
    for n in ns:
        per_seed = []
        last = None
        for s in seeds:
            graph = random_regular(fixed_delta, n, seed=s)
            last = improved_d2_color(
                graph, seed=s, allow_deterministic_fallback=False
            )
            _check_valid(
                table, graph, last, f"rr({fixed_delta},{n},s{s})"
            )
            per_seed.append(last.rounds)
        mean_rounds = statistics.mean(per_seed)
        table.add_row(
            "random-regular",
            n,
            fixed_delta,
            round(mean_rounds, 1),
            last.colors_used,
            last.palette_size,
        )
        points.append((n, fixed_delta))
        rounds_list.append(mean_rounds)
    for delta in deltas:
        per_seed = []
        last = None
        for s in seeds:
            graph = random_regular(delta, fixed_n, seed=s)
            last = improved_d2_color(
                graph, seed=s, allow_deterministic_fallback=False
            )
            _check_valid(
                table, graph, last, f"rr({delta},{fixed_n},s{s})"
            )
            per_seed.append(last.rounds)
        mean_rounds = statistics.mean(per_seed)
        table.add_row(
            "random-regular",
            fixed_n,
            delta,
            round(mean_rounds, 1),
            last.colors_used,
            last.palette_size,
        )
        points.append((fixed_n, delta))
        rounds_list.append(mean_rounds)
    # Hard instances where the palette bound is tight.
    for name, graph in (
        ("petersen", petersen()),
        ("hoffman-singleton", hoffman_singleton()),
    ):
        delta = max(d for _, d in graph.degree)
        result = improved_d2_color(
            graph, seed=seed, allow_deterministic_fallback=False
        )
        _check_valid(table, graph, result, name)
        table.add_check(
            f"{name}: rainbow forced (Δ²+1 colors used)",
            result.colors_used == delta * delta + 1,
        )
        table.add_row(
            name,
            graph.number_of_nodes(),
            delta,
            result.rounds,
            result.colors_used,
            result.palette_size,
        )
    table.fits = compare_models(points, rounds_list, _SHAPE_MODELS)
    table.add_check(
        "shape: sublinear in n (log-form beats linear)",
        _model_rank(table.fits, "n")
        > min(
            _model_rank(table.fits, "log(n)"),
            _model_rank(table.fits, "log(n)*log(delta)"),
        ),
    )
    return table


def _model_rank(fits, name: str) -> int:
    for index, fit in enumerate(fits):
        if fit.name == name:
            return index
    return len(fits)


def e02_basic_randomized(
    ns: Sequence[int] = (16, 64, 256),
    delta: int = 6,
    seeds: Sequence[int] = (1, 2, 3),
) -> ExperimentTable:
    """Corollary 2.1: the basic pipeline in O(log³ n) rounds."""
    table = ExperimentTable(
        "E2",
        "Basic d2-Color rounds scaling",
        "Cor 2.1: Δ²+1 colors in O(log³ n) rounds w.h.p.",
        ["n", "Δ", "rounds(mean)", "colors", "palette"],
    )
    points = []
    rounds_list = []
    for n in ns:
        per_seed = []
        last = None
        for s in seeds:
            graph = random_regular(delta, n, seed=s)
            last = basic_d2_color(
                graph, seed=s, allow_deterministic_fallback=False
            )
            _check_valid(table, graph, last, f"n={n},s{s}")
            per_seed.append(last.rounds)
        mean_rounds = statistics.mean(per_seed)
        table.add_row(
            n,
            delta,
            round(mean_rounds, 1),
            last.colors_used,
            last.palette_size,
        )
        points.append((n, delta))
        rounds_list.append(mean_rounds)
    models = {
        "log^3(n)": lambda n, d: math.log(n) ** 3,
        "log(n)": lambda n, d: math.log(n),
        "n": lambda n, d: float(n),
    }
    table.fits = compare_models(points, rounds_list, models)
    table.add_check(
        "shape: sublinear in n",
        _model_rank(table.fits, "n") > 0,
    )
    return table


def e03_deterministic(
    deltas: Sequence[int] = (3, 6, 9, 12),
    fixed_n: int = 60,
    ns: Sequence[int] = (30, 60, 120, 240),
    fixed_delta: int = 4,
    seed: int = 3,
) -> ExperimentTable:
    """Theorem 1.2: deterministic Δ²+1 in O(Δ² + log* n) rounds."""
    table = ExperimentTable(
        "E3",
        "Deterministic d2-coloring rounds scaling",
        "Thm 1.2: Δ²+1 colors in O(Δ² + log* n) rounds",
        ["sweep", "n", "Δ", "rounds", "colors", "log*(n)"],
    )
    points = []
    rounds_list = []
    for delta in deltas:
        graph = random_regular(delta, fixed_n, seed=seed)
        result = deterministic_d2_color(graph, stop_early=False)
        _check_valid(table, graph, result, f"Δ={delta}")
        table.add_row(
            "Δ",
            graph.number_of_nodes(),
            delta,
            result.rounds,
            result.colors_used,
            log_star(graph.number_of_nodes()),
        )
        points.append((graph.number_of_nodes(), delta))
        rounds_list.append(result.rounds)
    n_rounds = []
    for n in ns:
        graph = random_regular(fixed_delta, n, seed=seed)
        result = deterministic_d2_color(graph, stop_early=False)
        _check_valid(table, graph, result, f"n={n}")
        table.add_row(
            "n",
            graph.number_of_nodes(),
            fixed_delta,
            result.rounds,
            result.colors_used,
            log_star(graph.number_of_nodes()),
        )
        n_rounds.append(result.rounds)
    models = {
        "delta^2": lambda n, d: float(d * d),
        "delta": lambda n, d: float(d),
        "n": lambda n, d: float(n),
    }
    table.fits = compare_models(points, rounds_list, models)
    table.add_check(
        "shape: Δ² fits the Δ-sweep best",
        table.fits[0].name == "delta^2",
    )
    spread = max(n_rounds) - min(n_rounds)
    table.add_check(
        "shape: near-constant in n at fixed Δ (log* n term)",
        spread <= 0.35 * max(n_rounds),
    )
    table.add_note(
        f"n-sweep rounds spread: {min(n_rounds)}..{max(n_rounds)} "
        "(the additive log* n term)"
    )
    return table


def e04_eps_deterministic(
    eps_values: Sequence[float] = (0.25, 0.5, 1.0),
    delta: int = 10,
    n: int = 60,
    seed: int = 4,
) -> ExperimentTable:
    """Theorem 1.3: deterministic (1+ε)Δ² colors."""
    table = ExperimentTable(
        "E4",
        "(1+ε)Δ² deterministic d2-coloring",
        "Thm 1.3: (1+ε)Δ² colors in polylog n rounds",
        ["ε", "levels", "palette", "(1+ε)Δ²", "rounds", "colors"],
    )
    graph = random_regular(delta, n, seed=seed)
    for eps in eps_values:
        result = eps_d2_color(graph, eps=eps)
        _check_valid(table, graph, result, f"ε={eps} (paper h)")
        table.add_row(
            eps,
            result.params["levels"],
            result.palette_size,
            result.params["color_budget"],
            result.rounds,
            result.colors_used,
        )
        table.add_check(
            f"ε={eps}: palette within (1+ε)Δ² budget",
            result.palette_size
            <= result.params["color_budget"] + 1,
        )
    # Forced h=1 regime (mechanism demo; palette may exceed budget
    # when the practical split is imperfect — reported, not hidden).
    forced = eps_d2_color(
        graph, eps=1.0, levels=1, split_lam=0.3, split_threshold=4
    )
    _check_valid(table, graph, forced, "forced h=1")
    table.add_row(
        "1.0(h=1)",
        forced.params["levels"],
        forced.palette_size,
        forced.params["color_budget"],
        forced.rounds,
        forced.colors_used,
    )
    return table


def e05_eps_g_coloring(
    eps_values: Sequence[float] = (0.25, 0.5, 1.0),
    delta: int = 10,
    n: int = 60,
    seed: int = 5,
) -> ExperimentTable:
    """Theorem 3.4: deterministic (1+ε)Δ coloring of G."""
    table = ExperimentTable(
        "E5",
        "(1+ε)Δ deterministic coloring of G",
        "Thm 3.4: (1+ε)Δ colors in O(log⁸ n + ε⁻² log³ n) rounds",
        ["ε", "levels", "palette", "(1+ε)Δ", "rounds", "colors"],
    )
    graph = random_regular(delta, n, seed=seed)
    for eps in eps_values:
        result = eps_coloring_g(graph, eps=eps)
        report = check_coloring(
            graph, result.coloring, result.palette_size
        )
        table.add_check(f"ε={eps}: valid coloring", report.valid)
        table.add_row(
            eps,
            result.params["levels"],
            result.palette_size,
            (1 + eps) * delta,
            result.rounds,
            result.colors_used,
        )
        table.add_check(
            f"ε={eps}: palette within (1+ε)Δ budget",
            result.palette_size <= (1 + eps) * delta + 1,
        )
    forced = eps_coloring_g(
        graph, eps=1.0, levels=2, split_lam=0.3, split_threshold=4
    )
    report = check_coloring(
        graph, forced.coloring, forced.palette_size
    )
    table.add_check("forced h=2: valid coloring", report.valid)
    table.add_row(
        "1.0(h=2)",
        forced.params["levels"],
        forced.palette_size,
        2 * delta,
        forced.rounds,
        forced.colors_used,
    )
    return table


def e06_splitting(
    delta: int = 16, n: int = 80, seed: int = 6
) -> ExperimentTable:
    """Theorem 3.2 / Lemma 3.3: splitting quality."""
    table = ExperimentTable(
        "E6",
        "Local refinement splitting quality",
        "Def 3.1 / Lemma 3.3: per-part degree ~ (1+λ)·Δ/2 per level",
        [
            "method",
            "levels",
            "parts",
            "max part degree",
            "ideal Δ/2^h",
            "violations",
            "charged rounds",
        ],
    )
    graph = random_regular(delta, n, seed=seed)
    for method in ("random", "derandomized"):
        for levels in (1, 2, 3):
            split = recursive_split(
                graph,
                eps=0.5,
                levels=levels,
                deterministic=(method == "derandomized"),
                lam=0.3,
                threshold=4,
                seed=seed,
            )
            violations = sum(
                len(r.violations) for r in split.level_results
            )
            table.add_row(
                method,
                levels,
                split.num_parts,
                split.max_part_degree,
                delta / 2**levels,
                violations,
                split.charged_rounds,
            )
            table.add_check(
                f"{method} h={levels}: degree reduced below Δ",
                split.max_part_degree < delta,
            )
    # Paper-threshold sanity: guaranteed-violation-free instance.
    hub = nx.complete_bipartite_graph(1, 300)
    hub = nx.convert_node_labels_to_integers(hub)
    result = derandomized_splitting(
        hub, {v: 0 for v in hub.nodes}, lam=0.7
    )
    table.add_check(
        "Chernoff-closed instance: derandomization violation-free",
        result.ok,
    )
    return table


def e07_similarity(
    c10_values: Sequence[float] = (4.0, 8.0, 16.0), seed: int = 7
) -> ExperimentTable:
    """Theorem 2.2: sampled similarity classification accuracy."""
    from repro.tests_support import build_similarity_states

    table = ExperimentTable(
        "E7",
        "Similarity graph sampling accuracy",
        "Thm 2.2: sampled H agrees with true common-neighborhood "
        "thresholds w.h.p.",
        ["instance", "c10", "true-similar rate", "false-pos rate"],
    )
    dense = hoffman_singleton()
    sparse = nx.path_graph(200)
    for c10 in c10_values:
        constants = Constants.practical().scaled(c10=c10)
        states, _cfg = build_similarity_states(
            dense, force_exact=False, constants=constants, seed=seed
        )
        hits = total = 0
        for v in list(dense.nodes)[:15]:
            for u in dense.neighbors(v):
                total += 1
                hits += states[v].is_h(v, u)
        tp_rate = hits / total
        states, _cfg = build_similarity_states(
            sparse, force_exact=False, constants=constants, seed=seed
        )
        false_pos = sum(
            1
            for v in sparse.nodes
            for u in sparse.neighbors(v)
            if states[v].is_h(v, u)
        )
        fp_rate = false_pos / (2 * sparse.number_of_edges())
        table.add_row("HS(dense)/path(sparse)", c10, tp_rate, fp_rate)
        if c10 >= 16:
            table.add_check(
                f"c10={c10}: dense pairs accepted", tp_rate > 0.8
            )
            table.add_check(
                f"c10={c10}: sparse pairs rejected", fp_rate < 0.05
            )
    return table


def e08_sampling(
    draws: int = 300, seed: int = 8
) -> ExperimentTable:
    """Lemma 2.3: XOR lottery uniformity."""
    from scipy import stats

    from repro.tests_support import run_lottery_draws

    table = ExperimentTable(
        "E8",
        "XOR lottery uniformity",
        "Lemma 2.3: R_u entries are independent uniform H-neighbors",
        ["node", "H-degree", "draws", "chi2 p-value"],
    )
    graph = petersen()
    outputs = run_lottery_draws(graph, count=draws, seed=seed)
    p_values = []
    for v in list(graph.nodes)[:5]:
        counts: Dict[int, int] = {}
        for drawn in outputs[v]["draws"]:
            counts[drawn[0]] = counts.get(drawn[0], 0) + 1
        observed = [
            counts.get(u, 0) for u in graph.nodes if u != v
        ]
        _chi, p_value = stats.chisquare(observed)
        p_values.append(p_value)
        table.add_row(v, len(observed), draws, p_value)
    table.add_check(
        "uniformity not rejected (min p > 1e-4)",
        min(p_values) > 1e-4,
    )
    return table


def e09_slack(
    deltas: Sequence[int] = (6, 10, 14),
    n: int = 80,
    seed: int = 9,
) -> ExperimentTable:
    """Prop 2.5 (Elkin–Pettie–Su): sparsity converts to slack."""
    table = ExperimentTable(
        "E9",
        "Slack generation from sparsity",
        "Prop 2.5: after one random-trial round, slack >= ζ/(4e³) "
        "w.h.p.",
        [
            "Δ",
            "mean ζ",
            "mean slack (live)",
            "ζ/(4e³)",
            "bound satisfied",
        ],
    )
    import random as pyrandom

    e3 = math.e**3
    for delta in deltas:
        graph = random_regular(delta, n, seed=seed)
        zeta = sparsity(graph)
        palette = delta * delta + 1
        rng = pyrandom.Random(seed)
        # One round of d2-Color step 2: uniform tries, adopt when no
        # d2-neighbor picked or owns the color (centrally simulated).
        tries = {
            v: rng.randrange(palette) for v in graph.nodes
        }
        hoods = d2_neighborhoods(graph)
        coloring = {}
        for v in graph.nodes:
            conflict = any(
                tries[u] == tries[v] for u in hoods[v]
            )
            coloring[v] = None if conflict else tries[v]
        slk = slack(graph, coloring, delta)
        live = [v for v in graph.nodes if coloring[v] is None]
        live_slack = [slk[v] for v in live] or [0]
        mean_zeta = statistics.mean(zeta.values())
        satisfied = all(
            slk[v] >= zeta[v] / (4 * e3) - 1e-9 for v in live
        )
        table.add_row(
            delta,
            round(mean_zeta, 2),
            round(statistics.mean(live_slack), 2),
            round(mean_zeta / (4 * e3), 3),
            satisfied,
        )
        table.add_check(
            f"Δ={delta}: slack bound holds for all live nodes",
            satisfied,
        )
    return table


def e10_finish(
    ns: Sequence[int] = (50, 100, 200), seed: int = 10
) -> ExperimentTable:
    """Lemma 2.14: FinishColoring completes in O(log n) rounds."""
    from repro.tests_support import run_finish_only

    table = ExperimentTable(
        "E10",
        "FinishColoring round complexity",
        "Lemma 2.14: O(log n) rounds once palettes are known",
        ["n", "live nodes", "rounds", "log2(n)"],
    )
    points = []
    rounds_list = []
    for n in ns:
        graph = random_regular(6, n, seed=seed)
        live_target = max(4, int(math.log2(n)))
        rounds, valid = run_finish_only(
            graph, live_target, seed=seed
        )
        table.add_row(
            graph.number_of_nodes(),
            live_target,
            rounds,
            round(math.log2(n), 1),
        )
        table.add_check(f"n={n}: finish produces valid coloring", valid)
        points.append((graph.number_of_nodes(), 6))
        rounds_list.append(rounds)
    models = {
        "log(n)": lambda n, d: math.log(n),
        "n": lambda n, d: float(n),
    }
    table.fits = compare_models(points, rounds_list, models)
    return table


def e11_learn_palette(seed: int = 11) -> ExperimentTable:
    """Thm 2.16 / Lemma 2.15: LearnPalette correctness and cost."""
    from repro.tests_support import run_learn_palette_only

    table = ExperimentTable(
        "E11",
        "LearnPalette exactness",
        "Thm 2.16: palettes learned in O(log n) rounds; step-7 "
        "correction makes them exact",
        ["instance", "mode", "live", "rounds", "exact palettes"],
    )
    for name, graph, force_small in (
        ("HS", hoffman_singleton(), True),
        ("HS", hoffman_singleton(), False),
        ("PG(2,5)", projective_plane_incidence(5), False),
    ):
        live_target = max(4, int(math.log2(graph.number_of_nodes())))
        rounds, exact, superset = run_learn_palette_only(
            graph, live_target, force_small, seed=seed
        )
        mode = "flood" if force_small else "handlers"
        table.add_row(name, mode, live_target, rounds, exact)
        table.add_check(
            f"{name}/{mode}: learned palettes contain all free "
            "colors",
            superset,
        )
        if force_small:
            table.add_check(
                f"{name}/{mode}: flooding palettes exact", exact
            )
    return table


def e12_blocked_phases(seed: int = 12) -> ExperimentTable:
    """Lemma B.3: at most 2Δ² blocked phases."""
    table = ExperimentTable(
        "E12",
        "Locally-iterative blocked phases",
        "Lemma B.3: every vertex is blocked in at most 2Δ² of the "
        "q > 4Δ² phases",
        ["graph", "Δ", "q", "max blocked", "bound 2·maxd2deg"],
    )
    instances = {
        "petersen": petersen(),
        "rr(6,36)": random_regular(6, 36, seed=seed),
        "cliques(4x6)": clique_clusters(4, 6, seed=seed),
        "pg2_3": projective_plane_incidence(3),
    }
    for name, graph in instances.items():
        delta = max(d for _, d in graph.degree)
        linial = linial_d2_coloring(graph)
        result = locally_iterative_d2_coloring(
            graph,
            color_in=linial.coloring,
            palette_in=linial.palette_size,
            stop_early=False,
        )
        bound = 2 * max_d2_degree(graph)
        blocked = result.params["max_blocked_phases"]
        table.add_row(
            name, delta, result.params["q"], blocked, bound
        )
        table.add_check(
            f"{name}: blocked <= 2·(max d2-degree)",
            blocked <= bound,
        )
    return table


def e13_linial(
    ns: Sequence[int] = (64, 256, 1024),
    deltas: Sequence[int] = (4, 8, 12),
    seed: int = 13,
) -> ExperimentTable:
    """Theorem B.1: O(Δ⁴) colors in O(Δ + log* n) rounds."""
    table = ExperimentTable(
        "E13",
        "Linial on G²",
        "Thm B.1: O(Δ⁴) colors in O(Δ + log* n) rounds",
        ["n", "Δ", "iterations", "rounds", "palette", "~8Δ⁴"],
    )
    for n in ns:
        graph = nx.cycle_graph(n)
        result = linial_d2_coloring(graph)
        table.add_row(
            n,
            2,
            result.params["iterations"],
            result.rounds,
            result.palette_size,
            8 * 16,
        )
        table.add_check(
            f"cycle n={n}: palette O(Δ⁴)",
            result.palette_size <= 8 * 16,
        )
        table.add_check(
            f"cycle n={n}: valid",
            check_d2_coloring(
                graph, result.coloring, result.palette_size
            ).valid,
        )
    for delta in deltas:
        graph = random_regular(delta, 64, seed=seed)
        result = linial_d2_coloring(graph)
        bound = 8 * delta**4
        table.add_row(
            64,
            delta,
            result.params["iterations"],
            result.rounds,
            result.palette_size,
            bound,
        )
        table.add_check(
            f"Δ={delta}: palette O(Δ⁴)",
            result.palette_size <= bound,
        )
    return table


def e14_crossover(
    deltas: Sequence[int] = (4, 8, 12, 16),
    n: int = 64,
    seed: int = 14,
) -> ExperimentTable:
    """Sec. 1: the naive G² simulation pays Θ(Δ) per G² round."""
    table = ExperimentTable(
        "E14",
        "Naive simulation vs paper algorithms",
        "Sec. 1: simulating one G² round costs Ω(Δ) rounds on G; "
        "the paper's algorithms avoid the factor",
        [
            "Δ",
            "naive rounds",
            "naive relay/phase",
            "improved rounds",
            "det rounds",
        ],
    )
    policy = BandwidthPolicy.track(beta=2, min_bits=24)
    naive_relay = []
    for delta in deltas:
        graph = random_regular(delta, n, seed=seed)
        naive = naive_congest_d2_color(
            graph, seed=seed, policy=policy
        )
        improved = improved_d2_color(
            graph, seed=seed, allow_deterministic_fallback=False
        )
        det = deterministic_d2_color(graph)
        table.add_row(
            delta,
            naive.rounds,
            naive.params["relay_rounds_per_phase"],
            improved.rounds,
            det.rounds,
        )
        naive_relay.append(naive.params["relay_rounds_per_phase"])
        _check_valid(table, graph, naive, f"naive Δ={delta}")
    table.add_check(
        "naive per-phase relay cost grows with Δ",
        naive_relay[-1] > naive_relay[0],
    )
    return table


def e15_bandwidth(seed: int = 15, backend=None) -> ExperimentTable:
    """CONGEST compliance audit across algorithms.

    ``backend`` selects the execution engine for every audited run
    (compliance must hold — and is metered identically — on any
    metered backend).
    """
    from repro.verify.audit import audit_bandwidth

    table = ExperimentTable(
        "E15",
        "Bandwidth compliance",
        "Model: every message O(log n) bits",
        [
            "algorithm",
            "budget bits",
            "max msg bits",
            "headroom",
            "violations",
            "compliant",
        ],
    )
    graph = projective_plane_incidence(3)
    # Every distributed algorithm in the registry is audited; adding
    # an algorithm to the registry adds it to this compliance table.
    # "heavy" specs (the O(log³ n) strawman) are skipped: dense PG
    # neighborhoods cost them tens of seconds for one audit row.
    for spec in registry.algorithms(distributed=True):
        if "heavy" in spec.tags:
            table.add_note(f"{spec.name}: skipped (tagged heavy)")
            continue
        result = spec.run(graph, seed=seed, backend=backend)
        report = audit_bandwidth(spec.name, result.metrics)
        table.add_row(*report.row())
        if spec.expects_compliant:
            table.add_check(f"{spec.name}: compliant", report.compliant)
        if spec.kind == "randomized":
            # The audit must cover the randomized pipeline itself: a
            # silent Step-0 fallback would record the deterministic
            # chain's traffic under this spec's name.
            table.add_check(
                f"{spec.name}: audited its own pipeline (no fallback)",
                not result.params.get("deterministic_fallback", False),
            )
    return table


def e16_trial_eps(
    eps_values: Sequence[float] = (0.0, 0.5, 1.0, 2.0),
    delta: int = 8,
    n: int = 64,
    seed: int = 16,
) -> ExperimentTable:
    """Sec. 2.1: with (1+ε)Δ² colors, trials finish in
    O(log_{1/ε'} n) rounds."""
    table = ExperimentTable(
        "E16",
        "Random-trial baseline palette sweep",
        "Sec. 2.1: (1+ε)Δ² palette => O(log n / log(1+ε)) phases",
        ["ε", "palette", "rounds", "colors used"],
    )
    graph = random_regular(delta, n, seed=seed)
    rounds_list = []
    for eps in eps_values:
        result = trial_d2_color(graph, seed=seed, eps=eps)
        table.add_row(
            eps,
            result.palette_size,
            result.rounds,
            result.colors_used,
        )
        rounds_list.append(result.rounds)
        _check_valid(table, graph, result, f"ε={eps}")
    table.add_check(
        "rounds decrease with palette slack",
        rounds_list[-1] <= rounds_list[0],
    )
    return table


def e17_luby_mis(
    ks: Sequence[int] = (1, 2, 3),
    ns: Sequence[int] = (40, 80, 160),
    delta: int = 4,
    seed: int = 17,
) -> ExperimentTable:
    """Sec. 1: distance-k MIS in O(k log n) rounds."""
    table = ExperimentTable(
        "E17",
        "Distance-k MIS (Luby)",
        "Sec. 1: O(k · log n) rounds",
        ["k", "n", "rounds", "MIS size", "valid"],
    )
    for k in ks:
        for n in ns:
            graph = random_regular(delta, n, seed=seed)
            mis, rounds, _ = luby_distance_k_mis(
                graph, k=k, seed=seed
            )
            valid = check_distance_k_mis(graph, mis, k)
            table.add_row(k, n, rounds, len(mis), valid)
            table.add_check(f"k={k} n={n}: valid MIS", valid)
    return table


def e18_colors(seed: int = 18, backend=None) -> ExperimentTable:
    """Color quality across all algorithms.

    ``backend`` selects the execution engine for every run; colors
    and rounds are backend-invariant, so the table is too.
    """
    table = ExperimentTable(
        "E18",
        "Colors used by every algorithm",
        "All Δ²+1 algorithms stay within the palette; on Moore "
        "graphs they are forced to use exactly Δ²+1",
        ["instance", "algorithm", "colors", "palette", "rounds"],
    )
    instances = {
        "petersen": petersen(),
        "rr(6,48)": random_regular(6, 48, seed=seed),
        "udg(50)": unit_disk(50, 0.25, seed=seed),
    }
    for name, graph in instances.items():
        delta = max(d for _, d in graph.degree)
        # The full registry runs on every instance — oracles included.
        for spec in registry.ALGORITHMS:
            if not spec.applicable(graph):
                continue
            result = spec.run(graph, seed=seed, backend=backend)
            table.add_row(
                name,
                spec.name,
                result.colors_used,
                result.palette_size,
                result.rounds,
            )
            _check_valid(table, graph, result, f"{name}/{spec.name}")
            if name == "petersen":
                # G² is complete on a Moore graph and n = Δ²+1, so
                # *every* algorithm (whatever its palette slack) is
                # forced to use exactly Δ²+1 colors.
                table.add_check(
                    f"{spec.name}: Moore graph needs full palette",
                    result.colors_used == delta * delta + 1,
                )
    return table


ALL_EXPERIMENTS = {
    "E1": e01_improved_randomized,
    "E2": e02_basic_randomized,
    "E3": e03_deterministic,
    "E4": e04_eps_deterministic,
    "E5": e05_eps_g_coloring,
    "E6": e06_splitting,
    "E7": e07_similarity,
    "E8": e08_sampling,
    "E9": e09_slack,
    "E10": e10_finish,
    "E11": e11_learn_palette,
    "E12": e12_blocked_phases,
    "E13": e13_linial,
    "E14": e14_crossover,
    "E15": e15_bandwidth,
    "E16": e16_trial_eps,
    "E17": e17_luby_mis,
    "E18": e18_colors,
}


def e19_ablation(seed: int = 19) -> ExperimentTable:
    """Ablation of the randomized algorithm's design choices.

    DESIGN.md calls out three load-bearing mechanisms: the Reduce
    ladder (colored helpers), the similarity filter (exact vs
    sampled), and the initial random trials.  This experiment runs
    Improved-d2-Color on the Hoffman–Singleton graph (G² complete —
    the regime the helpers exist for) with each mechanism varied.
    """
    table = ExperimentTable(
        "E19",
        "Ablations on the dense extremal instance",
        "Sec. 2: helpers and similarity filtering drive progress "
        "when neighborhoods are dense",
        ["variant", "rounds", "colors", "complete"],
    )
    graph = hoffman_singleton()
    baseline = improved_d2_color(
        graph, seed=seed, allow_deterministic_fallback=False
    )
    table.add_row(
        "baseline (practical constants)",
        baseline.rounds,
        baseline.colors_used,
        baseline.complete,
    )
    _check_valid(table, graph, baseline, "baseline")

    # Fewer initial trials: the ladder + finish must absorb the load.
    fewer = improved_d2_color(
        graph,
        seed=seed,
        constants=Constants.practical().scaled(c0=1.0),
        allow_deterministic_fallback=False,
    )
    table.add_row(
        "c0=1 (few initial trials)",
        fewer.rounds,
        fewer.colors_used,
        fewer.complete,
    )
    _check_valid(table, graph, fewer, "c0=1")

    # More aggressive activation/query probabilities.
    aggressive = improved_d2_color(
        graph,
        seed=seed,
        constants=Constants.practical().scaled(
            act_c=1.0, query_c=0.5
        ),
        allow_deterministic_fallback=False,
    )
    table.add_row(
        "aggressive act/query",
        aggressive.rounds,
        aggressive.colors_used,
        aggressive.complete,
    )
    _check_valid(table, graph, aggressive, "aggressive")

    # Shorter ladder (higher floor): LearnPalette takes over earlier.
    short = improved_d2_color(
        graph,
        seed=seed,
        constants=Constants.practical().scaled(c2=8.0),
        allow_deterministic_fallback=False,
    )
    table.add_row(
        "c2=8 (short ladder)",
        short.rounds,
        short.colors_used,
        short.complete,
    )
    _check_valid(table, graph, short, "short ladder")

    # Handler-based LearnPalette instead of flooding.
    handlers = improved_d2_color(
        graph,
        seed=seed,
        allow_deterministic_fallback=False,
        force_learn_handlers=True,
    )
    table.add_row(
        "handler LearnPalette",
        handlers.rounds,
        handlers.colors_used,
        handlers.complete,
    )
    _check_valid(table, graph, handlers, "handlers")
    table.add_check(
        "all ablations complete the coloring",
        all(row[3] for row in table.rows),
    )
    return table


ALL_EXPERIMENTS["E19"] = e19_ablation


def e20_conformance(seed: int = 20, backend=None) -> ExperimentTable:
    """Differential conformance sweep of the whole registry.

    Runs every registered algorithm on every scenario in the
    conformance corpus (including the adversarial generators) and
    asserts the shared contract: checker-valid colorings within each
    spec's palette bound, metered bandwidth, and per-seed
    repeatability.  Algorithms added to the registry are swept
    automatically.

    ``backend`` is forwarded to :func:`run_conformance`: pass a
    :class:`~repro.exec.sweep.SweepBackend` and the whole matrix fans
    out across workers with identical results.
    """
    from repro.conformance import build_corpus, run_conformance

    table = ExperimentTable(
        "E20",
        "Registry × scenario conformance",
        "All registered algorithms solve the same problem: a valid "
        "d2-coloring within their palette bound, under CONGEST "
        "bandwidth metering",
        ["scenario", "algorithms", "colors(min..max)", "failures"],
    )
    corpus = build_corpus()
    report = run_conformance(
        scenarios=corpus,
        seed=seed,
        check_repeatability=True,
        backend=backend,
    )
    by_scenario: Dict[str, list] = {}
    for record in report.records:
        by_scenario.setdefault(record.scenario, []).append(record)
    for scenario in corpus:
        records = by_scenario.get(scenario.name, [])
        if not records:
            continue
        colors = [r.colors_used for r in records]
        failures = [r for r in records if not r.ok]
        table.add_row(
            scenario.name,
            len(records),
            f"{min(colors)}..{max(colors)}",
            len(failures),
        )
    table.add_check(
        "registry lists >= 8 algorithm specs",
        len(registry.ALGORITHMS) >= 8,
    )
    table.add_check(
        "every spec ran on >= 10 scenarios",
        min(
            sum(1 for r in report.records if r.algorithm == spec.name)
            for spec in registry.ALGORITHMS
        )
        >= 10,
    )
    table.add_check("all conformance records ok", report.ok)
    if not report.ok:
        table.add_note(report.explain())
    return table


ALL_EXPERIMENTS["E20"] = e20_conformance


def e21_backends(
    seed: int = 21,
    timing_repeats: int = 3,
    sweep_workers: int = 4,
) -> ExperimentTable:
    """Execution backends head-to-head (docs/BACKENDS.md).

    Runs message-heavy algorithms on the large-tier scenarios under
    every round-level backend and checks the two contracts of
    :mod:`repro.exec`: (1) equivalence — identical colorings and
    round counts on every backend; (2) speed — ``vectorized`` beats
    the ``reference`` generator loop wall-clock on the largest corpus
    scenario for the kernel-covered trial pipeline (best of
    ``timing_repeats``, unbounded policy).  A sweep-grid determinism
    check (same grid, 1 worker vs ``sweep_workers``) rides along.
    """
    import time

    from repro.exec import SweepBackend, grid_cells
    from repro.workloads import build_large_corpus

    table = ExperimentTable(
        "E21",
        "Execution backends head-to-head",
        "repro.exec: identical semantics on every backend; vectorized "
        "faster where a kernel covers the program",
        [
            "scenario",
            "n",
            "algorithm",
            "backend",
            "wall ms (best)",
            "rounds",
            "messages",
            "colors",
        ],
    )
    policy = BandwidthPolicy.unbounded()
    # Build each instance once; sort (scenario, graph) pairs by size.
    built = sorted(
        ((s, s.graph(seed)) for s in build_large_corpus()),
        key=lambda pair: pair[1].number_of_nodes(),
    )
    largest = built[-1][0]
    spec_names = ("trial", "naive-g2")
    backends = ("reference", "vectorized")
    best: Dict[tuple, float] = {}
    for scenario, graph in (built[0], built[-1]):
        n = graph.number_of_nodes()
        for spec_name in spec_names:
            spec = registry.get_algorithm(spec_name)
            results = {}
            for backend in backends:
                walls = []
                for _ in range(timing_repeats):
                    t0 = time.perf_counter()
                    result = spec.run(
                        graph, seed=seed, policy=policy, backend=backend
                    )
                    walls.append(time.perf_counter() - t0)
                results[backend] = result
                best[(scenario.name, spec_name, backend)] = min(walls)
                table.add_row(
                    scenario.name,
                    n,
                    spec_name,
                    backend,
                    round(min(walls) * 1000, 1),
                    result.rounds,
                    result.metrics.total_messages,
                    result.colors_used,
                )
            reference = results["reference"]
            for backend in backends[1:]:
                table.add_check(
                    f"{scenario.name}/{spec_name}: {backend} "
                    "coloring identical to reference",
                    reference.coloring == results[backend].coloring,
                )
                table.add_check(
                    f"{scenario.name}/{spec_name}: {backend} rounds "
                    "identical to reference",
                    reference.rounds == results[backend].rounds,
                )
    # The trial pipeline has a vectorized kernel; the array engine
    # must beat the per-node generator loop where it applies.
    table.add_check(
        f"{largest.name}/trial: vectorized beats reference wall-clock",
        best[(largest.name, "trial", "vectorized")]
        < best[(largest.name, "trial", "reference")],
    )

    # Sweep determinism: the same grid, serial vs fanned out.
    cells = grid_cells(
        specs=[
            registry.get_algorithm(name)
            for name in ("trial", "greedy-oracle", "deterministic-d2")
        ],
        seeds=(seed, seed + 1),
    )
    one = SweepBackend(executor="serial").run_grid(cells)
    many = SweepBackend(
        executor="thread", max_workers=sweep_workers
    ).run_grid(cells)
    table.add_check(
        f"sweep: {len(cells)}-cell grid byte-identical at 1 vs "
        f"{sweep_workers} workers",
        one.fingerprint() == many.fingerprint(),
    )
    table.add_check("sweep: all cells ran clean", one.ok and many.ok)
    table.add_note(
        f"sweep aggregate: {one.aggregate_metrics().summary()}"
    )
    return table


ALL_EXPERIMENTS["E21"] = e21_backends


def e22_sharded_sweep(
    seed: int = 22,
    num_shards: int = 3,
    checkpoint_dir: Optional[str] = None,
) -> ExperimentTable:
    """Sharded, resumable sweep execution (docs/WORKLOADS.md).

    Compiles a registry × workload grid to a shard manifest and
    checks the contracts of :mod:`repro.exec.shards` and
    :mod:`repro.exec.fleet`:
    (1) *equivalence* — the grid split into 1, 2, and ``num_shards``
    shards merges byte-identically (``SweepResult.fingerprint()`` and
    aggregate metrics) to the unsharded run; (2) *resumability* — a
    shard killed mid-flight completes from its per-cell checkpoint
    without recomputing finished cells; (3) *crash reclaim* — a fleet
    worker dying mid-shard with an unreleased lease has its shard
    reclaimed and finished by a survivor, merge still byte-identical;
    (4) *cache sharing* — the instance cache builds each referenced
    (workload, seed) instance exactly once for the whole grid, not
    once per cell.
    """
    import os
    import tempfile
    import time

    from repro.exec import (
        LeaseStore,
        ReclaimPolicy,
        SweepBackend,
        compile_manifest,
        grid_cells,
        merge_shards,
        run_fleet,
        run_fleet_worker,
        run_shard,
    )
    from repro.workloads import InstanceCache, get_workload

    table = ExperimentTable(
        "E22",
        "Sharded, resumable sweeps",
        "repro.exec.shards + repro.exec.fleet: a grid compiles to a "
        "deterministic shard manifest; shards run independently, "
        "checkpoint per cell, survive worker crashes via lease "
        "reclaim, and merge byte-identically to the unsharded run",
        ["shards", "cells", "resumed", "executed", "wall ms", "merge"],
    )
    specs = [
        registry.get_algorithm(name)
        for name in ("trial", "deterministic-d2", "greedy-oracle")
    ]
    corpus = [
        get_workload(name)
        for name in (
            "gnp24",
            "relay3x4",
            "powerlaw24",
            "sampling-slack24",
            "petersen",
        )
    ]
    cells = grid_cells(
        specs=specs, scenarios=corpus, seeds=(seed, seed + 1)
    )
    unsharded = SweepBackend(executor="serial").run_grid(cells)
    fingerprint = unsharded.fingerprint()

    with tempfile.TemporaryDirectory() as tmp:
        base = checkpoint_dir or tmp
        for k in (1, 2, num_shards):
            shard_dir = os.path.join(base, f"k{k}")
            t0 = time.perf_counter()
            merged = run_fleet(cells, k, shard_dir, num_workers=1)
            wall = (time.perf_counter() - t0) * 1000
            identical = merged.fingerprint() == fingerprint
            table.add_row(
                k, len(cells), 0, len(cells), round(wall, 1),
                "identical" if identical else "DIVERGED",
            )
            table.add_check(
                f"{k}-shard merge byte-identical to unsharded",
                identical,
            )
            table.add_check(
                f"{k}-shard aggregate metrics identical",
                repr(merged.aggregate_metrics())
                == repr(unsharded.aggregate_metrics()),
            )

        # Kill one shard after 3 cells, then resume it.
        resume_dir = os.path.join(base, "resume")
        manifest = compile_manifest(cells, 2)
        os.makedirs(resume_dir, exist_ok=True)
        manifest.save(resume_dir)
        partial = run_shard(manifest, 0, resume_dir, max_cells=3)
        resumed = run_shard(manifest, 0, resume_dir)
        run_shard(manifest, 1, resume_dir)
        merged = merge_shards(manifest, resume_dir)
        table.add_row(
            "2 (kill+resume)",
            len(cells),
            resumed.resumed,
            partial.executed + resumed.executed,
            "-",
            "identical"
            if merged.fingerprint() == fingerprint
            else "DIVERGED",
        )
        table.add_check(
            "killed shard resumed from checkpoint "
            f"(skipped {resumed.resumed} finished cells)",
            resumed.resumed == partial.executed == 3,
        )
        table.add_check(
            "resumed merge byte-identical to unsharded",
            merged.fingerprint() == fingerprint,
        )

        # Fleet crash reclaim: a worker claims shard 0, checkpoints
        # two cells, and dies without releasing its lease.  A
        # survivor with a fast reclaim policy must take the lease
        # over, finish the abandoned shard, and drain the rest.
        fleet_dir = os.path.join(base, "fleet")
        fleet_manifest = compile_manifest(cells, 2)
        os.makedirs(fleet_dir, exist_ok=True)
        fleet_manifest.save(fleet_dir)
        policy = ReclaimPolicy(
            stale_after=0.05, poll_interval=0.02, max_poll_interval=0.1
        )
        victim_store = LeaseStore(
            fleet_dir,
            fleet_manifest.grid_digest,
            worker_id="e22-victim",
            policy=policy,
        )
        victim_lease = victim_store.try_claim(0)
        run_shard(fleet_manifest, 0, fleet_dir, max_cells=2)
        # No heartbeat, no release: the victim is now dead.
        t0 = time.perf_counter()
        report = run_fleet_worker(
            fleet_manifest,
            fleet_dir,
            worker_id="e22-survivor",
            policy=policy,
            deadline=60.0,
        )
        fleet_wall = (time.perf_counter() - t0) * 1000
        merged = merge_shards(fleet_manifest, fleet_dir)
        fleet_identical = merged.fingerprint() == fingerprint
        table.add_row(
            "2 (fleet reclaim)",
            len(cells),
            report.resumed,
            report.executed,
            round(fleet_wall, 1),
            "identical" if fleet_identical else "DIVERGED",
        )
        table.add_check(
            "survivor reclaimed the dead worker's lease",
            0 in report.reclaimed and report.completed,
        )
        table.add_check(
            "survivor resumed past the victim's checkpointed cells",
            report.resumed == 2,
        )
        table.add_check(
            "fleet merge byte-identical to unsharded",
            fleet_identical,
        )
        assert victim_lease is not None  # claim on a fresh dir

    # Cache sharing: one instance build per (workload, seed), one per
    # seed-free workload, however many algorithm cells reference it.
    cache = InstanceCache()
    for cell in cells:
        cache.get(cell.workload, cell.seed)
    distinct = len({
        (c.workload, None if get_workload(c.workload).seed_free else c.seed)
        for c in cells
    })
    table.add_check(
        f"instance cache: {len(cells)} cells share {distinct} builds",
        cache.stats.builds == distinct
        and cache.stats.hits == len(cells) - distinct,
    )
    table.add_note(
        f"grid: {len(specs)} specs x {len(corpus)} workloads x 2 seeds"
        f" = {len(cells)} cells; manifest digest "
        f"{compile_manifest(cells, num_shards).grid_digest[:12]}..."
    )
    return table


ALL_EXPERIMENTS["E22"] = e22_sharded_sweep
