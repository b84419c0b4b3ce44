"""All constants of the randomized algorithm in one place.

The paper fixes (Sec. 2.2): c0 = 3e/c1, c1 <= 1/(402e³), c2 "large
enough for concentration", c3 = 32/c7 with c7 >= 1/1,200,000
(Lemma 2.12), query probability 1/(6000φ), activation probability
τ/(8φ), similarity sampling rate c10·log n/Δ², and the XOR-lottery
filter width 2·log Δ - c11·log log n (Sec. 2.3).

Those values close union bounds as n → ∞; at laptop scale they make
per-phase progress probabilities ≈ 10⁻⁶.  Every mechanism is therefore
parameterized here, with two presets:

- :meth:`Constants.paper` — the published values, used by unit tests
  that check the *formulas* (phase counts, probabilities, thresholds);
- :meth:`Constants.practical` — scaled values used by integration
  runs and benches.  Scaling constants preserves every claim we
  measure (shape of round scaling, palette bounds, invariants), per
  DESIGN.md §3.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Constants:
    """Tunable constants of d2-Color / Improved-d2-Color."""

    name: str
    #: Step 2 runs ``ceil(c0 · log2 n)`` initial random trials.
    c0: float
    #: Reduce handles leeway ranges below ``c1 · Δ²`` (Sec. 2.2).
    c1: float
    #: Leeway floor ``c2 · log2 n``: below it, concentration fails and
    #: the final phase (Reduce(·,1) or LearnPalette) takes over.
    c2: float
    #: Reduce(φ, τ) runs ``ceil(c3 · (φ/τ)² · log2 n)`` phases.
    c3: float
    #: A query crosses a given 2-path with probability
    #: ``min(cap, query_c / φ)``  (paper: query_c = 1/6000).
    query_c: float
    #: A live node is active in a phase with probability
    #: ``min(1, act_c · τ / φ)``  (paper: act_c = 1/8).
    act_c: float
    #: Similarity sampling probability is ``c10 · log2 n / Δ²``.
    c10: float
    #: XOR-lottery filter keeps ``2·logΔ - c11·loglog n`` zero bits.
    c11: float
    #: Probability caps keeping practical presets sane on tiny graphs.
    query_cap: float = 0.5
    #: LearnPalette block count Z (paper: Δ); None = use Δ.
    learn_z: int | None = None

    # ------------------------------------------------------------------
    # presets

    @staticmethod
    def paper() -> "Constants":
        c1 = 1.0 / (402.0 * math.e**3)
        c7 = 1.0 / 1_200_000.0
        return Constants(
            name="paper",
            c0=3.0 * math.e / c1,
            c1=c1,
            c2=50.0,
            c3=32.0 / c7,
            query_c=1.0 / 6000.0,
            act_c=1.0 / 8.0,
            c10=100.0,
            c11=4.0,
        )

    @staticmethod
    def practical() -> "Constants":
        return Constants(
            name="practical",
            c0=4.0,
            c1=0.3,
            c2=2.0,
            c3=1.0,
            query_c=0.125,
            act_c=0.5,
            c10=8.0,
            c11=4.0,
        )

    def scaled(self, **overrides) -> "Constants":
        """A copy with selected fields replaced (for ablations)."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # derived quantities (same formulas for both presets)

    def initial_trials(self, n: int) -> int:
        """Number of Step-2 random color trials."""
        return max(1, math.ceil(self.c0 * math.log2(max(n, 2))))

    def leeway_start(self, delta: int) -> float:
        """The starting leeway bound c1·Δ² of the Reduce ladder."""
        return self.c1 * delta * delta

    def tau_floor(self, n: int) -> float:
        """The c2·log n floor where the Reduce ladder stops."""
        return self.c2 * math.log2(max(n, 2))

    def reduce_phases(self, phi: float, tau: float, n: int) -> int:
        """ρ = ceil(c3 · (φ/τ)² · log2 n) phases of Reduce-Phase."""
        ratio = phi / max(tau, 1.0)
        return max(
            1, math.ceil(self.c3 * ratio * ratio * math.log2(max(n, 2)))
        )

    def query_probability(self, phi: float) -> float:
        """Per-2-path query probability of Reduce-Phase step 1."""
        return min(self.query_cap, self.query_c / max(phi, 1.0))

    def activation_probability(self, phi: float, tau: float) -> float:
        """Probability a live node is active in a Reduce phase."""
        return min(1.0, self.act_c * tau / max(phi, 1.0))

    def small_graph_threshold(self, n: int) -> float:
        """Step 0: if Δ² < c2·log2 n, use the deterministic algorithm."""
        return self.c2 * math.log2(max(n, 2))

    def similarity_sample_probability(self, n: int, delta: int) -> float:
        """p = c10·log2 n / Δ² for the similarity-graph sample S."""
        delta_sq = max(delta * delta, 1)
        return min(1.0, self.c10 * math.log2(max(n, 2)) / delta_sq)

    def ladder(self, n: int, delta: int) -> list:
        """The (φ, τ) schedule of the main phase:
        τ ← c1Δ²; while τ > c2·log n: Reduce(2τ, τ); τ ← τ/2."""
        schedule = []
        tau = self.leeway_start(delta)
        floor = self.tau_floor(n)
        while tau > floor:
            schedule.append((2.0 * tau, tau))
            tau /= 2.0
        return schedule


#: Similarity parameter k for H = H_{2/3} (common >= (1-1/k)·Δ²).
K_H = 3
#: Similarity parameter k for Ĥ = H_{5/6}.
K_HHAT = 6
