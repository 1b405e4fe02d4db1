"""Consumers of the constructions: graphs, partitions, and a random process.

A symmetric complete sum-free set S makes Cay(Z_n, S) an |S|-regular
triangle-free graph of diameter 2, splits Z_p into the three-part partition
{{0}, S, (S+S) \\ {0}} closed under part-wise sums, and conditions the
random sum-free process of repeatedly joining each non-sum with probability
one half.  Each claim is checked computationally here, never assumed; the
graph properties are checked at vertex 0 and extend to every vertex because
Cayley graphs are vertex-transitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from numpy.random import Generator, Philox

from ._bits import rotate
from ._parallel import require_workers, run_sharded
from ._primes import is_prime
from .errors import ConstructionError, DomainError, ParameterError
from .zn_core import CyclicSet, _sumset_bits, classify, negate, sumset

__all__ = [
    "CayleyGraph",
    "GraphProperties",
    "PartitionReport",
    "ProcessConfig",
    "SimulationReport",
    "cayley_graph",
    "graph_properties",
    "dioid_partition",
    "simulate_random_sumfree",
]


@dataclass(frozen=True)
class CayleyGraph:
    """Cay(Z_n, S): vertices Z_n, u ~ v iff u - v lands in S.

    Only S is stored; the neighbourhood of u is S rotated by u, built on
    demand, so nothing here costs O(n^2) bits unless the output does.
    S must omit 0 and be symmetric, so the graph is simple and undirected.
    """

    generators: CyclicSet

    def __post_init__(self):
        S = self.generators
        if 0 in S:
            raise DomainError("generator set must not contain 0")
        if negate(S).bits != S.bits:
            raise DomainError("generator set must be symmetric for an undirected graph")

    @property
    def n(self) -> int:
        return self.generators.modulus

    def _row(self, u: int) -> int:
        return rotate(self.generators.bits, u, self.n)

    def edges(self) -> List[Tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self._row(u) >> u + 1 << u + 1
            while row:
                low = row & -row
                out.append((u, low.bit_length() - 1))
                row ^= low
        return out

    def to_edge_list(self) -> str:
        return "\n".join(f"{u} {v}" for u, v in self.edges())

    def to_dot(self) -> str:
        lines = [f"graph cayley_{self.n} {{"]
        lines.extend(f"  {u} -- {v};" for u, v in self.edges())
        lines.append("}")
        return "\n".join(lines)


def cayley_graph(S: CyclicSet) -> CayleyGraph:
    """Build Cay(Z_n, S); S must be symmetric and omit 0 (simple graph)."""
    return CayleyGraph(S)


@dataclass(frozen=True)
class GraphProperties:
    degree: int
    regular: bool
    triangle_free: bool
    diameter: Optional[int]


def graph_properties(graph: CayleyGraph) -> GraphProperties:
    """Degree/regularity, triangle freeness, and diameter, all verified.

    Every property is checked at vertex 0 and extends to all vertices by
    vertex-transitivity (u -> u + c is an automorphism).  Each neighbourhood
    is a rotation of S, so the graph is |S|-regular.  A triangle through 0
    is a pair of neighbours a, b with b - a in S, so the graph is
    triangle-free iff (S + S) misses S.  Every vertex has the eccentricity
    of 0, found by one BFS over bitmasks; disconnected graphs report
    diameter None.
    """
    n = graph.n
    S = graph.generators.bits
    triangle_free = not _sumset_bits(S, S, n) & S
    full = (1 << n) - 1
    visited = frontier = 1
    diameter: Optional[int] = 0
    while visited != full:
        frontier = _sumset_bits(frontier, S, n) & ~visited
        if not frontier:
            diameter = None
            break
        visited |= frontier
        diameter += 1
    return GraphProperties(graph.generators.size, True, triangle_free, diameter)


@dataclass(frozen=True)
class PartitionReport:
    """The three-part partition {{0}, S, (S+S)\\{0}} and its axiom checks."""

    p: int
    parts: Tuple[CyclicSet, CyclicSet, CyclicSet]
    products: Tuple[Tuple[int, int, Tuple[int, ...]], ...]
    sums_are_part_unions: bool
    identity_part_ok: bool
    negation_closed: bool

    @property
    def all_axioms_ok(self) -> bool:
        return (
            self.sums_are_part_unions
            and self.identity_part_ok
            and self.negation_closed
        )

    @property
    def part_sizes(self) -> Tuple[int, int, int]:
        return tuple(part.size for part in self.parts)


def dioid_partition(S: CyclicSet) -> PartitionReport:
    """Split Z_p into {0}, S, (S+S)\\{0} and verify the partition axioms.

    Needs p >= 5 prime and S symmetric complete sum-free; under those
    hypotheses every part-wise sumset is a union of parts, {0} acts as the
    identity part, and each part equals its own negation.
    """
    p = S.modulus
    if p < 5 or not is_prime(p):
        raise DomainError(f"modulus must be a prime >= 5, got {p}")
    props = classify(S)
    if not (props.symmetric and props.sum_free and props.complete):
        raise DomainError(
            "partition needs a symmetric complete sum-free set, got "
            f"symmetric={props.symmetric} sum_free={props.sum_free} "
            f"complete={props.complete}"
        )
    zero = CyclicSet(p, 1)
    middle = sumset(S, S) - zero
    parts = (zero, S, middle)
    if sum(part.size for part in parts) != p:
        sizes = [part.size for part in parts]
        raise ConstructionError(f"parts of sizes {sizes} do not tile Z_{p}")

    products = []
    unions_ok = True
    for i, left in enumerate(parts):
        for j, right in enumerate(parts):
            total = sumset(left, right)
            indices = tuple(
                idx for idx, part in enumerate(parts) if part.bits & total.bits
            )
            covered = 0
            for idx in indices:
                covered |= parts[idx].bits
            if covered != total.bits:
                unions_ok = False
            products.append((i, j, indices))
    identity_ok = all(sumset(zero, part).bits == part.bits for part in parts)
    negation_ok = all(negate(part).bits == part.bits for part in parts)
    return PartitionReport(
        p=p,
        parts=parts,
        products=tuple(products),
        sums_are_part_unions=unions_ok,
        identity_part_ok=identity_ok,
        negation_closed=negation_ok,
    )


@dataclass(frozen=True)
class ProcessConfig:
    """One batch of random sum-free process runs.

    The process scans z = 1..horizon; z is free when it is not a sum of two
    already-joined elements (repetition allowed) and joins with probability
    one half.  An optional conditioning set restricts attention to runs
    staying inside M_S, the positive integers congruent to S mod n.
    """

    horizon: int
    trials: int
    seed: int
    conditioning: Optional[CyclicSet] = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ParameterError(f"horizon must be >= 1, got {self.horizon}")
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 1 << 64:
            raise ParameterError("seed must fit in an unsigned 64-bit word")


@dataclass(frozen=True)
class SimulationReport:
    """Aggregates over all trials; exact integer tallies, derived ratios."""

    config: ProcessConfig
    contained_trials: int
    joined_total: int

    @property
    def containment_rate(self) -> float:
        return self.contained_trials / self.config.trials

    @property
    def conditional_density(self) -> Optional[float]:
        if self.contained_trials == 0:
            return None
        return self.joined_total / (self.contained_trials * self.config.horizon)


def _trial_coins(seed: int, trial: int, horizon: int) -> int:
    """Coin bits for one trial; bit z = the coin for step z, z in [1, N].

    Streams are keyed by (seed, trial) with the block counter supplying the
    step dimension, so any trial sharding yields identical coins.
    """
    gen = Generator(Philox(key=[seed, trial]))
    raw = int.from_bytes(gen.bytes((horizon + 7) // 8), "little")
    return (raw & ((1 << horizon) - 1)) << 1


def _run_trial_block(
    horizon: int,
    seed: int,
    start: int,
    count: int,
    modulus: Optional[int],
    member_bits: Optional[int],
) -> Tuple[int, int]:
    """(contained trials, total joined among contained) for one block."""
    full = (1 << (horizon + 1)) - 1
    contained = 0
    joined_total = 0
    for trial in range(start, start + count):
        coins = _trial_coins(seed, trial, horizon)
        joined = 0
        sums = 0
        ok = True
        candidates = coins
        while candidates:
            low = candidates & -candidates
            z = low.bit_length() - 1
            if member_bits is not None and not member_bits >> (z % modulus) & 1:
                ok = False
                break
            joined |= low
            sums |= (joined << z) & full
            candidates = coins & ~sums & ~((low << 1) - 1)
        if ok:
            contained += 1
            joined_total += joined.bit_count()
    return contained, joined_total


def simulate_random_sumfree(
    config: ProcessConfig, *, workers: int = 1
) -> SimulationReport:
    """Run the seeded trials and tally containment and density.

    A trial is contained when every joined element lies in M_S; trials
    leaving M_S stop early since no later join can repair containment.
    Tallies are integers, so the report is identical for any worker count.
    """
    require_workers(workers)
    modulus = member_bits = None
    if config.conditioning is not None:
        modulus = config.conditioning.modulus
        member_bits = config.conditioning.bits
    chunk = -(-config.trials // workers)
    shards = [
        (config.horizon, config.seed, start, min(chunk, config.trials - start),
         modulus, member_bits)
        for start in range(0, config.trials, chunk)
    ]
    contained = 0
    joined_total = 0
    for part_contained, part_joined in run_sharded(_run_trial_block, shards, workers):
        contained += part_contained
        joined_total += part_joined
    return SimulationReport(config, contained, joined_total)
