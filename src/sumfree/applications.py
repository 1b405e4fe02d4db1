"""Consumers of the constructions: graphs, partitions, and a random process.

A symmetric complete sum-free set S makes Cay(Z_n, S) an |S|-regular
triangle-free graph of diameter 2, splits Z_p into the three-part partition
{{0}, S, (S+S) \\ {0}} closed under part-wise sums, and conditions the
random sum-free process of repeatedly joining each non-sum with probability
one half.  Each claim is checked computationally here, never assumed; the
graph properties are checked at vertex 0 and extend to every vertex because
Cayley graphs are vertex-transitive.  The process runs bit-sliced: a block
of trials shares one pass over the horizon, 64 trials to a uint64 word.
Unconditioned, or conditioned on an S that is not sum-free, a step that
can join takes its row of joins from its coins and its row of sums, then
pushes that row onto the sums ahead with two numpy calls; a block one
word wide steps on 1-D views, so the row is a numpy scalar.  When S is
sum-free mod n, as the odd residues are, no member of M_S is ever a sum in
a trial still inside M_S, because (S + S) misses S: such a trial joins
exactly the members whose coin is up, and only a non-member whose coin is
up can end containment, when no pair (i, z - i) of joined elements sums
to it.  So those blocks run no steps: a chunk's member rows of joins are
its coins, and one search over all its non-member steps looks for such
witness pairs in windows of i that double in size.  The steps outside M_S
are settled once per chunk of steps, and after each chunk a block keeps
only the trials still inside M_S once they fit in fewer words.  A trial's
coins are the words of its own Philox4x64-10 stream keyed (seed, trial);
the generator is counter-based, so one array computation draws the words
of every lane of a block, and numpy.random is never loaded.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ._bits import bit_positions
from ._parallel import require_workers, run_sharded, shard_ranges
from ._primes import is_prime
from .errors import ConstructionError, DomainError, ParameterError
from .zn_core import CyclicSet, _sumset_bits, classify, is_sum_free, is_symmetric, sumset

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

    Only S is stored; the neighbourhood of u is S shifted by u, listed on
    demand, so nothing here costs O(n^2) bits unless the output does.
    S must omit 0 and be symmetric, so the graph is simple and undirected.
    """

    generators: CyclicSet

    def __post_init__(self):
        S = self.generators
        if 0 in S:
            raise DomainError("generator set must not contain 0")
        if not is_symmetric(S):
            raise DomainError("generator set must be symmetric for an undirected graph")

    @property
    def n(self) -> int:
        return self.generators.modulus

    def _rows_above(self) -> Iterator[Tuple[str, List[str]]]:
        """The name of each vertex u with the names of its neighbours v > u,
        ascending: v = u + s for the members s of S below n - u (S omits
        0).  S is listed and the n names are written once, so a row costs a
        bisect and one lookup per edge."""
        members, n = bit_positions(self.generators.bits), self.n
        names = list(map(str, range(n)))
        for u in range(n):
            below = members[: bisect_left(members, n - u)]
            yield names[u], [names[u + s] for s in below]

    def to_edge_list(self) -> str:
        return "\n".join(
            f"{u} " + f"\n{u} ".join(above)
            for u, above in self._rows_above() if above
        )

    def to_dot(self) -> str:
        lines = [f"graph cayley_{self.n} {{"]
        lines.extend(
            f"  {u} -- " + f";\n  {u} -- ".join(above) + ";"
            for u, above in self._rows_above() if above
        )
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
    triangle_free = is_sum_free(graph.generators)
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
    negation_ok = all(is_symmetric(part) for part in parts)
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


# (shift, mask) for the six block swaps of a 64 x 64 bit-matrix transpose;
# mask keeps the low half of every 2 * shift bits
_TRANSPOSE_STAGES = (
    (32, 0x00000000FFFFFFFF),
    (16, 0x0000FFFF0000FFFF),
    (8, 0x00FF00FF00FF00FF),
    (4, 0x0F0F0F0F0F0F0F0F),
    (2, 0x3333333333333333),
    (1, 0x5555555555555555),
)


def _transpose_words(rows: np.ndarray) -> None:
    """Transpose every 64 x 64 bit block of a (64, C) uint64 array in place.

    Afterwards bit i of rows[j, c] is what bit j of rows[i, c] was.  Each
    stage swaps the off-diagonal sub-blocks of every 2s x 2s tile at once.
    """
    for shift, mask in _TRANSPOSE_STAGES:
        pairs = rows.reshape(32 // shift, 2, shift, -1)
        low, high = pairs[:, 0], pairs[:, 1]
        swap = ((low >> shift) ^ high) & mask
        high ^= swap
        low ^= swap << shift


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC 2011): the round multipliers of counter words 0 and 2, split into
# 32-bit halves as (half, multiplier, 1), and the key's per-round increments
_PHILOX_MASK32 = 0xFFFFFFFF
_PHILOX_MULTIPLIERS = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], np.uint64)
_PHILOX_HALVES = np.stack([_PHILOX_MULTIPLIERS & _PHILOX_MASK32, _PHILOX_MULTIPLIERS >> 32])
_PHILOX_BUMP = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], np.uint64)
# counter blocks of four words computed per pass; the temporaries of a
# pass take about 0.3 MiB
_PHILOX_SLAB = 1024
# the coin words a block draws at a time, in bytes, whatever its lane count
_COIN_BUFFER_BYTES = 64 << 10


def _philox_words(seed: int, trials: np.ndarray, first_word: int, count: int) -> np.ndarray:
    """Words first_word .. first_word + count - 1 of every trial's stream.

    Row i is the stream of Philox4x64-10 keyed (seed, trials[i]), as
    numpy's Philox(key=[seed, trial]).random_raw gives it: word w is element
    w % 4 of the block at counter (w // 4 + 1, 0, 0, 0).  The generator is
    counter-based, so each block is a pure function of its key and counter,
    and all the blocks asked for run as columns of one array computation,
    at most _PHILOX_SLAB at a time.  Each round's two 64 x 64 -> 128-bit
    products run together, from the 32-bit halves of the two counter words.
    The result may be a view into a few more words per row.
    """
    skip = first_word % 4
    blocks = -(-(skip + count) // 4)
    out = np.empty((len(trials), 4 * blocks), np.uint64)
    # column c is block c % blocks of trial c // blocks
    columns = out.reshape(-1, 4)
    for lo in range(0, len(columns), _PHILOX_SLAB):
        index = np.arange(lo, min(lo + _PHILOX_SLAB, len(columns)), dtype=np.uint64)
        key = np.empty((2, len(index)), np.uint64)
        key[0] = seed
        key[1] = trials[index // np.uint64(blocks)]
        # even holds counter words 0 and 2, the multiplied ones; odd 1 and 3
        even = np.zeros_like(key)
        even[0] = index % np.uint64(blocks) + np.uint64(first_word // 4 + 1)
        odd = np.zeros_like(key)
        halves = np.empty((2, 1) + key.shape, np.uint64)
        part = np.empty((2, 2) + key.shape, np.uint64)
        for round_ in range(10):
            if round_:
                key += _PHILOX_BUMP
            np.bitwise_and(even, _PHILOX_MASK32, out=halves[0, 0])
            np.right_shift(even, 32, out=halves[1, 0])
            # part[i, j] is half i of the words times half j of the multipliers
            np.multiply(halves, _PHILOX_HALVES, out=part)
            # the high word of each product, by the carries of its cross terms
            high = part[0, 0] >> 32
            high += part[1, 0]
            middle = high & _PHILOX_MASK32
            middle += part[0, 1]
            middle >>= 32
            high >>= 32
            high += part[1, 1]
            high += middle
            # words (hi1 ^ w1 ^ k0, lo1, hi0 ^ w3 ^ k1, lo0)
            low = even * _PHILOX_MULTIPLIERS
            even = high[::-1]
            even ^= odd
            even ^= key
            odd = low[::-1]
        block = columns[lo : lo + len(index)]
        block[:, 0::2] = even.T
        block[:, 1::2] = odd.T
    return out[:, skip : skip + count]


def _lane_coins(words: np.ndarray, steps: int) -> np.ndarray:
    """steps coins of every lane, bit-sliced, from its stream words.

    Row i of words holds the next stream words of lane i of the block.  Bit
    i of word w in row j of the result is coin j of lane 64 w + i, and the
    padding lanes past the last row are zero.  A trial's coins are the bits
    of its stream's words in order, the bits of
    Generator(Philox(key=[seed, trial])).bytes, so any sharding of the
    trials yields identical coins.  The words of every 64 lanes are
    transposed together, as one array of 64 x 64 bit blocks.
    """
    lanes, chunks = words.shape
    full, rest = divmod(lanes, 64)
    rows = np.zeros((64, -(-lanes // 64), chunks), np.uint64)
    # rows[j, g] holds the words of lane 64 g + j
    by_group = rows.transpose(1, 0, 2)
    by_group[:full] = words[: 64 * full].reshape(full, 64, chunks)
    if rest:
        by_group[full, :rest] = words[64 * full :]
    _transpose_words(rows.reshape(64, -1))
    # row j of group g and chunk c now holds coin 64 c + j of its 64 lanes
    return rows.transpose(2, 0, 1).reshape(64 * chunks, -1)[:steps]


def _lane_bits(words: np.ndarray) -> np.ndarray:
    """One uint8 per lane along the last axis: entry 64 w + i is bit i of word w.

    The words are read as little-endian bytes, so the lane order does not
    depend on the machine's byte order.
    """
    octets = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, axis=-1, bitorder="little")


def _grown(
    rows: np.ndarray, size: int, first: int, lanes: Optional[np.ndarray]
) -> np.ndarray:
    """size rows, zero but for rows[first:] at their own indices.

    With lanes given, only those lanes are kept, in order, in as few words
    as hold them.  The rows are unpacked 64 at a time, so the unpacked
    bits take 64 bytes per lane, not one byte per bit of rows.
    """
    if lanes is None:
        out = np.zeros((size, rows.shape[1]), np.uint64)
        out[first : len(rows)] = rows[first:]
        return out
    out = np.zeros((size, -(-len(lanes) // 64)), "<u8")
    octets = out.view(np.uint8)
    for lo in range(first, len(rows), 64):
        bits = _lane_bits(rows[lo : lo + 64]).take(lanes, axis=1)
        kept = np.packbits(bits, axis=1, bitorder="little")
        octets[lo : lo + len(kept), : kept.shape[1]] = kept
    return out.astype(np.uint64, copy=False)


def _first_lanes(count: int) -> np.ndarray:
    """Words whose first count lanes are set and whose padding lanes are clear."""
    words = np.full(-(-count // 64), np.iinfo(np.uint64).max, np.uint64)
    words[-1] >>= -count % 64
    return words


# the bytes one witness gather takes at a time, joined rows and their
# indices, whatever the block's width
_WITNESS_SLAB_BYTES = 128 << 10


def _unwitnessed(joined: np.ndarray, targets: np.ndarray, need: np.ndarray) -> np.ndarray:
    """The lanes of need[r] where targets[r] is no sum of two joined rows.

    A witness for a lane of row r is a pair (i, targets[r] - i), i >= 1,
    with both rows of joined holding that lane; the rows read all lie below
    targets[r].  The search runs over all the rows at once, taking i in
    windows of 16, 32, 64, ... values, and each window clears the lanes it
    witnesses.  A row with no lane left drops out, and so does a row whose
    i has passed targets[r] / 2, keeping the lanes left, since a pair with
    a larger i repeats one already tried.  A window may take such pairs for
    some rows, and a partner below 1 reads row 0, which is empty, so
    neither finds a false witness.  The gathered rows and their indices
    take at most about _WITNESS_SLAB_BYTES at a time: windows stop growing
    there, and the rows of a window are gathered in slabs under it.
    """
    need = need.copy()
    # a pair's partner row and its index
    pair_bytes = 8 * joined.shape[1] + 8
    widest = max(1, _WITNESS_SLAB_BYTES // pair_bytes)
    rows = np.arange(len(targets))
    lo, width = 1, min(16, widest)
    while True:
        # rows with a lane left and an i not yet tried up to targets / 2
        rows = rows[need[rows].any(axis=1) & (targets[rows] // 2 >= lo)]
        if not len(rows):
            return need
        hi = min(lo + width, int(targets[rows].max()) // 2 + 1)
        firsts = joined[lo:hi]
        slab = max(1, _WITNESS_SLAB_BYTES // (pair_bytes * (hi - lo)))
        for at in range(0, len(rows), slab):
            part = rows[at : at + slab]
            partners = targets[part, None] - np.arange(lo, hi)
            np.maximum(partners, 0, out=partners)
            pairs = joined[partners]
            pairs &= firsts
            need[part] &= ~np.bitwise_or.reduce(pairs, axis=1)
        lo, width = hi, min(2 * width, widest)


def _simulate_block(
    horizon: int,
    seed: int,
    start: int,
    count: int,
    modulus: Optional[int],
    member_bits: Optional[int],
    sum_free: bool,
) -> Tuple[int, int]:
    """(contained trials, total joined among contained) for one block.

    The block's trials run in lockstep over z = 1..horizon, trial start + i
    in bit i % 64 of word i // 64.  Row z of joined holds the trials that
    join z.  A trial leaves M_S at the first non-member z that is free for
    it, and since lanes never mix, a lane that has left may run on: the
    alive mask drops it from the tally at the end.  The steps run in
    chunks, and each chunk ends by clearing, in one operation, the alive
    bit of every trial that one of its non-member steps left free.  The
    first chunk is one coin word, 64 steps, and each later one doubles the
    steps drawn.  The block stops once no trial is left, and when the trials
    left fit in fewer words it keeps only their lanes.

    Unconditioned, or when S is not sum-free, row z of sums holds the
    trials where z is already a sum of two joined elements, and only member
    steps run one by one: z joins where its coin is up and it is not yet a
    sum, and two numpy calls push the row of joins, making z + j a sum
    wherever j is joined too.  A block one word wide steps on 1-D views of
    its one column, so the row is a numpy scalar and a step costs a few
    scalar operations besides those two calls; a wider block steps on whole
    rows.  The sums row of a non-member step is final once the step has
    passed, so the chunk's end reads which of them were free.

    When S is sum-free, as the caller decides once for every block, no
    member is ever a sum in a trial still inside M_S: a sum of two members
    lies in S + S mod n, which misses S.  So such a trial joins exactly the
    members whose coin is up, and the member rows of a chunk's joined are
    its coins, with no sums kept and no step run.  Only a non-member step
    whose coin is up can end containment, when no pair (i, z - i) of joined
    rows witnesses z as a sum, and _unwitnessed searches the pairs of all
    such steps of the chunk at once, for the lanes alive at its start.

    The coins come from a buffer of stream words, one row per lane, that
    _philox_words refills about _COIN_BUFFER_BYTES at a time, and never
    past the horizon; a repack keeps the buffer rows of the lanes it keeps,
    so no word of a trial is drawn twice and none is drawn once the trial
    is dropped.  Memory follows the steps run: sums and joined hold up to
    twice the steps drawn (joined alone, up to the steps drawn, when S is
    sum-free, with witness gathers of about _WITNESS_SLAB_BYTES), and
    coins the current chunk and the buffer.
    """
    trials = np.arange(start, start + count, dtype=np.uint64)
    # the stream words not yet used: row i starts at word drawn // 64 of the
    # stream of trials[i]
    buffer = np.empty((count, 0), np.uint64)
    alive = _first_lanes(count)
    sums = joined = np.zeros((1, len(alive)), np.uint64)
    if sum_free:
        # member[r] for the residues r that steps 1..horizon reach
        reached = min(modulus, horizon + 1)
        member = np.zeros(reached, bool)
        member[bit_positions(member_bits & ((1 << reached) - 1))] = True
    drawn = 0
    while drawn < horizon:
        lanes = None
        live = int(np.bitwise_count(alive).sum())
        if -(-live // 64) < len(alive):
            # the trials left fit in fewer words: keep only their lanes
            lanes = np.flatnonzero(_lane_bits(alive))
            trials, buffer = trials[lanes], buffer[lanes]
            alive = _first_lanes(live)
        steps = min(horizon, max(64, 2 * drawn)) - drawn
        # a push from step z writes sums up to row min(2z, horizon); the
        # witness search reads no row past the steps drawn
        rows = drawn + steps if sum_free else min(horizon, 2 * (drawn + steps))
        # views of the old rows would keep them alive through the copy;
        # the new coins wait until the old sums and joined are gone
        coins = free = reach = scratch = sums_view = joined_view = None
        # only the sums of the steps to come and the joins made are kept
        if not sum_free:
            sums = _grown(sums, rows + 1, drawn + 1, lanes)
        joined = _grown(joined[: drawn + 1], rows + 1, 0, lanes)
        chunks = -(-steps // 64)
        if not buffer.size:
            # the words drawn are used up: draw this chunk's, and those of
            # the chunks after it, each ending at twice the step where the
            # one before ends, while the buffer size holds them all at 64
            # steps to a lane's 8-byte word
            capacity = 8 * _COIN_BUFFER_BYTES // len(trials)
            end = drawn + steps
            while end < horizon and 2 * end - drawn <= capacity:
                end *= 2
            words = -(-min(end, horizon) // 64) - drawn // 64
            # the used-up array goes before the new one comes
            buffer = None
            buffer = _philox_words(seed, trials, drawn // 64, words)
        coins = _lane_coins(buffer[:, :chunks], steps)
        buffer = buffer[:, chunks:]
        first = drawn + 1
        drawn += steps
        if sum_free:
            inside = member[np.arange(first, drawn + 1) % modulus]
            joined[first:][inside] = coins[inside]
            outside = np.flatnonzero(~inside)
            left = _unwitnessed(joined, outside + first, coins[outside] & alive)
            alive &= ~np.bitwise_or.reduce(left, axis=0)
        else:
            # a one-word block steps on 1-D views of its one column, so a
            # step's row is a numpy scalar, not a one-element array
            column = 0 if len(alive) == 1 else slice(None)
            sums_view, joined_view = sums[:, column], joined[:, column]
            coins = coins[:, column]
            # min(z, horizon - z) rows at most
            scratch = np.empty((rows // 2, len(alive)), np.uint64)[:, column]
            outside = []
            for z in range(first, drawn + 1):
                if member_bits is not None and not member_bits >> (z % modulus) & 1:
                    outside.append(z)
                    continue
                free = coins[z - first] & ~sums_view[z]
                joined_view[z] = free
                # z + j is a sum in every trial holding both j and z
                span = z if z < horizon - z else horizon - z
                reach = sums_view[z + 1 : z + 1 + span]
                reach |= np.bitwise_and(joined_view[1 : span + 1], free, out=scratch[:span])
            if outside:
                # the sums rows of the chunk are final: a trial has left if
                # a non-member step of it had its coin up and was no sum
                outside = np.array(outside)
                left = ~sums_view[outside]
                left &= coins[outside - first]
                alive &= ~np.bitwise_or.reduce(left, axis=0)
        if not alive.any():
            return 0, 0
    joined &= alive
    return int(np.bitwise_count(alive).sum()), int(np.bitwise_count(joined).sum())


def simulate_random_sumfree(
    config: ProcessConfig, *, workers: int = 1
) -> SimulationReport:
    """Run the seeded trials and tally containment and density.

    A trial is contained when every joined element lies in M_S; no later
    join can repair containment, so a block drops the trials that have
    left M_S once the rest fit in fewer words, and stops when none is left.
    The trials run in blocks of whole 64-trial words fixed by the trial
    count, each block in lockstep, with memory that grows with the steps
    it runs, not with the horizon.  Whether S is sum-free mod n is decided
    once here, so every block takes the same path, and the witness search
    it picks leaves every coin and tally as the step-by-step push has them.
    Tallies are integers summed over lanes, so the report is identical for
    any worker count.
    """
    require_workers(workers)
    modulus = member_bits = None
    sum_free = False
    if config.conditioning is not None:
        modulus = config.conditioning.modulus
        member_bits = config.conditioning.bits
        sum_free = is_sum_free(config.conditioning)
    shards = [
        (config.horizon, config.seed, block.start, len(block), modulus, member_bits, sum_free)
        for block in shard_ranges(config.trials)
    ]
    contained = 0
    joined_total = 0
    for part_contained, part_joined in run_sharded(_simulate_block, shards, workers):
        contained += part_contained
        joined_total += part_joined
    return SimulationReport(config, contained, joined_total)
