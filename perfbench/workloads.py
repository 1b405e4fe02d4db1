"""Seeded request lists for the three benchmark workloads.

Every request a seed can produce is drawn from a fixed, finite universe
(``universe()``), so each one has a pinned stdout digest in
``golden.json`` whatever the seed, and ``verify`` requests carry their
exact expected stdout instead.  The seed only picks members of each
stratum and their order.  Strata are narrow, so every seed gives a pass of
about the same cost: the per-seed spread of a run stays small.

Set files are written under the work directory at set-up, outside the
timed passes.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("construct", "enumerate", "applications")

SET_DIR = "sets"


@dataclass(frozen=True)
class Request:
    """One CLI invocation and how to check what it prints."""

    family: str
    argv: Tuple[str, ...]
    # exact stdout when the benchmark can derive it; otherwise the pinned digest
    expected: Optional[str] = None
    # name of a seed-independent check in ``checks.ANCHORS``
    anchor: Optional[str] = None
    # index of an earlier request whose stdout this one must reproduce
    same_as: Optional[int] = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class SetFile:
    """A set file the requests read, built with the library at set-up."""

    path: str
    n: int
    elements: Tuple[int, ...]


@dataclass
class Workload:
    name: str
    seed: int
    requests: List[Request]
    set_files: Dict[str, SetFile]


def _pick(rng: random.Random, values: Sequence):
    return values[rng.randrange(len(values))]


def _grid(center: int, half_width: int, count: int) -> List[int]:
    step = max(1, 2 * half_width // (count - 1))
    return [center - half_width + i * step for i in range(count)]


# ----------------------------------------------------------------------------
# set builders (the library is imported lazily: src/ is put on sys.path first)


@lru_cache(maxsize=None)
def _ladder_set(n: int, rung: int) -> Tuple[int, ...]:
    from sumfree.interval_ap_family import build_small, size_ladder

    return tuple(build_small(size_ladder(n).rungs[rung], checked=False).elements())


@lru_cache(maxsize=None)
def _rung_sizes(n: int) -> Tuple[int, ...]:
    from sumfree.interval_ap_family import size_ladder

    return size_ladder(n).sizes


def _rung_count(n: int) -> int:
    return len(_rung_sizes(n))


@lru_cache(maxsize=None)
def _catalog(p: int) -> Tuple[Tuple[int, ...], ...]:
    from sumfree.search_oracle import exhaustive_scsf

    return tuple(tuple(member.elements()) for member in exhaustive_scsf(p).members)


def write_set_files(workdir: str, set_files: Dict[str, SetFile]) -> None:
    os.makedirs(os.path.join(workdir, SET_DIR), exist_ok=True)
    for set_file in set_files.values():
        with open(set_file.path, "w", encoding="utf-8") as handle:
            json.dump({"n": set_file.n, "elements": list(set_file.elements)}, handle)


def _verify_stdout(symmetric: bool, sum_free: bool, complete: bool, size: int) -> str:
    payload = {
        "symmetric": symmetric,
        "sum_free": sum_free,
        "complete": complete,
        "size": size,
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


# ----------------------------------------------------------------------------
# construct: large-modulus build and verify

LADDER_ALWAYS = 100_000
# one ladder per stratum besides n = 10^5; cost grows steeply with n, so
# each stratum is a narrow band
LADDER_STRATA = [_grid(12_000, 240, 7), _grid(25_000, 480, 7), _grid(40_000, 600, 7)]
# density: alpha = k / 240 at the middle of eight equal strata of [0, 1/3]
DENSITY_K = [10 * i + 5 for i in range(8)]
DENSITY_MODULI = _grid(99_400, 600, 4)
# verify: log-spaced modulus bands x four rung quartiles, so |S| runs from
# the sparse base rung to the densest rung at every scale
VERIFY_BANDS = [
    _grid(1_500, 60, 5),
    _grid(4_000, 100, 5),
    _grid(12_000, 200, 5),
    _grid(30_000, 300, 5),
    _grid(60_000, 400, 5),
    _grid(99_000, 500, 5),
]
PERTURBATIONS = ("drop-pair", "add-pair", "drop-one")


def _alpha_text(k: int) -> str:
    return f"{k / 240:.6f}"


def _ladder_path(workdir: str, n: int, rung: int) -> str:
    return os.path.join(workdir, SET_DIR, f"ladder-{n}-{rung}.json")


def _perturbed(n: int, elements: Sequence[int], kind: str, rng_value: int):
    """Apply one perturbation; returns (elements, expected stdout).

    For a symmetric complete sum-free S (so S + S is exactly the
    complement of S): dropping a pair {x, -x} leaves x uncovered, so the
    set stays symmetric and sum-free but is not complete; adding a pair
    {y, -y} from outside S keeps it complete but y is already a sum, so it
    is not sum-free; dropping one x != -x breaks symmetry and leaves x
    uncovered.
    """
    members = set(elements)
    if kind == "add-pair":
        outside = [y for y in range(1, n) if y not in members and 2 * y % n]
        y = outside[rng_value % len(outside)]
        members |= {y, n - y}
        return sorted(members), _verify_stdout(True, False, True, len(members))
    inside = [x for x in elements if 2 * x % n]
    x = inside[rng_value % len(inside)]
    members.discard(x)
    if kind == "drop-pair":
        members.discard(n - x)
        return sorted(members), _verify_stdout(True, True, False, len(members))
    return sorted(members), _verify_stdout(False, True, False, len(members))


def _quartile_rung(n: int, quartile: int) -> int:
    """The rung in the middle of the quartile: |S| grows with the rung."""
    return min(_rung_count(n) - 1, (2 * quartile + 1) * _rung_count(n) // 8)


def construct(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"construct:{seed}")
    requests: List[Request] = []
    set_files: Dict[str, SetFile] = {}

    for n in [LADDER_ALWAYS] + [_pick(rng, band) for band in LADDER_STRATA]:
        requests.append(Request("ladder", ("ladder", "--n", str(n))))

    modes = [False] * 4 + [True] * 4
    rng.shuffle(modes)
    for k, ladder_only in zip(DENSITY_K, modes):
        argv = ("density", "--n", str(_pick(rng, DENSITY_MODULI)), "--alpha", _alpha_text(k))
        requests.append(Request("density", argv + (("--ladder-only",) if ladder_only else ())))

    slots = [(band, quartile) for band in VERIFY_BANDS for quartile in range(4)]
    perturbed = set(rng.sample(range(len(slots)), len(slots) // 4))
    for index, (band, quartile) in enumerate(slots):
        n = _pick(rng, band)
        rung = _quartile_rung(n, quartile)
        elements = _ladder_set(n, rung)
        if index in perturbed:
            kind = _pick(rng, PERTURBATIONS)
            salt = rng.randrange(1 << 30)
            elements, expected = _perturbed(n, elements, kind, salt)
            path = os.path.join(workdir, SET_DIR, f"verify-{n}-{rung}-{kind}-{salt}.json")
            anchor = "verify-not-all-true"
        else:
            expected = _verify_stdout(True, True, True, len(elements))
            path = _ladder_path(workdir, n, rung)
            anchor = "verify-all-true"
        set_files[path] = SetFile(path, n, tuple(elements))
        requests.append(Request("verify", ("verify", "--n", str(n), "--set-file", path),
                                expected, anchor))

    rng.shuffle(requests)
    return Workload("construct", seed, requests, set_files)


def _construct_universe(workdir: str) -> List[Tuple[str, ...]]:
    out = [("ladder", "--n", str(n)) for n in [LADDER_ALWAYS] + sum(LADDER_STRATA, [])]
    for n in DENSITY_MODULI:
        for k in DENSITY_K:
            base = ("density", "--n", str(n), "--alpha", _alpha_text(k))
            out += [base, base + ("--ladder-only",)]
    return out


# ----------------------------------------------------------------------------
# enumerate: small-modulus exhaustive work

# t = 11 (over 2 s, a third of a pass) is left out so that a run holds
# enough passes to be steady on a shared 2-CPU machine
SPECIAL_T = range(6, 11)
# fixed moduli: cost doubles every two steps of n, so a drawn n would move
# the pass's cost and its latency ranks from seed to seed
EXHAUSTIVE_N = (32, 36, 40, 44, 48, 56)
EXHAUSTIVE_CLASSES = 3
EXHAUSTIVE_BUDGET = str(1 << 30)
MAXSUMFREE_P = (29, 31, 37, 41, 43)
# criterion 12: the (p, s) pairs of the desk-scale characterization probes
PROBE_PAIRS = ((29, 8), (31, 10), (37, 12), (41, 12), (43, 12))
EQUIV_T = range(5, 9)
PREDICT_PRIMES = (29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101)
# (r, p mod 3, requests): t = 3r + 1 when p = 1 mod 3, else 3r, so each
# slot repeats one t (7, then 9) across several p; t = 10 would cost 4x more
PREDICT_SLOTS = ((2, 1, 6), (3, 2, 4))
# seed-independent anchors: documented 3- and 4-special lists, criterion 8
ANCHOR_SPECIAL_T = (3, 4)
ANCHOR_MAXSUMFREE_P = (11, 13, 17, 19, 23)


def _equiv_argv(t: int, s: int) -> Tuple[str, ...]:
    # n - 3s + 1 = 2t, and s >= 4t keeps 2n <= 7s - 2 (the proven range)
    return ("st", "equiv", "--n", str(3 * s + 2 * t - 1), "--s", str(s))


def _exhaustive_argv(n: int, classes: bool) -> Tuple[str, ...]:
    argv: Tuple[str, ...] = ("search", "exhaustive", "--n", str(n))
    if n > 44:
        argv += ("--budget", EXHAUSTIVE_BUDGET)
    return argv + (("--classes",) if classes else ())


def enumerate_workload(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"enumerate:{seed}")
    requests: List[Request] = []
    for t in ANCHOR_SPECIAL_T:
        requests.append(Request("special_enum", ("special", "enum", "--t", str(t)),
                                anchor="documented-special"))
    for p in ANCHOR_MAXSUMFREE_P:
        requests.append(Request("search_maxsumfree", ("search", "maxsumfree", "--p", str(p)),
                                anchor="criterion-8"))

    count_only = set(rng.sample(list(SPECIAL_T), len(SPECIAL_T) // 2))
    for t in SPECIAL_T:
        argv = ("special", "enum", "--t", str(t))
        requests.append(Request("special_enum", argv + (("--count-only",) if t in count_only else ())))

    with_classes = set(rng.sample(EXHAUSTIVE_N, EXHAUSTIVE_CLASSES))
    for n in EXHAUSTIVE_N:
        requests.append(Request("search_exhaustive", _exhaustive_argv(n, n in with_classes)))

    for p in MAXSUMFREE_P:
        requests.append(Request("search_maxsumfree", ("search", "maxsumfree", "--p", str(p))))
    for p, s in PROBE_PAIRS:
        requests.append(Request("search_probe", ("search", "probe", "--p", str(p), "--s", str(s))))
    for t in EQUIV_T:
        requests.append(Request("st_equiv", _equiv_argv(t, 4 * t + rng.randrange(4))))
    for r, residue, count in PREDICT_SLOTS:
        for p in rng.sample([q for q in PREDICT_PRIMES if q % 3 == residue], count):
            requests.append(Request("special_predict",
                                    ("special", "predict", "--p", str(p), "--r", str(r))))

    rng.shuffle(requests)
    return Workload("enumerate", seed, requests, {})


def _enumerate_universe(workdir: str) -> List[Tuple[str, ...]]:
    out = [("special", "enum", "--t", str(t)) for t in ANCHOR_SPECIAL_T]
    for t in SPECIAL_T:
        out += [("special", "enum", "--t", str(t)),
                ("special", "enum", "--t", str(t), "--count-only")]
    for n in EXHAUSTIVE_N:
        out += [_exhaustive_argv(n, False), _exhaustive_argv(n, True)]
    for p in ANCHOR_MAXSUMFREE_P + MAXSUMFREE_P:
        out.append(("search", "maxsumfree", "--p", str(p)))
    for p, s in PROBE_PAIRS:
        out.append(("search", "probe", "--p", str(p), "--s", str(s)))
    for t in EQUIV_T:
        out += [_equiv_argv(t, 4 * t + i) for i in range(4)]
    for r, residue, _ in PREDICT_SLOTS:
        out += [("special", "predict", "--p", str(p), "--r", str(r))
                for p in PREDICT_PRIMES if p % 3 == residue]
    return out


# ----------------------------------------------------------------------------
# applications: consumers of the constructions

HORIZON = "5000"
SIM_SEEDS = range(1, 17)
CONDITIONED_TRIALS = "200"
UNCONDITIONED_TRIALS = "60"
CONDITIONED_REQUESTS = 3
UNCONDITIONED_REQUESTS = 2
# Cayley cost grows with n and with |S|, so each slot is a narrow band of n
# and the rungs drawn keep |S| / n inside CAYLEY_DENSITY
# the smallest band holds the request at the tail rank of a pass (ten
# heavier requests come after it: three larger Cayley graphs and six
# simulations), so it gets three requests plus the edge export at nearly
# equal cost, and the rank falls inside that group rather than at its edge
CAYLEY_BANDS = [(740, 749)] * 3 + [(1_170, 1_230), (1_650, 1_750), (2_240, 2_360)]
CAYLEY_DENSITY = (0.20, 0.23)
CAYLEY_CHOICES = 6
EDGES_BAND = CAYLEY_BANDS[0]
# 7 is left out: Z_7 has no symmetric complete sum-free set
DIOID_PRIMES = (5, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
DIOID_REQUESTS = 30


@lru_cache(maxsize=None)
def _cayley_choices(band: Tuple[int, int]) -> List[Tuple[int, int]]:
    """Up to CAYLEY_CHOICES (n, rung) pairs in the band, evenly spaced."""
    lo, hi = CAYLEY_DENSITY
    found = [(n, rung) for n in range(band[0], band[1] + 1)
             for rung, size in enumerate(_rung_sizes(n)) if lo <= size / n <= hi]
    step = max(1, len(found) // CAYLEY_CHOICES)
    return found[::step][:CAYLEY_CHOICES]


def _simulate_argv(sim_seed: int, conditioned: bool) -> Tuple[str, ...]:
    argv = ("simulate", "cameron", "--horizon", HORIZON, "--trials",
            CONDITIONED_TRIALS if conditioned else UNCONDITIONED_TRIALS,
            "--seed", str(sim_seed))
    # criterion 11 conditions on the odd residues
    return argv + (("--mod", "2", "--set", "1") if conditioned else ())


def _catalog_path(workdir: str, p: int, index: int) -> str:
    return os.path.join(workdir, SET_DIR, f"catalog-{p}-{index}.json")


def applications(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"applications:{seed}")
    requests: List[Request] = []
    set_files: Dict[str, SetFile] = {}

    sim_seeds = rng.sample(list(SIM_SEEDS), CONDITIONED_REQUESTS + UNCONDITIONED_REQUESTS)
    for i, sim_seed in enumerate(sim_seeds):
        requests.append(Request("simulate", _simulate_argv(sim_seed, i < CONDITIONED_REQUESTS)))

    for band in CAYLEY_BANDS:
        n, rung = _pick(rng, _cayley_choices(band))
        path = _ladder_path(workdir, n, rung)
        set_files[path] = SetFile(path, n, _ladder_set(n, rung))
        requests.append(Request("cayley", ("cayley", "--n", str(n), "--set-file", path)))
    n, rung = _pick(rng, _cayley_choices(EDGES_BAND))
    path = _ladder_path(workdir, n, rung)
    set_files[path] = SetFile(path, n, _ladder_set(n, rung))
    requests.append(Request("cayley", ("cayley", "--n", str(n), "--set-file", path,
                                       "--format", "edges")))

    for _ in range(DIOID_REQUESTS):
        p = _pick(rng, DIOID_PRIMES)
        index = rng.randrange(len(_catalog(p)))
        path = _catalog_path(workdir, p, index)
        set_files[path] = SetFile(path, p, _catalog(p)[index])
        requests.append(Request("dioid", ("dioid", "--p", str(p), "--set-file", path)))

    rng.shuffle(requests)
    # the first conditioned request again on two workers: same seed, same bytes
    first = next(i for i, r in enumerate(requests)
                 if r.family == "simulate" and "--mod" in r.argv)
    replica = requests[first].argv + ("--threads", "2")
    requests.append(Request("simulate", replica, same_as=first))
    return Workload("applications", seed, requests, set_files)


def _applications_universe(workdir: str) -> List[Tuple[str, ...]]:
    out = []
    for sim_seed in SIM_SEEDS:
        for conditioned in (True, False):
            out.append(_simulate_argv(sim_seed, conditioned))
        out.append(_simulate_argv(sim_seed, True) + ("--threads", "2"))
    for band in sorted(set(CAYLEY_BANDS)):
        for n, rung in _cayley_choices(band):
            out.append(("cayley", "--n", str(n), "--set-file", _ladder_path(workdir, n, rung)))
    for n, rung in _cayley_choices(EDGES_BAND):
        out.append(("cayley", "--n", str(n), "--set-file", _ladder_path(workdir, n, rung),
                    "--format", "edges"))
    for p in DIOID_PRIMES:
        for index in range(len(_catalog(p))):
            out.append(("dioid", "--p", str(p), "--set-file", _catalog_path(workdir, p, index)))
    return out


def universe_set_files(workdir: str) -> Dict[str, SetFile]:
    """Every set file a pinned request can name."""
    files: Dict[str, SetFile] = {}
    for band in set(CAYLEY_BANDS):
        for n, rung in _cayley_choices(band):
            path = _ladder_path(workdir, n, rung)
            files[path] = SetFile(path, n, _ladder_set(n, rung))
    for p in DIOID_PRIMES:
        for index, elements in enumerate(_catalog(p)):
            path = _catalog_path(workdir, p, index)
            files[path] = SetFile(path, p, elements)
    return files


GENERATORS = {
    "construct": construct,
    "enumerate": enumerate_workload,
    "applications": applications,
}

UNIVERSES = {
    "construct": _construct_universe,
    "enumerate": _enumerate_universe,
    "applications": _applications_universe,
}


def generate(name: str, seed: int, workdir: str) -> Workload:
    return GENERATORS[name](seed, workdir)


def universe(name: str, workdir: str) -> List[Tuple[str, ...]]:
    """Every argv a seed can draw for this workload, except ``verify``
    requests, whose exact stdout the generator derives."""
    return UNIVERSES[name](workdir)
