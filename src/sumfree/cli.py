"""Command-line front end.

Every subcommand prints one JSON document on stdout (graph exports may
print DOT or edge-list text instead) and keeps diagnostics on stderr, so
output is safe to pipe.  Exit status 0 means the command ran and every
hard mathematical assertion passed; 1 means a domain error or a falsified
check, with a structured error payload; 2 is argparse's usage failure.
Asymptotic-claim and hypothesis flags are data, never exit conditions.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from .applications import (
    ProcessConfig,
    cayley_graph,
    dioid_partition,
    graph_properties,
    simulate_random_sumfree,
)
from .errors import DomainError, SumfreeError
from .interval_ap_family import (
    IntervalAPParameters,
    build_small,
    density_choice,
    size_ladder,
)
from .search_oracle import (
    DilationClass,
    characterization_probe,
    exhaustive_max_sum_free,
    exhaustive_scsf,
    verify_st_equivalence,
)
from .special_sets import enumerate_special, predicted_scsf_count
from .st_family import STParameters, TCandidate, build_st
from .zn_core import CyclicSet, classify, set_from_json, set_to_json

__all__ = ["CommandEnvelope", "dispatch", "main"]


@dataclass
class CommandEnvelope:
    """What one invocation produced, before rendering."""

    payload: object
    diagnostics: Dict[str, object] = field(default_factory=dict)
    exit_status: int = 0
    text: bool = False
    pretty: bool = False

    def rendered(self) -> str:
        if self.text:
            return str(self.payload)
        if self.pretty:
            return json.dumps(self.payload, indent=2)
        return json.dumps(self.payload, separators=(",", ":"))


def _parse_members(raw: str) -> List[int]:
    raw = raw.strip()
    if not raw:
        return []
    try:
        return [int(piece) for piece in raw.split(",")]
    except ValueError:
        raise DomainError(f"expected comma-separated integers, got {raw!r}")


def _load_set(n: int, set_arg: Optional[str], file_arg: Optional[str]) -> CyclicSet:
    if (set_arg is None) == (file_arg is None):
        raise DomainError("provide exactly one of --set and --set-file")
    if file_arg is not None:
        try:
            with open(file_arg, "r", encoding="utf-8") as handle:
                obj = json.load(handle)
        except (OSError, ValueError) as exc:
            raise DomainError(f"cannot read set file {file_arg}: {exc}")
        loaded = set_from_json(obj)
        if loaded.modulus != n:
            raise DomainError(
                f"set file has n = {loaded.modulus}, command says n = {n}"
            )
        return loaded
    return CyclicSet.from_elements(n, _parse_members(set_arg))


def _cmd_verify(args: argparse.Namespace) -> CommandEnvelope:
    S = _load_set(args.n, args.set, args.set_file)
    return CommandEnvelope(asdict(classify(S)))


def _cmd_st_build(args: argparse.Namespace) -> CommandEnvelope:
    params = STParameters(args.n, args.s)
    T = TCandidate.from_members(params.t, _parse_members(args.set))
    S = build_st(params, T)
    payload = {
        "n": args.n,
        "s": args.s,
        "t": params.t,
        "set": set_to_json(S),
        "properties": asdict(classify(S)),
    }
    diagnostics = {}
    if not params.theorem_valid:
        diagnostics["hypotheses_unmet"] = "outside the proven range 2n <= 7s - 2"
    return CommandEnvelope(payload, diagnostics)


def _cmd_st_equiv(args: argparse.Namespace) -> CommandEnvelope:
    report = verify_st_equivalence(
        args.n, args.s, budget=args.budget, workers=args.threads
    )
    payload = {**asdict(report), "ok": report.ok}
    return CommandEnvelope(payload, exit_status=0 if report.ok else 1)


def _cmd_special_enum(args: argparse.Namespace) -> CommandEnvelope:
    enum = enumerate_special(args.t, budget=args.budget, workers=args.threads)
    payload: Dict[str, object] = {"t": enum.t, "g": enum.g}
    if not args.count_only:
        payload["sets"] = enum.as_lists()
    return CommandEnvelope(payload)


def _cmd_special_predict(args: argparse.Namespace) -> CommandEnvelope:
    pc = predicted_scsf_count(args.p, args.r, budget=args.budget)
    diagnostics = {
        "note": "counting formula is asymptotic in p; never certified at CLI scale"
    }
    return CommandEnvelope(asdict(pc), diagnostics)


def _cmd_small_build(args: argparse.Namespace) -> CommandEnvelope:
    params = IntervalAPParameters(t=args.t, d=args.d, k=args.k, a=args.variant)
    S = build_small(params)
    payload = {
        "t": params.t,
        "d": params.d,
        "k": params.k,
        "variant": params.a,
        "n": params.n,
        "size": S.size,
        "set": set_to_json(S),
    }
    return CommandEnvelope(payload)


def _cmd_ladder(args: argparse.Namespace) -> CommandEnvelope:
    ladder = size_ladder(args.n)
    rungs = []
    for params in ladder.rungs:
        S = build_small(params)
        rungs.append(
            {
                "t": params.t,
                "d": params.d,
                "k": params.k,
                "size": S.size,
                "set": S.elements(),
            }
        )
    return CommandEnvelope({"n": ladder.n, "rungs": rungs})


def _cmd_density(args: argparse.Namespace) -> CommandEnvelope:
    choice = density_choice(args.n, args.alpha, refine=not args.ladder_only)
    S = build_small(choice)
    payload = {
        "n": args.n,
        "alpha": args.alpha,
        "t": choice.t,
        "d": choice.d,
        "k": choice.k,
        "variant": choice.a,
        "size": S.size,
        "density": S.size / args.n,
        "gap": abs(S.size / args.n - args.alpha),
        "set": S.elements(),
    }
    return CommandEnvelope(payload)


def _classes_json(classes: Tuple[DilationClass, ...]) -> List[Dict[str, object]]:
    return [
        {"representative": set_to_json(c.representative), "orbit_size": c.orbit_size}
        for c in classes
    ]


def _cmd_search_exhaustive(args: argparse.Namespace) -> CommandEnvelope:
    catalog = exhaustive_scsf(
        args.n, size_filter=args.size, budget=args.budget, workers=args.threads
    )
    payload: Dict[str, object] = {
        "n": catalog.n,
        "size_filter": catalog.size_filter,
        "count": len(catalog.members),
        "members": [set_to_json(member) for member in catalog.members],
    }
    if args.classes:
        payload["classes"] = _classes_json(catalog.classes)
    return CommandEnvelope(payload)


def _cmd_search_maxsumfree(args: argparse.Namespace) -> CommandEnvelope:
    catalog = exhaustive_max_sum_free(args.p, budget=args.budget)
    payload = {
        "p": catalog.p,
        "max_size": catalog.max_size,
        "count": len(catalog.members),
        "members": [set_to_json(member) for member in catalog.members],
        "classes": _classes_json(catalog.classes),
    }
    return CommandEnvelope(payload)


def _cmd_search_probe(args: argparse.Namespace) -> CommandEnvelope:
    report = characterization_probe(
        args.p, args.s, budget=args.budget, workers=args.threads
    )
    predicted = None
    if report.predicted is not None:
        predicted = {
            "r": report.predicted.r,
            "g": report.predicted.g,
            "size": report.predicted.size,
            "count": report.predicted.count,
            "asymptotic_claim": report.predicted.asymptotic_claim,
            "vacuous": report.predicted.vacuous,
        }
    payload = {
        "p": report.p,
        "s": report.s,
        "t": report.t,
        "definition_valid": report.definition_valid,
        "theorem_valid": report.theorem_valid,
        "special_count": report.special_count,
        "catalog_count": report.catalog_count,
        "construction_count": report.construction_count,
        "matched_count": report.matched_count,
        "catalog_only": [set_to_json(member) for member in report.catalog_only],
        "construction_only": [
            set_to_json(member) for member in report.construction_only
        ],
        "exact_match": report.exact_match,
        "predicted": predicted,
    }
    diagnostics = {}
    if not report.theorem_valid:
        diagnostics["hypotheses_unmet"] = (
            "characterization compared outside its proven range; evidence only"
        )
    return CommandEnvelope(payload, diagnostics)


def _cmd_cayley(args: argparse.Namespace) -> CommandEnvelope:
    S = _load_set(args.n, args.set, args.set_file)
    graph = cayley_graph(S)
    if args.format == "dot":
        return CommandEnvelope(graph.to_dot(), text=True)
    if args.format == "edges":
        return CommandEnvelope(graph.to_edge_list(), text=True)
    props = graph_properties(graph)
    # the diameter is always exact; "diameter_sampled" stays so the payload
    # bytes pinned by tests/test_cli.py and perfbench/golden.json hold
    payload = {"n": graph.n, **asdict(props), "diameter_sampled": False}
    return CommandEnvelope(payload)


def _cmd_dioid(args: argparse.Namespace) -> CommandEnvelope:
    S = _load_set(args.p, args.set, args.set_file)
    report = dioid_partition(S)
    payload = {
        "p": report.p,
        "part_sizes": list(report.part_sizes),
        "parts": [set_to_json(part) for part in report.parts],
        "products": [
            [i, j, list(indices)] for i, j, indices in report.products
        ],
        "axioms": {
            "sums_are_part_unions": report.sums_are_part_unions,
            "identity_part": report.identity_part_ok,
            "negation_closed": report.negation_closed,
        },
        "all_ok": report.all_axioms_ok,
    }
    return CommandEnvelope(payload, exit_status=0 if report.all_axioms_ok else 1)


def _cmd_simulate_cameron(args: argparse.Namespace) -> CommandEnvelope:
    conditioning = None
    if (args.mod is None) != (args.set is None):
        raise DomainError("--mod and --set go together")
    if args.mod is not None:
        conditioning = CyclicSet.from_elements(args.mod, _parse_members(args.set))
    config = ProcessConfig(
        horizon=args.horizon,
        trials=args.trials,
        seed=args.seed,
        conditioning=conditioning,
    )
    report = simulate_random_sumfree(config, workers=args.threads)
    payload = {
        "horizon": config.horizon,
        "trials": config.trials,
        "seed": config.seed,
        "mod": args.mod,
        "set": conditioning.elements() if conditioning is not None else None,
        "contained_trials": report.contained_trials,
        "joined_total": report.joined_total,
        "containment_rate": report.containment_rate,
        "conditional_density": report.conditional_density,
    }
    return CommandEnvelope(payload)


def _leaf(subparsers, name: str, handler, *,
          budget: bool = False, threads: bool = False, **kwargs):
    """Add one command; only commands that pass them on get --budget/--threads."""
    parser = subparsers.add_parser(name, **kwargs)
    parser.set_defaults(handler=handler)
    parser.add_argument("--pretty", action="store_true", help="indent the JSON output")
    if budget:
        parser.add_argument(
            "--budget", type=int, default=None, help="override enumeration budgets"
        )
    if threads:
        parser.add_argument(
            "--threads", type=int, default=1, help="worker process cap (default 1)"
        )
    return parser


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="sumfree",
        description="Symmetric complete sum-free sets: construct, verify, "
        "enumerate, search, export, simulate.",
    )
    top = root.add_subparsers(dest="topcommand", required=True)

    p = _leaf(top, "verify", _cmd_verify, help="evaluate the three predicates on a set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set")
    p.add_argument("--set-file")

    st = top.add_parser("st", help="central-interval construction S_T")
    st_sub = st.add_subparsers(dest="subcommand", required=True)
    p = _leaf(st_sub, "build", _cmd_st_build, help="build S_T from the offset window T")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--set", required=True, help="members of T, e.g. \"0,4,5,6\"")
    p = _leaf(st_sub, "equiv", _cmd_st_equiv, budget=True, threads=True,
              help="exhaustively check special T <=> valid S_T at one (n, s)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)

    special = top.add_parser("special", help="special offset windows")
    special_sub = special.add_subparsers(dest="subcommand", required=True)
    p = _leaf(special_sub, "enum", _cmd_special_enum, budget=True, threads=True,
              help="enumerate all t-special sets")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p = _leaf(special_sub, "predict", _cmd_special_predict, budget=True,
              help="asymptotic count of one size class in Z_p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    small = top.add_parser("small", help="interval-plus-progression construction")
    small_sub = small.add_subparsers(dest="subcommand", required=True)
    p = _leaf(small_sub, "build", _cmd_small_build,
              help="build the set for explicit (t, d, k, variant)")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--variant", type=int, choices=(11, 14), required=True)

    p = _leaf(top, "ladder", _cmd_ladder, help="all rung sets for one modulus")
    p.add_argument("--n", type=int, required=True)

    p = _leaf(top, "density", _cmd_density,
              help="construction nearest a target density")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--ladder-only", action="store_true",
                   help="restrict candidates to the solver's ladder rungs")

    search = top.add_parser("search", help="exhaustive ground truth")
    search_sub = search.add_subparsers(dest="subcommand", required=True)
    p = _leaf(search_sub, "exhaustive", _cmd_search_exhaustive,
              budget=True, threads=True,
              help="all symmetric complete sum-free sets in Z_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--classes", action="store_true")
    p = _leaf(search_sub, "maxsumfree", _cmd_search_maxsumfree, budget=True,
              help="all maximum sum-free sets in Z_p")
    p.add_argument("--p", type=int, required=True)
    p = _leaf(search_sub, "probe", _cmd_search_probe, budget=True, threads=True,
              help="catalog vs construction evidence at one (p, s)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--s", type=int, required=True)

    p = _leaf(top, "cayley", _cmd_cayley, help="Cayley graph properties or export")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set")
    p.add_argument("--set-file")
    p.add_argument("--format", choices=("json", "dot", "edges"), default="json")

    p = _leaf(top, "dioid", _cmd_dioid, help="three-part partition axioms over Z_p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--set")
    p.add_argument("--set-file")

    simulate = top.add_parser("simulate", help="random sum-free process")
    simulate_sub = simulate.add_subparsers(dest="subcommand", required=True)
    p = _leaf(simulate_sub, "cameron", _cmd_simulate_cameron, threads=True,
              help="seeded Monte Carlo runs of the join-with-probability-1/2 process")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mod", type=int, default=None,
                   help="conditioning modulus (with --set)")
    p.add_argument("--set", default=None,
                   help="conditioning residues mod --mod")

    return root


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use.

    Parsing leaves an argparse parser as it was (every flag's default is
    immutable), so one parser serves every request a process makes.
    """
    return build_parser()


def dispatch(argv: List[str]) -> CommandEnvelope:
    """Parse argv, run the matching handler, and time it."""
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        envelope = args.handler(args)
    except SumfreeError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        envelope = CommandEnvelope({"error": error}, exit_status=1)
    envelope.diagnostics["elapsed_s"] = round(time.perf_counter() - started, 3)
    envelope.pretty = args.pretty
    return envelope


def main(argv: Optional[List[str]] = None) -> int:
    envelope = dispatch(sys.argv[1:] if argv is None else argv)
    try:
        print(envelope.rendered())
        # a reader that closed the pipe early shows up here, not at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; point it at devnull
        # so that flush has nowhere to fail (recipe from the signal docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    for key, value in envelope.diagnostics.items():
        print(f"{key}: {value}", file=sys.stderr)
    return envelope.exit_status


if __name__ == "__main__":
    sys.exit(main())
