"""Correctness gate: pinned stdout digests and seed-independent anchors."""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, Dict, List, Optional

from workloads import Request

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
# seeds whose whole request list is pinned in order; develop against the
# first, keep the second as the hold-out a change was not written against
SHIPPED_SEEDS = (1, 2)


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def load_golden() -> Dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _documented_special(payload) -> bool:
    # the 3- and 4-special lists documented with the construction
    known = {
        3: {(0, 2, 4), (0, 3, 4)},
        4: {(0, 4, 5, 6), (0, 2, 4, 6), (0, 3, 5, 6), (1, 2, 6, 7)},
    }
    return {tuple(T) for T in payload["sets"]} == known[payload["t"]]


# criterion 8: maximum size and dilation classes (representative, orbit size)
MAX_SUM_FREE_CLASSES = {
    11: (4, [([4, 5, 6, 7], 5)]),
    13: (4, [([5, 6, 7, 8], 6), ([4, 6, 7, 9], 3), ([6, 7, 8, 9], 12)]),
    17: (6, [([6, 7, 8, 9, 10, 11], 8)]),
    19: (6, [([7, 8, 9, 10, 11, 12], 9), ([6, 8, 9, 10, 11, 13], 9),
             ([8, 9, 10, 11, 12, 13], 18)]),
    23: (8, [([8, 9, 10, 11, 12, 13, 14, 15], 11)]),
}


def _criterion_8(payload) -> bool:
    max_size, classes = MAX_SUM_FREE_CLASSES[payload["p"]]
    got = [(c["representative"]["elements"], c["orbit_size"]) for c in payload["classes"]]
    return payload["max_size"] == max_size and sorted(got) == sorted(classes)


def _all_true(payload) -> bool:
    return payload["symmetric"] and payload["sum_free"] and payload["complete"]


ANCHORS: Dict[str, Callable] = {
    "documented-special": _documented_special,
    "criterion-8": _criterion_8,
    "verify-all-true": _all_true,
    "verify-not-all-true": lambda payload: not _all_true(payload),
}


def check(
    request: Request,
    status: Optional[int],
    stdout: str,
    pinned: Optional[str],
    earlier: List[str],
) -> Optional[str]:
    """Why the request failed, or None when its output is correct.

    ``pinned`` is the digest for this request (None when no pin exists);
    ``earlier`` holds the stdout of the requests before it in the pass.
    """
    if status != 0:
        return f"exit status {status}"
    if request.expected is not None and stdout != request.expected:
        return "stdout differs from the expected answer"
    if request.expected is None and pinned is None:
        return "no pinned digest for this request"
    if pinned is not None and digest(stdout) != pinned:
        return "stdout digest differs from the pinned digest"
    if request.anchor is not None:
        try:
            ok = ANCHORS[request.anchor](json.loads(stdout))
        except (ValueError, KeyError, TypeError) as exc:
            return f"anchor {request.anchor}: unreadable output ({exc})"
        if not ok:
            return f"anchor {request.anchor} does not hold"
    if request.same_as is not None and stdout != earlier[request.same_as]:
        return f"stdout differs from request {request.same_as}"
    return None
