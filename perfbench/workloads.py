"""The four benchmark workloads: inputs per seed, the per-D operation, and checks.

A workload is a list of discriminants D chosen from the seed, and one
operation per D through the public per-D function that the CLI range loops
call.  The operation returns the exact output record (what the digest
covers) and the objects the per-D identities need; identities are checked
after the timed loop.

The seed moves a window only by its cheap end (or, for large_d, draws
within narrow cost strata), so different seeds give different inputs of
nearly the same cost.  Without that, the spread between seeds would
exceed every bound worth setting.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# verify_range: every discriminant up to VERIFY_TOP; the seed drops 0 to
# VERIFY_SHIFT - 1 of the smallest ones.
VERIFY_TOP = 230
VERIFY_SHIFT = 6
# sv_sweep: every nonsquare discriminant >= 5 up to SV_TOP, less 0 to
# SV_SHIFT - 1 of the smallest.
SV_TOP = 300
SV_SHIFT = 8
# euler_sweep: EULER_COUNT consecutive discriminants starting at one of
# the first EULER_SHIFT.
EULER_COUNT = 1500
EULER_SHIFT = 16

NAMES = ("verify_range", "sv_sweep", "euler_sweep", "large_d")


def is_discriminant(D: int) -> bool:
    return D >= 1 and D % 4 in (0, 1)


def is_square(n: int) -> bool:
    return math.isqrt(n) ** 2 == n


def discriminants(lo: int, hi: int, nonsquare: bool = False) -> list[int]:
    return [
        D for D in range(lo, hi + 1)
        if is_discriminant(D) and not (nonsquare and is_square(D))
    ]


def load_json(name: str):
    with open(DATA / name) as fh:
        return json.load(fh)


def all_inputs(workload: str) -> list[int]:
    """Every discriminant any seed can select; the golden file covers these."""
    if workload == "verify_range":
        return discriminants(5, VERIFY_TOP)
    if workload == "sv_sweep":
        return discriminants(5, SV_TOP, nonsquare=True)
    if workload == "euler_sweep":
        return discriminants(1, 2 * (EULER_COUNT + EULER_SHIFT))[:EULER_COUNT + EULER_SHIFT - 1]
    if workload == "large_d":
        return sorted(D for stratum in load_json("large_d_strata.json") for D in stratum)
    raise ValueError(f"unknown workload {workload!r}")


def inputs(workload: str, seed: int) -> list[int]:
    """The discriminants a seed selects, in the order they run."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "large_d":
        return sorted(rng.choice(stratum) for stratum in load_json("large_d_strata.json"))
    pool = all_inputs(workload)
    if workload == "euler_sweep":
        start = rng.randrange(EULER_SHIFT)
        return pool[start:start + EULER_COUNT]
    return pool[rng.randrange(VERIFY_SHIFT if workload == "verify_range" else SV_SHIFT):]


def operation(workload: str, wc, D: int):
    """Run one D; return (exact output record, objects for the identities)."""
    if workload == "verify_range":
        r = wc.verify_discriminant(D)
        record = {"D": r.D, "passed": r.passed, "failures": list(r.failures),
                  "tallies": [list(t) for t in r.tallies]}
        return record, r
    if workload == "sv_sweep":
        sv = wc.sv_report(D)
        return sv.to_json(), sv
    if workload == "euler_sweep":
        eu = wc.euler_report(D)
        return eu.to_json(), eu
    if workload == "large_d":
        sv = wc.sv_report(D)
        eu = wc.euler_report(D)
        record = {"sv": sv.to_json(), "euler": eu.to_json(),
                  "boundary": wc.build_complex(D).to_json()}
        return record, (sv, eu)
    raise ValueError(f"unknown workload {workload!r}")


def _sv_identities(D: int, sv) -> list[str]:
    bad = []
    c = sv.constant
    if not (c.sign1() > 0 and c.sign2() > 0):
        bad.append(f"D={D}: c = {c} is not positive under both embeddings")
    if D % 8 == 1:
        c0, c1 = sv.components
        if c1 != c0.galois_conjugate():
            bad.append(f"D={D}: c1 = {c1} is not the conjugate of c0 = {c0}")
        if (c0 + c1) / 2 != c:
            bad.append(f"D={D}: (c0 + c1)/2 != c = {c}")
    return bad


def _euler_identities(wc, D: int, eu) -> list[str]:
    if is_square(D):
        return []
    n_w = len(wc.enumerate_prototypes(D, "W"))
    if eu.cusps_two_cylinder != n_w:
        return [f"D={D}: cusps_two_cyl = {eu.cusps_two_cylinder}, W count = {n_w}"]
    return []


def identities(workload: str, wc, D: int, kept) -> list[str]:
    """Cheap per-D identities, checked outside the timed region."""
    if workload == "verify_range":
        return [f"D={D}: verify failed: {f}" for f in kept.failures]
    if workload == "sv_sweep":
        return _sv_identities(D, kept)
    if workload == "euler_sweep":
        return _euler_identities(wc, D, kept)
    sv, eu = kept
    return _sv_identities(D, sv) + _euler_identities(wc, D, eu)


def digest(record) -> str:
    """First 16 hex digits of the sha256 of a record's canonical JSON."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
