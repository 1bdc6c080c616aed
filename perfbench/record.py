"""Regenerate the benchmark's data files from the library in this checkout.

    python3 perfbench/record.py            # data/golden.json
    python3 perfbench/record.py --strata   # data/large_d_strata.json, then golden

golden.json maps each workload to the output digest of every D any seed
can select, so a run can name each D whose output changed.  Record it
again only when an output is meant to change; that is a benchmark change.

large_d_strata.json holds the strata a large_d seed draws from.  Its
cost proxy is the kind W prototype count, counted here independently of
the library, times the number of v-sum passes sv_report makes (three for
D = 1 mod 8, two otherwise).  Sorting the nonsquare D in [45000, 55000] by
the proxy, keeping the cheapest 40% so that a repetition takes about three
seconds, and cutting those into ten equal bins gives ten strata; each
keeps the six D whose proxy is nearest its bin's median.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import workloads

STRATA = 10
PER_STRATUM = 6


def _phi(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def w_count(D: int) -> int:
    """Number of kind W prototypes: triples b^2 - 4ac = D, a > 0 > c, a + b + c < 0,
    each with phi(g) * m / g residues, g = gcd(a, b, c), m = gcd(a, c)."""
    total = 0
    r = math.isqrt(D)
    for b in range(-r, r + 1):
        if (D - b * b) % 4:
            continue
        t = (D - b * b) // 4
        a = 1
        while a * a <= t:
            if t % a == 0:
                for aa in {a, t // a}:
                    c = -(t // aa)
                    if c < 0 and aa + b + c < 0:
                        m = math.gcd(aa, c)
                        g = math.gcd(m, b)
                        total += _phi(g) * (m // g)
            a += 1
    return total


def make_strata() -> list[list[int]]:
    pool = workloads.discriminants(45000, 55000, nonsquare=True)
    cost = {D: w_count(D) * (3 if D % 8 == 1 else 2) for D in pool}
    kept = sorted(pool, key=lambda D: (cost[D], D))[: len(pool) * 2 // 5]
    size = len(kept) // STRATA
    strata = []
    for i in range(STRATA):
        bin_ = kept[i * size:(i + 1) * size]
        middle = cost[bin_[len(bin_) // 2]]
        strata.append(sorted(sorted(bin_, key=lambda D: (abs(cost[D] - middle), D))[:PER_STRATUM]))
    return strata


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--strata", action="store_true", help="also redraw the large_d strata")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import wcurves

    if args.strata:
        with open(workloads.DATA / "large_d_strata.json", "w") as fh:
            json.dump(make_strata(), fh)
            fh.write("\n")
    golden = {}
    for name in workloads.NAMES:
        golden[name] = {
            str(D): workloads.digest(workloads.operation(name, wcurves, D)[0])
            for D in workloads.all_inputs(name)
        }
        print(f"{name}: {len(golden[name])} digests", file=sys.stderr)
    with open(workloads.DATA / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
