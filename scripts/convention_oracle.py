#!/usr/bin/env python3
"""Re-derive the frozen evaluation conventions by brute force.

Scans every candidate normalization of the grid orthogonality sum and every
reading of the alternating subset identity on small root systems, and prints
which combinations reproduce the expected constants.  The winners are frozen
in alcove.conventions; docs/conventions.md narrates the outcome.

Run:  python scripts/convention_oracle.py [--samples N] [--seed S]
"""

from __future__ import annotations

import argparse
import random

from alcove import chareval, identities, rootdata, verlinde, weyl
from alcove.identities import PoleError


def orthogonality_deviation(rs, k, grid_mode, weight_mode, sign_mode, norm_mode) -> float:
    lams = rootdata.weights_at_level(rs, k)
    contrag = [lams.index(verlinde.contragredient(rs, lam)) for lam in lams]
    pref = 1.0 / rootdata.lattice_index(rs, k)
    if norm_mode == "orbit":
        pref /= weyl.weyl_order(rs)
    if sign_mode == "rank":
        pref *= (-1) ** rs.rank
    rows = []
    weights = []
    grid = chareval.shifted_grid if grid_mode == "shifted" else chareval.full_grid
    for _, point in grid(rs, k):
        d = chareval.weyl_denominator(rs, point)
        weights.append(d * d if weight_mode == "square" else (d * d.conjugate()).real)
        if chareval.is_regular(rs, point):
            rows.append([chareval.character(rs, lam, point) for lam in lams])
        else:
            rows.append([0j] * len(lams))
    dev = 0.0
    for a in range(len(lams)):
        for b in range(len(lams)):
            s = sum(rows[t][b] * rows[t][contrag[a]] * weights[t] for t in range(len(rows)))
            dev = max(dev, abs(pref * s - (1.0 if a == b else 0.0)))
    return dev


def subset_value(rs, rng, generators, include_empty, samples) -> complex:
    vecs = [rs.simple_root(i) for i in range(rs.rank)] if generators == "simple" \
        else [rs.fundamental_weight(i) for i in range(rs.rank)]
    done = 0
    acc = []
    while done < samples:
        x = identities.random_rational_point(rs, rng)
        try:
            acc.append(identities.subset_identity_residual(rs, x, include_empty, vecs))
        except PoleError:
            continue
        done += 1
    return sum(acc) / len(acc)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=8)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()

    systems = [("A", 1, 1), ("A", 1, 2), ("A", 2, 0), ("A", 2, 1),
               ("A", 2, 2), ("B", 2, 1), ("G", 2, 1)]

    print("== orthogonality sum: candidate (grid, weight, sign, norm) -> max|M - I| ==")
    header = " ".join(f"{s}{r}k{k}" for s, r, k in systems)
    print(f"{'candidate':42s} {header}")
    for grid in ("shifted", "full"):
        for wmode in ("square", "norm_square"):
            for sign in ("plus", "rank"):
                for norm in ("plain", "orbit"):
                    devs = []
                    for series, rank, k in systems:
                        rs = rootdata.build_root_system(series, rank)
                        devs.append(orthogonality_deviation(rs, k, grid, wmode, sign, norm))
                    tag = f"{grid},{wmode},{sign},{norm}"
                    verdict = "  <- exact" if max(devs) < 1e-9 else ""
                    print(f"{tag:42s} " + " ".join(f"{d:8.1e}" for d in devs) + verdict)

    print()
    print("== alternating subset sum: empirical value per reading ==")
    rng = random.Random(args.seed)
    for name in ("A1", "A2", "B2", "G2"):
        rs = rootdata.from_name(name)
        for generators in ("simple", "fundamental"):
            for include_empty in (True, False):
                v = subset_value(rs, rng, generators, include_empty, args.samples)
                print(f"{name} generators={generators:11s} empty={include_empty!s:5s}"
                      f" value = {v.real:+.9f}{v.imag:+.1e}i")
    print()
    print("frozen: shifted grid, |D|^2 weight, +1 sign, plain norm "
          "(full grid needs the extra 1/|W| orbit factor); "
          "subset identity over simple roots with the empty subset included.")


if __name__ == "__main__":
    main()
