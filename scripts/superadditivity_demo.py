#!/usr/bin/env python3
"""Reproduce the Z4 composition analysis and hunt for larger gaps.

Prints the transform moduli of the two documented Z4 resource states, their
alignment rates, the composed moduli, and the additivity gap; then runs a
seeded randomized search for even less additive pairs.
"""
import argparse

import numpy as np

from framealign import (
    GroupSpec,
    dft_profile,
    search_superadditive,
    tensor_compose,
    validate_state,
)
from framealign.cyclic import SEARCH_MAX_M

PSI = [13 / 64, 18 / 64, 19 / 64, 14 / 64]
PHI = [7 / 20, 3 / 20, 6 / 20, 4 / 20]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--order", type=int, default=4, help="cyclic group order")
    args = parser.parse_args()
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 2 <= args.order <= SEARCH_MAX_M:
        parser.error(f"--order must be between 2 and {SEARCH_MAX_M}")

    group = GroupSpec.cyclic(4)
    psi = validate_state(PSI, group)
    phi = validate_state(PHI, group)
    result = tensor_compose(psi, phi)
    rate_a, rate_b, rate_ab = result.rate_components

    np.set_printoptions(precision=6, suppress=True)
    print("documented Z4 pair")
    print("  |z(psi)| =", dft_profile(psi).r)
    print("  |z(phi)| =", dft_profile(phi).r)
    print("  |omega|  =", result.omega_moduli)
    print(f"  rate(psi)         = {rate_a:.6f} bits/copy")
    print(f"  rate(phi)         = {rate_b:.6f} bits/copy")
    print(f"  rate(psi (x) phi) = {rate_ab:.6f} bits/copy")
    print(f"  additivity gap    = {result.gap_bits:.6f} bits/copy")

    print(f"\nrandom search over Z{args.order} "
          f"({args.trials} trials, seed {args.seed})")
    best = search_superadditive(args.order, args.trials, args.seed)
    print("  best a =", best.a.probs)
    print("  best b =", best.b.probs)
    print(f"  gap    = {best.gap_bits:.6f} bits/copy")


if __name__ == "__main__":
    main()
