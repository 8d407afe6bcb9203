#!/usr/bin/env python3
"""Sweep the linearized information per copy against its many-copy target.

Writes one plot-ready CSV block per pipeline: the balanced qubit under the
phase protocol, and the documented Z4 state under the cyclic protocol.
"""
import argparse
import sys

from framealign import GroupSpec, u1_rate_series, validate_state, zm_rate_series
from framealign.u1 import DEFAULT_COEFF_CAP

PSI = [13 / 64, 18 / 64, 19 / 64, 14 / 64]

# The largest k whose 2**k qubit copies, 2**k + 1 labels, stay within the
# U(1) pipeline's coefficient cap (a power of two).
MAX_EXP = DEFAULT_COEFF_CAP.bit_length() - 2


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-exp", type=int, default=10,
                        help="largest N is 2**max_exp")
    parser.add_argument("--out", type=argparse.FileType("w"), default=sys.stdout)
    args = parser.parse_args()
    if not 1 <= args.max_exp <= MAX_EXP:
        parser.error(f"--max-exp must be between 1 and {MAX_EXP}")
    n_list = [2**k for k in range(1, args.max_exp + 1)]

    out = args.out
    out.write("# balanced qubit, phase pipeline\n")
    out.write("N,H_bits,I_bits,lin_H_per_N,lin_I_per_N,target\n")
    qubit = validate_state([0.5, 0.5], GroupSpec.u1(2))
    for p in u1_rate_series(qubit, n_list):
        out.write(
            f"{p.n_copies},{p.asymmetry_bits!r},{p.mutual_info_bits!r},"
            f"{p.lin_asymmetry_per_copy!r},{p.lin_mi_per_copy!r},"
            f"{p.variance_target!r}\n"
        )

    out.write("# Z4 state, cyclic pipeline\n")
    out.write("N,H_deficit,I_deficit,lin_H_per_N,lin_I_per_N,target,extrapolated\n")
    psi = validate_state(PSI, GroupSpec.cyclic(4))
    for p in zm_rate_series(psi, n_list):
        out.write(
            f"{p.n_copies},{p.asymmetry_deficit_bits!r},{p.mi_deficit_bits!r},"
            f"{p.lin_asym_per_copy!r},{p.lin_mi_per_copy!r},"
            f"{p.rate_target!r},{int(p.extrapolated)}\n"
        )


if __name__ == "__main__":
    main()
