"""Total-variation check that the blinded variants leave the readout
law untouched, plus the single-copy leakage numbers for the carrier.

Usage: python3 scripts/blindness_study.py --n 8 --t 4 --instances 20
"""
from __future__ import annotations

import argparse

import numpy as np

from qbc.adversary import blind_client_distinguishability
from qbc.experiment import check_cap, derive_rng
from qbc.oracles import random_bits
from qbc.protocol import index_width_for, run_blind_client, run_blind_server, run_qbc_baseline


def tv(p, q) -> float:
    return 0.5 * float(np.sum(np.abs(p - q)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=8, help="number of data values N")
    ap.add_argument("--t", type=int, default=4)
    ap.add_argument("--instances", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    check_cap("blind-client", index_width_for(args.n), args.t)
    rng = derive_rng(args.seed, 0)
    worst_client = worst_server = 0.0
    for k in range(args.instances):
        x, y = random_bits(args.n, rng), random_bits(args.n, rng)
        base = run_qbc_baseline(x, y, args.t, return_distribution=True).distribution
        client = run_blind_client(x, y, args.t, rng=rng,
                                  return_distribution=True).distribution
        server = run_blind_server(x, y, args.t, rng=rng, return_distribution=True)
        padded = (x & y) ^ server.pads["g"]
        ref = run_qbc_baseline(np.ones(args.n, dtype=np.uint8), padded, args.t,
                               return_distribution=True).distribution
        tv_c, tv_s = tv(base, client), tv(server.distribution, ref)
        worst_client = max(worst_client, tv_c)
        worst_server = max(worst_server, tv_s)
        print(f"instance {k:>3}: tv(client vs plain) = {tv_c:.3e}   "
              f"tv(server vs padded ref) = {tv_s:.3e}")
    print(f"\nworst client-blinded deviation: {worst_client:.3e}")
    print(f"worst server-blinded deviation: {worst_server:.3e}")
    leak = blind_client_distinguishability()
    print(f"carrier trace distance {leak['trace_distance']:.6f}, "
          f"Helstrom success {leak['helstrom_success']:.6f} per copy")


if __name__ == "__main__":
    main()
