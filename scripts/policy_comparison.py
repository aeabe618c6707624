#!/usr/bin/env python3
"""Eviction-policy comparison under DRAM pressure.

For each density, simulates the same synthetic trace under every applicable
eviction policy and prints hit rate and steady-state throughput.  The
cache-aware scheme is paired with lfu only (the offline-optimal policy is
undefined for it because its masks depend on cache contents).
"""
import argparse

from sparsim import (
    HardwareConfig,
    ModelGeometry,
    SchemeConfig,
    SyntheticTraceSpec,
    generate_synthetic_trace,
    sweep_runs,
    synthetic_layer_weights,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tokens", type=int, default=120)
    parser.add_argument("--layers", type=int, default=2)
    parser.add_argument("--d-model", type=int, default=48)
    parser.add_argument("--d-ff", type=int, default=144)
    parser.add_argument("--densities", type=float, nargs="+",
                        default=[0.25, 0.5, 0.75])
    parser.add_argument("--cache-fraction", type=float, default=0.6,
                        help="DRAM capacity as a fraction of total MLP bytes; "
                             "policies only differ once the cache exceeds the "
                             "per-token active set")
    parser.add_argument("--sigma", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    geo = ModelGeometry(num_layers=args.layers, d_model=args.d_model,
                        d_ff=args.d_ff, bytes_per_weight=1.0)
    hw = HardwareConfig(
        dram_capacity_bytes=geo.total_mlp_bytes * args.cache_fraction,
        dram_bandwidth=60e6, flash_bandwidth=1e6)
    trace = generate_synthetic_trace(SyntheticTraceSpec(
        num_tokens=args.tokens, num_layers=args.layers, d_model=args.d_model,
        d_ff=args.d_ff, sigma=args.sigma, seed=args.seed))
    weights = synthetic_layer_weights(args.layers, args.d_model, args.d_ff,
                                      seed=args.seed)

    rows = [("dip", "lru"), ("dip", "lfu"), ("dip", "belady"),
            ("dip_ca", "lfu")]
    # one lockstep sweep over the densities per (scheme, policy); each point
    # sets its own density
    points = [(density, None) for density in args.densities]
    reports = {(scheme, policy): sweep_runs(trace, weights,
                                            SchemeConfig(name=scheme, density_mid=1.0),
                                            points, policy, hw, geo)
               for scheme, policy in rows}
    header = f"{'density':>8s} {'scheme':>8s} {'policy':>8s} " \
             f"{'hit_rate':>9s} {'steady_tok_s':>12s}"
    print(header)
    print("-" * len(header))
    for i, density in enumerate(args.densities):
        for scheme, policy in rows:
            report = reports[scheme, policy][i]
            print(f"{density:8.2f} {scheme:>8s} {policy:>8s} "
                  f"{report.hit_rate:9.3f} {report.steady_state_throughput:12.3f}")


if __name__ == "__main__":
    main()
