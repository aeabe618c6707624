#!/usr/bin/env python3
"""Sweep of the cache-aware re-weighting strength.

gamma=1 disables re-weighting (plain magnitude selection); smaller gammas bias
selection toward DRAM-resident units.  Prints throughput, hit rate, and the
kernel approximation error for each (gamma, density) pair.
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
    parser.add_argument("--gammas", type=float, nargs="+",
                        default=[0.05, 0.2, 0.5, 1.0])
    parser.add_argument("--densities", type=float, nargs="+", default=[0.5])
    parser.add_argument("--cache-fraction", type=float, default=0.25,
                        help="DRAM capacity as a fraction of total MLP bytes")
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

    # one lockstep sweep of dip_ca/lfu over every (density, gamma) point; each
    # point sets its own density and gamma
    points = [(density, gamma) for gamma in args.gammas for density in args.densities]
    reports = sweep_runs(trace, weights, SchemeConfig(name="dip_ca", density_mid=1.0),
                         points, "lfu", hw, geo, kernel_eval=True)
    header = f"{'gamma':>6s} {'density':>8s} {'hit_rate':>9s} " \
             f"{'steady_tok_s':>12s} {'mean_rel_err':>12s}"
    print(header)
    print("-" * len(header))
    for (density, gamma), r in zip(points, reports):
        print(f"{gamma:6.2f} {density:8.2f} {r.hit_rate:9.3f} "
              f"{r.steady_state_throughput:12.3f} {r.mean_error:12.4f}")


if __name__ == "__main__":
    main()
