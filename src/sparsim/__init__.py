"""Trace-driven simulator and numeric kernel for dynamic activation sparsity
in gated-MLP inference under flash/DRAM memory constraints."""

from .mlp import (MlpWeights, LoraAdapter, MlpAdapters, Predictor, ErrorMetrics,
                  silu, silu_grad, glu_activations, mlp_dense_forward,
                  mlp_sparse_forward, approx_error, lora_fuse,
                  distill_loss_and_grads, DistillResult, lora_fit_distill,
                  predictor_forward, topk_binary_targets, predictor_loss_and_grads,
                  PredictorTrainResult, predictor_train, TrainingDivergedError)
from .masking import (GlobalThreshold, PerLayerThreshold, PerTokenTopK, apply_threshold,
                      dip_rows, dip_ca_rows, dip_ca_scores, density_to_k, DEFAULT_GAMMA)
from .cache import Group, CacheState, replay, belady_precompute, resident_bitvector
from .hwsim import (HardwareConfig, ModelGeometry, GroupSpec, Scheme, SCHEMES, SchemeConfig,
                    TokenCost, RunReport, SimulationError,
                    scheme_groups, allocate_dram, simulate_run,
                    sweep_runs, throughput_at_error, predictor_static_bytes)
from .traces import (SyntheticTraceSpec, Trace, TraceFormatError,
                     generate_synthetic_trace, synthetic_layer_weights,
                     write_trace, read_trace)
from .calibration import (calibrate_per_layer_thresholds, global_threshold_for_density,
                          layer_densities, AllocationPoint, sweep_density_allocation,
                          pareto_front, AllocationModel, fit_logit_linear,
                          Allocation, optimal_allocation, memory_fraction)
from .presets import HARDWARE_PRESETS, GEOMETRY_PRESETS, GB

__version__ = "0.1.0"
