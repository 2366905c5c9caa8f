"""Early-exit machinery: policy networks, straight-through sampling, exit
balance statistics, and analytic multiply-accumulate accounting.

MAC counts cover matrix products only (one multiply plus one accumulate per
inner-loop step); element-wise work and activations are excluded. The same
convention is what a tape records, so analytic counts can be cross-checked
against an instrumented forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor
from .errors import ConfigError
from .predictor import (BRANCH_KINDS, PredictorConfig, PredictorParams, _exit_array,
                        branch_node_counts)

SOFT_VAR_EPS = 1e-9  # keeps the coefficient of variation differentiable at balance


def init_policy(rng: np.random.Generator, feature_width: int, hidden: int,
                n_exits: int) -> dict[str, np.ndarray]:
    """Small MLP w1, b1, w2, b2 from pooled branch features to one logit per exit."""
    # zero logit head: untrained policies sample exits uniformly
    bound = 1.0 / np.sqrt(feature_width)
    return {"w1": rng.uniform(-bound, bound, size=(feature_width, hidden)),
            "b1": np.zeros((1, hidden)),
            "w2": np.zeros((hidden, n_exits)),
            "b2": np.zeros((1, n_exits))}


def _policy_forward(tape: Tape, tensors: dict[str, Tensor], prefix: str,
                    h: Tensor) -> Tensor:
    """Logits (B, 1, D) from encoded branch features (B, nodes, F), or (1, D)
    from (nodes, F): mean-pool over the nodes, then MLP."""
    n = h.shape[-2]
    pooled = tape.matmul(tape.constant(np.full((1, n), 1.0 / n)), h)
    hidden = tape.tanh(tape.linear(pooled, tensors[f"{prefix}.w1"], tensors[f"{prefix}.b1"]))
    return tape.linear(hidden, tensors[f"{prefix}.w2"], tensors[f"{prefix}.b2"])


def _gumbel_softmax_st(tape: Tape, logits: Tensor, temperature: float,
                       noise: np.ndarray) -> tuple[Tensor, Tensor]:
    """Straight-through draw over exits from explicit Gumbel noise.

    Returns (hard one-hot, soft) tensors of the shape of logits, one draw per
    row over the last axis. Deterministic routing passes zeros as noise, which
    selects the argmax of the logits; ties break toward the lowest index.
    """
    if temperature <= 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    noise = np.asarray(noise, dtype=np.float64).reshape(logits.shape)
    perturbed = tape.add(logits, tape.constant(noise))
    soft = tape.softmax_lastdim(tape.scale(perturbed, 1.0 / temperature))
    return tape.straight_through(soft), soft


def _tendency_loss_soft(tape: Tape, soft_sum: Tensor, w_tendency: float) -> Tensor:
    """Differentiable coefficient of variation of soft expected tallies (1, D)."""
    m1 = tape.mean(soft_sum)
    m2 = tape.mean(tape.hadamard(soft_sum, soft_sum))
    var = tape.add(m2, tape.scale(tape.hadamard(m1, m1), -1.0))
    std = tape.sqrt(tape.add(var, tape.constant(np.asarray(SOFT_VAR_EPS))))
    return tape.scale(tape.div(std, m1), w_tendency)


# ----------------------------------------------------------------------
# cost accounting

@dataclass(frozen=True)
class FlopsReport:
    """Cumulative MAC counts per branch and exit, plus an exit distribution.

    counts[branch][d-1] is the cost of running that branch to exit d
    (input encoder, the graph-conv layers of blocks 1..d, output decoder,
    and the policy network). The distribution weights, one row per
    branch summing to 1, define the batch-weighted average.
    """

    branch_names: tuple[str, ...]
    counts: dict[str, tuple[int, ...]]
    exit_distribution: dict[str, tuple[float, ...]]

    def __post_init__(self):
        for name in self.branch_names:
            row = self.counts[name]
            if any(b <= a for a, b in zip(row, row[1:])):
                raise ValueError(f"MAC counts of branch {name} are not strictly increasing")
            dist = self.exit_distribution[name]
            if len(dist) != len(row) or any(w < 0 for w in dist):
                raise ValueError(f"bad exit distribution for branch {name}")
            if abs(sum(dist) - 1.0) > 1e-9:
                raise ValueError(f"exit distribution of branch {name} does not sum to 1")

    def branch_average(self, name: str) -> float:
        return float(np.dot(self.counts[name], self.exit_distribution[name]))

    def weighted_average_total(self) -> float:
        return sum(self.branch_average(name) for name in self.branch_names)

    def full_depth_total(self) -> int:
        return sum(self.counts[name][-1] for name in self.branch_names)

    def percent_saved(self) -> float:
        full = self.full_depth_total()
        return 100.0 * (1.0 - self.weighted_average_total() / full)

    def to_csv(self) -> str:
        n_exits = len(next(iter(self.counts.values())))
        header = "branch," + ",".join(f"exit_{d}" for d in range(1, n_exits + 1))
        lines = [header]
        for name in self.branch_names:
            lines.append(name + "," + ",".join(str(c) for c in self.counts[name]))
        lines.append(f"weighted_average,{self.weighted_average_total():.1f},"
                     f"percent_saved_vs_exit_{n_exits},{self.percent_saved():.4f}")
        return "\n".join(lines) + "\n"


def gc_layer_macs(node_count: int, f_in: int, f_out: int) -> int:
    """A @ H costs n*n*f_in; (A @ H) @ W costs n*f_in*f_out."""
    return node_count * node_count * f_in + node_count * f_in * f_out


def policy_macs(node_count: int, width: int, hidden: int, n_exits: int) -> int:
    return node_count * width + width * hidden + hidden * n_exits


def branch_exit_macs(n: int, config: PredictorConfig) -> tuple[int, ...]:
    """Cumulative MACs at each exit depth of one branch of n nodes."""
    f = config.feature_width
    n_coeffs = config.resolved_n_coeffs
    fixed = (n * n_coeffs * f            # input encoder
             + n * f * n_coeffs          # output decoder
             + policy_macs(n, f, config.policy_hidden, config.n_blocks))
    per_block = config.layers_per_block * gc_layer_macs(n, f, f)
    return tuple(fixed + (d + 1) * per_block for d in range(config.n_blocks))


def count_flops(params: PredictorParams, exits) -> FlopsReport:
    """Analytic MAC table for every (branch, exit), weighted by the exits
    taken: one (upper, lower, whole) triple, or one per sample as a (B, 3)
    array."""
    config = params.config
    exits = np.asarray(_exit_array(exits, config.n_blocks))
    counts = {}
    distribution = {}
    for i, (kind, n) in enumerate(branch_node_counts(params.layout).items()):
        counts[kind] = branch_exit_macs(n, config)
        tally = np.bincount(exits[:, i] - 1, minlength=config.n_blocks)
        distribution[kind] = tuple(float(x) for x in tally / tally.sum())
    return FlopsReport(branch_names=BRANCH_KINDS, counts=counts,
                       exit_distribution=distribution)
