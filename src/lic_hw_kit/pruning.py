"""Structured channel pruning driven by filter L2 norms.

Each iteration removes the lowest-norm output filters of every prunable
convolution (ties break toward the lower index), then repairs the
downstream structure: the next convolution loses the matching input
channels, and any normalization layer in between loses the matching
beta entries and gamma rows/columns. The last convolution of a stack is
exempt so the model's output interface never changes shape.

Removal counts are floor(fraction * original filter count) per layer per
iteration, so a 10% schedule run three times takes exactly 30% off a
100-filter layer. Fine-tuning between iterations is the caller's
business via the hook; this module only edits structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import floor

import numpy as np

from .errors import ParameterError, PruningError, integral_bits
from .model import LayerSpec, ModelSpec
from .perf_model import flops_of

__all__ = [
    "PruneSchedule",
    "PruneReport",
    "filter_l2_norms",
    "prunable_layer_indices",
    "iterative_prune",
]

HYPERPRIOR_ROLES = ("hyper_encoder", "hyper_decoder")

# fraction * iterations < 1, so past this count an iteration removes no
# filter from any layer narrower than this (a compression model's widths
# are a few hundred), yet each still walks the whole model
MAX_ITERATIONS = 1024


@dataclass(frozen=True)
class PruneSchedule:
    """fraction per iteration, iteration count, and whether hyperprior
    stacks participate (they are exempt by default)."""

    fraction_per_iteration: float = 0.10
    iterations: int = 3
    prune_hyperprior: bool = False

    def __post_init__(self):
        if not 0.0 <= self.fraction_per_iteration < 1.0:
            raise ParameterError("fraction_per_iteration must lie in [0, 1)")
        object.__setattr__(self, "iterations",
                           integral_bits(self.iterations, "iterations", 1,
                                         MAX_ITERATIONS))
        if self.fraction_per_iteration * self.iterations >= 1.0:
            raise ParameterError("schedule would remove every filter")


@dataclass
class PruneReport:
    """What was removed, and the size of the model before and after."""

    removals: list = field(default_factory=list)  # rows: iteration/layer/indices
    filters_before: dict = field(default_factory=dict)
    filters_after: dict = field(default_factory=dict)
    params_before: int = 0
    params_after: int = 0
    flops_before: int | None = None
    flops_after: int | None = None
    cumulative_ratio: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "removals": self.removals,
            "filters_before": {str(k): v for k, v in self.filters_before.items()},
            "filters_after": {str(k): v for k, v in self.filters_after.items()},
            "params_before": self.params_before,
            "params_after": self.params_after,
            "flops_before": self.flops_before,
            "flops_after": self.flops_after,
            "cumulative_ratio": self.cumulative_ratio,
        }


def filter_l2_norms(layer: LayerSpec) -> np.ndarray:
    """L2 norm of each output filter's weights (bias excluded)."""
    if layer.weights is None:
        raise ParameterError(f"{layer.kind} layer has no filters to rank")
    w = layer.weights.astype(np.float64)
    return np.sqrt((w ** 2).reshape(w.shape[0], -1).sum(axis=1))


def prunable_layer_indices(model: ModelSpec) -> list:
    """conv/deconv layers minus the final one (its output shape is the
    module interface and must survive)."""
    return [i for i, l in enumerate(model.layers) if l.weights is not None][:-1]


def _apply_keeps(model: ModelSpec, keep_out: dict) -> ModelSpec:
    """Rebuild the stack with the given surviving output filters per
    conv/deconv index, propagating channel removals downstream.

    Every tensor's first axis is the output channel and its second, if
    any, the input channel (gdn's gamma is square over the channels a
    gdn layer passes through).
    """
    layers = []
    keep_in = np.arange(model.layers[0].in_channels) if model.layers else None
    for li, layer in enumerate(model.layers):
        if layer.weights is not None:
            keep = keep_out.get(li, np.arange(layer.out_channels))
        else:  # layers without filters pass their input channels through
            keep = keep_in
        tensors = {role: t[np.ix_(keep, keep_in)] if t.ndim > 1 else t[keep]
                   for role, t in layer.tensors().items()}
        layers.append(LayerSpec.from_tensors(
            tensors, **{**layer.scalars(), "in_channels": len(keep_in),
                        "out_channels": len(keep)}))
        keep_in = keep
    return ModelSpec(name=model.name, layers=layers, role=model.role)


def _select_removals(model: ModelSpec, counts: dict) -> dict:
    """Lowest-norm filters per layer; stable sort keeps ties on the
    lower index. Returns current-index removal lists."""
    removals = {}
    for li, k in counts.items():
        layer = model.layers[li]
        if k <= 0:
            continue
        if layer.out_channels - k < 1:
            raise PruningError(
                f"removing {k} of {layer.out_channels} filters would empty "
                f"layer {li}"
            )
        order = np.argsort(filter_l2_norms(layer), kind="stable")
        removals[li] = sorted(int(i) for i in order[:k])
    return removals


def _sizes(model: ModelSpec, input_hw) -> tuple:
    """(params, {prunable index: filters}, flops_of total, or None without
    input_hw): what a report records of the model before and after."""
    return (model.param_count(),
            {li: model.layers[li].out_channels for li in prunable_layer_indices(model)},
            None if input_hw is None else flops_of(model, input_hw).total)


def iterative_prune(model: ModelSpec, schedule: PruneSchedule,
                    finetune_hook=None, input_hw=None):
    """Run the schedule; distinct filters go in each iteration because
    counts are figured against the original layer sizes.

    finetune_hook(model, iteration) is invoked after every iteration and
    may return a replacement model (same structure) or None. Removed
    indices in the report refer to the original filter numbering.
    """
    rep = PruneReport()
    rep.params_before, rep.filters_before, rep.flops_before = _sizes(model, input_hw)
    exempt = model.role in HYPERPRIOR_ROLES and not schedule.prune_hyperprior
    prunable = prunable_layer_indices(model)
    per_iter = {li: floor(schedule.fraction_per_iteration
                          * model.layers[li].out_channels)
                for li in prunable}
    survivors = {li: np.arange(model.layers[li].out_channels) for li in prunable}

    cur = model
    for it in range(0 if exempt else schedule.iterations):
        removals = _select_removals(cur, per_iter)
        keep_out = {}
        for li in sorted(removals):
            keep_out[li] = np.delete(np.arange(cur.layers[li].out_channels),
                                     removals[li])
            rep.removals.append({"iteration": it, "layer": li,
                                 "removed": survivors[li][removals[li]].tolist()})
            survivors[li] = survivors[li][keep_out[li]]
        cur = _apply_keeps(cur, keep_out)
        if finetune_hook is not None:
            replacement = finetune_hook(cur, it)
            if replacement is not None:
                cur = replacement
    rep.params_after, rep.filters_after, rep.flops_after = _sizes(cur, input_hw)
    before, after = sum(rep.filters_before.values()), sum(rep.filters_after.values())
    rep.cumulative_ratio = (before - after) / before if before else 0.0
    return cur, rep
