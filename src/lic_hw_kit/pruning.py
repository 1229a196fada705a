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

from .errors import ParameterError, PruningError
from .model import LayerSpec, ModelSpec, flops_of

__all__ = [
    "PruneSchedule",
    "PruneReport",
    "filter_l2_norms",
    "prunable_layer_indices",
    "prune_step",
    "iterative_prune",
]

HYPERPRIOR_ROLES = ("hyper_encoder", "hyper_decoder")


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
        if self.iterations < 1:
            raise ParameterError("iterations must be >= 1")
        if self.fraction_per_iteration * self.iterations >= 1.0:
            raise ParameterError("schedule would remove every filter")

    @property
    def target_sparsity(self) -> float:
        return self.fraction_per_iteration * self.iterations


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
    if layer.kind not in ("conv", "deconv"):
        raise ParameterError(f"{layer.kind} layer has no filters to rank")
    w = layer.weights.astype(np.float64)
    return np.sqrt((w ** 2).reshape(w.shape[0], -1).sum(axis=1))


def prunable_layer_indices(model: ModelSpec) -> list:
    """conv/deconv layers minus the final one (its output shape is the
    module interface and must survive)."""
    convs = [i for i, l in enumerate(model.layers) if l.kind in ("conv", "deconv")]
    return convs[:-1]


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
        if layer.kind in ("conv", "deconv"):
            keep = keep_out.get(li, np.arange(layer.out_channels))
        else:  # gdn, igdn and relu pass their input channels through
            keep = keep_in
        tensors = {role: t[np.ix_(keep, keep_in)] if t.ndim > 1 else t[keep]
                   for role, t in layer.tensors().items()}
        layers.append(LayerSpec.from_tensors(
            tensors, **{**layer.scalars(), "in_channels": len(keep_in),
                        "out_channels": len(keep)}))
        keep_in = keep
    return ModelSpec(name=model.name, layers=layers, role=model.role,
                     bit_widths=model.bit_widths)


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


def _prune_by_counts(model: ModelSpec, counts: dict):
    removals = _select_removals(model, counts)
    keep_out = {}
    for li, removed in removals.items():
        mask = np.ones(model.layers[li].out_channels, dtype=bool)
        mask[removed] = False
        keep_out[li] = np.flatnonzero(mask)
    return _apply_keeps(model, keep_out), removals


def _base_report(model: ModelSpec, input_hw) -> PruneReport:
    rep = PruneReport()
    rep.params_before = model.param_count()
    rep.filters_before = {li: model.layers[li].out_channels
                          for li in prunable_layer_indices(model)}
    if input_hw is not None:
        rep.flops_before = flops_of(model, input_hw).total
    return rep


def _finish_report(rep: PruneReport, model: ModelSpec, input_hw) -> None:
    rep.params_after = model.param_count()
    rep.filters_after = {li: model.layers[li].out_channels
                         for li in rep.filters_before}
    if input_hw is not None:
        rep.flops_after = flops_of(model, input_hw).total
    before = sum(rep.filters_before.values())
    after = sum(rep.filters_after.values())
    rep.cumulative_ratio = (before - after) / before if before else 0.0


def prune_step(model: ModelSpec, fraction_of_original: float, input_hw=None):
    """One pruning pass at the given fraction of the current counts: a
    one-iteration iterative_prune that also prunes hyperprior stacks.

    Returns (pruned model, PruneReport). Deterministic.
    """
    if not 0.0 <= fraction_of_original < 1.0:
        raise ParameterError("fraction must lie in [0, 1)")
    schedule = PruneSchedule(fraction_of_original, 1, prune_hyperprior=True)
    return iterative_prune(model, schedule, input_hw=input_hw)


def iterative_prune(model: ModelSpec, schedule: PruneSchedule,
                    finetune_hook=None, input_hw=None):
    """Run the schedule; distinct filters go in each iteration because
    counts are figured against the original layer sizes.

    finetune_hook(model, iteration) is invoked after every iteration and
    may return a replacement model (same structure) or None. Removed
    indices in the report refer to the original filter numbering.
    """
    rep = _base_report(model, input_hw)
    if model.role in HYPERPRIOR_ROLES and not schedule.prune_hyperprior:
        _finish_report(rep, model, input_hw)
        return model, rep

    prunable = prunable_layer_indices(model)
    per_iter = {li: floor(schedule.fraction_per_iteration
                          * model.layers[li].out_channels)
                for li in prunable}
    survivors = {li: np.arange(model.layers[li].out_channels) for li in prunable}

    cur = model
    for it in range(schedule.iterations):
        cur, removals = _prune_by_counts(cur, per_iter)
        for li in sorted(removals):
            original = [int(survivors[li][i]) for i in removals[li]]
            mask = np.ones(len(survivors[li]), dtype=bool)
            mask[removals[li]] = False
            survivors[li] = survivors[li][mask]
            rep.removals.append(
                {"iteration": it, "layer": li, "removed": original}
            )
        if finetune_hook is not None:
            replacement = finetune_hook(cur, it)
            if replacement is not None:
                cur = replacement
    _finish_report(rep, cur, input_hw)
    return cur, rep
