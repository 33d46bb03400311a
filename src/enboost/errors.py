"""Shared exception types."""


class EnboostError(Exception):
    """Base class for all package errors."""


class ShapeError(EnboostError):
    """Input or parameter shape does not match a network spec."""


class TrainingDivergedError(EnboostError):
    """Loss became non-finite while training a learner; `stage` is "train"
    or "prune retrain"."""

    def __init__(self, epoch, learner, stage):
        self.epoch = epoch
        self.learner = learner
        self.stage = stage
        super().__init__(f"{learner}: non-finite loss at epoch {epoch} of {stage}")


class BudgetInfeasibleError(EnboostError):
    """A MAC budget cannot be met without emptying a conv layer."""

    def __init__(self, layer_index):
        self.layer_index = layer_index
        super().__init__(
            f"budget infeasible: conv layer {layer_index} cannot lose more filters")


class ConfigError(EnboostError):
    """Invalid configuration document or CLI arguments."""


class TraceError(EnboostError):
    """Malformed or inconsistent power trace."""


class ArtifactError(EnboostError):
    """A spec, pool, manifest, q-table or report file is missing or corrupt."""


TableLoadError = ArtifactError  # the old name, still caught by callers
