"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operand shapes do not conform for a primitive operation."""


class TapeError(RuntimeError):
    """A tape was used after its backward pass consumed it."""


class ConfigError(ValueError):
    """Invalid layer spec, duplicate parameter, or bad config field."""


class TrainingError(RuntimeError):
    """Non-finite loss or gradient encountered during optimization."""


class CheckpointError(RuntimeError):
    """Checkpoint file is missing, corrupted, or shape-incompatible."""


class ContractError(RuntimeError):
    """An environment interaction violated the step/availability contract."""
