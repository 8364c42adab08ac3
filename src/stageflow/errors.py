"""Shared error type: every failure carries a stable machine-readable code."""

from __future__ import annotations


class StageflowError(Exception):
    """Base error. ``code`` is a stable identifier like SHAPE_MISMATCH."""

    def __init__(self, code: str, message: str, **details):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.details = details


class TensorError(StageflowError):
    pass


class ExpressionError(StageflowError):
    def __init__(self, code, message, offset=None, **details):
        super().__init__(code, message, offset=offset, **details)
        self.offset = offset


class RewardError(StageflowError):
    pass


class BundleError(StageflowError):
    pass


class RandomizeError(StageflowError):
    pass


class EnvError(StageflowError):
    pass


class TrainerError(StageflowError):
    pass


class StoreError(StageflowError):
    pass


class AgentError(StageflowError):
    pass
