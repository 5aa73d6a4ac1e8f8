"""Accounting and constructors that only the tests need."""

import math

from fmwarp.errors import InvalidInputError
from fmwarp.timelag import TimeLagParams


def parameter_count(params) -> int:
    """Entries in every tensor of an ``nn.RnnParams``."""
    return sum(v.size for v in params.tensors().values())


def trainable_count(params) -> int:
    """Entries in the tensors that ``params.freeze_mask`` leaves trainable."""
    return sum(v.size for k, v in params.tensors().items() if not params.freeze_mask[k])


def from_retention(a: float) -> TimeLagParams:
    """The time-lag parameters whose one-step retention coefficient is ``a``."""
    a = float(a)
    if not (0.0 < a < 1.0):
        raise InvalidInputError(f"retention coefficient must lie in (0,1), got {a}")
    return TimeLagParams(tau=-1.0 / math.log(a), a=a)
