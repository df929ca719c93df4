"""The one number rule every config checks its numeric fields with.

Standard library only, so the simulator's and the service's configs
(and :class:`~repro.obs.Observers`) share it without importing each
other's packages.
"""

from __future__ import annotations

import math
import numbers
from typing import Mapping, Sequence, Tuple

__all__ = ["check_numbers"]


def check_numbers(
    values: Mapping[str, object],
    table: Sequence[Tuple[str, bool, bool, object]],
    at_most: Mapping[str, float],
) -> None:
    """Refuse a bad number in ``values`` by its field's name.

    ``table`` rows are (field, integral, whether 0 is allowed, what None
    means where None is a setting); ``at_most`` bounds fields from
    above.  No number is a bool, none is negative, every real is
    finite, and None only stands where its row says what it means.
    """
    for name, integral, zero_ok, none_means in table:
        value = values[name]
        if value is None and none_means:
            continue
        kind = numbers.Integral if integral else numbers.Real
        if (
            isinstance(value, bool)
            or not isinstance(value, kind)
            or not (integral or math.isfinite(value))
        ):
            raise ValueError(
                f"{name} must be "
                f"{'an integer' if integral else 'a finite number'}, "
                f"got {value!r}"
            )
        if value < 0 or (value == 0 and not zero_ok):
            raise ValueError(
                f"{name} must be {'>= 0' if zero_ok else 'positive'}, "
                f"got {value!r}"
            )
        if name in at_most and value > at_most[name]:
            raise ValueError(
                f"{name} must be <= {at_most[name]}, got {value!r}"
            )
