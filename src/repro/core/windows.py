"""Sliding-window sum, O(1) amortized per pushed element."""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigError


class SlidingWindowSum:
    """Sum over the trailing ``window`` pushed values."""

    def __init__(self, window: int):
        if window < 1:
            raise ConfigError(f"window must be >= 1, got {window!r}")
        self.window = int(window)
        self._values: deque[float] = deque()
        self._sum = 0.0

    def push(self, value: float) -> float:
        """Push one value and return the current window sum."""
        self._values.append(value)
        self._sum += value
        if len(self._values) > self.window:
            self._sum -= self._values.popleft()
        return self._sum

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def full(self) -> bool:
        """True once ``window`` values have been pushed."""
        return len(self._values) == self.window

    def __len__(self) -> int:
        return len(self._values)

    def reset(self) -> None:
        self._values.clear()
        self._sum = 0.0
