"""Transition storage for the off-policy learner."""

from __future__ import annotations

import numpy as np

from ..errors import UsageError


class ReplayBuffer:
    """Fixed-capacity ring buffer with uniform sampling.

    Each transition is one row of `table`: s, a, r, s_next, done. `done`
    marks hazard terminations only; time-limit cutoffs are stored as
    non-terminal so the critic still bootstraps through them.
    """

    def __init__(self, capacity: int, d_s: int, d_a: int):
        self.capacity, self.d_s, self.d_a = capacity, d_s, d_a
        self.table = np.zeros((capacity, 2 * d_s + d_a + 2))
        self.size = 0
        self.cursor = 0

    def add(self, s, a, r, s_next, done: bool) -> None:
        self.table[self.cursor] = np.concatenate([s, a, [r], s_next, [1.0 if done else 0.0]])
        self.cursor = (self.cursor + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch: int, rng: np.random.Generator) -> dict:
        """A batch of uniformly drawn rows: one gather, returned as column views."""
        if self.size < batch:
            raise UsageError(f"buffer holds {self.size} < batch {batch}")
        rows = self.table[rng.integers(0, self.size, size=batch)]
        r = self.d_s + self.d_a   # the reward's column
        return {"s": rows[:, :self.d_s], "a": rows[:, self.d_s:r], "r": rows[:, r],
                "s_next": rows[:, r + 1:-1], "done": rows[:, -1]}
