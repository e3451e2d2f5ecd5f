"""Seeded draws that cover their items evenly over a run."""

from __future__ import annotations


class Deck:
    """Draws from a seeded shuffle of `items`, shuffled again each time it
    runs out, so that over a run every item comes up about equally often.
    Workloads draw the inputs that set a job's cost (group shapes, formula
    assignments) from decks, so the seed changes the inputs and their order
    but hardly the cost of a run."""

    def __init__(self, rng, items):
        self.rng, self.items, self.left = rng, list(items), []

    def draw(self):
        if not self.left:
            self.left = self.items[:]
            self.rng.shuffle(self.left)
        return self.left.pop()
