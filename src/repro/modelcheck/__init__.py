"""Exhaustive and bounded systematic exploration for tiny programs."""

from .explorer import (
    ExplorationReport,
    explore,
    explore_bounded,
    preemption_ladder,
)

__all__ = [
    "ExplorationReport",
    "explore",
    "explore_bounded",
    "preemption_ladder",
]
