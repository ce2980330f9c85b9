"""Deterministic synthetic DNA sequences.

All generation is seeded, so every run of the examples, tests and benchmarks
sees the same data — which is what lets EXPERIMENTS.md quote stable numbers.
"""

from __future__ import annotations

import random
from typing import List

__all__ = ["SequenceGenerator", "reverse_complement", "gc_content"]

_BASES = "ACGT"
_COMPLEMENT = {"A": "T", "T": "A", "C": "G", "G": "C", "N": "N"}


def reverse_complement(sequence: str) -> str:
    """Return the reverse complement of a DNA sequence."""
    return "".join(_COMPLEMENT.get(base, "N") for base in reversed(sequence.upper()))


def gc_content(sequence: str) -> float:
    """Fraction of G/C bases (0.0 for the empty sequence)."""
    if not sequence:
        return 0.0
    upper = sequence.upper()
    return (upper.count("G") + upper.count("C")) / len(upper)


class SequenceGenerator:
    """Seeded generator of DNA sequences and derived (mutated) homologues."""

    def __init__(self, seed: int = 22):
        self._random = random.Random(seed)

    def random_sequence(self, length: int) -> str:
        """A uniformly random DNA sequence of the given length."""
        return "".join(self._random.choice(_BASES) for _ in range(length))

    def mutate(self, sequence: str, substitution_rate: float = 0.05,
               indel_rate: float = 0.01) -> str:
        """Derive a homologue by point substitutions and occasional indels."""
        result: List[str] = []
        for base in sequence:
            roll = self._random.random()
            if roll < indel_rate / 2:
                continue  # deletion
            if roll < indel_rate:
                result.append(self._random.choice(_BASES))  # insertion before the base
            if self._random.random() < substitution_rate:
                choices = [b for b in _BASES if b != base]
                result.append(self._random.choice(choices))
            else:
                result.append(base)
        return "".join(result)

    def fragment(self, sequence: str, minimum: int = 50, maximum: int = 200) -> str:
        """A random contiguous fragment of ``sequence``."""
        if len(sequence) <= minimum:
            return sequence
        length = self._random.randint(minimum, min(maximum, len(sequence)))
        start = self._random.randint(0, len(sequence) - length)
        return sequence[start:start + length]

    def family(self, length: int, members: int,
               substitution_rate: float = 0.08) -> List[str]:
        """An ancestor plus ``members - 1`` mutated homologues (a gene family)."""
        ancestor = self.random_sequence(length)
        sequences = [ancestor]
        for _ in range(members - 1):
            sequences.append(self.mutate(ancestor, substitution_rate))
        return sequences

    def choice(self, items: List[object]) -> object:
        return self._random.choice(items)

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def random(self) -> float:
        return self._random.random()

    def sample(self, items: List[object], count: int) -> List[object]:
        return self._random.sample(items, count)
