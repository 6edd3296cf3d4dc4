"""Host speed, measured with fixed kernels that do not touch escansion.

On virtual machines that share cores with other tenants, the speed of one
core swings by up to half within seconds (seen on a 2-vCPU VM). Every timed
span is therefore bracketed by two runs of a kernel that does not touch
escansion, and reported as the time it would have taken at the reference
speed, the speed at which the kernel takes ``REFERENCE_S``. A change to
escansion moves these seconds exactly as it moves raw seconds; a swing of
the host moves both the span and the kernel, and cancels. The raw figures
are reported beside the adjusted ones.
"""

from __future__ import annotations

import subprocess
import sys
import time

import inputs

# Kernel times at the reference speed, about their medians on the machine
# the benchmark was written on.
REFERENCE_S = 0.001
STEP_REFERENCE_S = 0.004
PROCESS_REFERENCE_S = 0.045
_WORDS = tuple(word for words in inputs.SHAPES.values() for word in words)
_REPEAT = 8


def kernel_seconds() -> float:
    """The faster of two fixed passes of vowel-group scanning over the word
    bank; the first pass also brings the kernel back into the caches."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        table = {}
        for _ in range(_REPEAT):
            for word in _WORDS:
                groups = []
                for i, c in enumerate(word):
                    if c in inputs.VOWELS:
                        groups.append((c, i))
                table[word] = tuple(groups)
        best = min(best, time.perf_counter() - start)
    return best


def step_kernel_seconds() -> float:
    """Like ``kernel_seconds`` for work made of small numpy calls: the
    faster of two passes of 60 SGD steps of a 50-dim, 11-head linear model
    on fixed data."""
    import numpy as np
    rng = np.random.default_rng(0)
    embeddings = rng.normal(size=(500, 50))
    weights, bias, target = rng.normal(size=(11, 50)), np.zeros(11), np.ones(11)
    batches = [rng.integers(0, 500, 40) for _ in range(60)]
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        for ids in batches:
            hidden = embeddings[ids].mean(axis=0)
            grad = 1.0 / (1.0 + np.exp(-(weights @ hidden + bias))) - target
            weights -= 0.01 * np.outer(grad, hidden)
            np.add.at(embeddings, ids, -0.01 * (weights.T @ grad) / len(ids))
        best = min(best, time.perf_counter() - start)
    return best


def process_kernel_seconds() -> float:
    """Like ``kernel_seconds`` for the start of a fresh interpreter: the
    faster of two runs of ``python -c pass``."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, check=True)
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Scale factors from raw seconds to reference seconds.

    Call ``factor()`` right after each timed span: it runs the kernel and
    averages that run with the one before the span."""

    def __init__(self, kernel=kernel_seconds, reference_s=REFERENCE_S):
        self.kernel, self.reference_s = kernel, reference_s
        self.samples = [kernel()]

    def factor(self) -> float:
        self.samples.append(self.kernel())
        return 2 * self.reference_s / (self.samples[-2] + self.samples[-1])

    def facts(self) -> dict:
        ordered = sorted(self.samples)
        return {"kernel_s_median": ordered[len(ordered) // 2],
                "kernel_s_min": ordered[0], "kernel_s_max": ordered[-1],
                "kernel_runs": len(ordered), "reference_s": self.reference_s}
