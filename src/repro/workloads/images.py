"""Synthetic images for the HIP (histogram) benchmark.

The paper's HIP datasets are 480x480 photographs of cars and of people
(Table 3).  What matters to GLSC is *spatial color coherence*: real
photographs have runs of same-colored pixels (sky, road, skin), so a
SIMD group of consecutive pixels frequently maps several lanes to the
same histogram bin — the element aliasing behind HIP's 35% (cars) and
20% (people) failure rates in Table 4.  Cross-thread contention is
irrelevant to HIP because the histogram is privatized.

We substitute a first-order Markov image: with probability
``coherence`` a pixel repeats the previous color, otherwise it draws a
fresh color from a Zipf-skewed palette.  ``coherence`` directly
controls the alias rate; ``skew`` shapes the global histogram.  The
paper's random-input control (Section 5.1) is ``coherence=0, skew=0``.
"""

from __future__ import annotations

import math
from typing import List

from repro.errors import ConfigError
from repro.workloads.interning import interned_generator
from repro.workloads.rng import Generator

__all__ = ["generate_image", "alias_fraction"]


@interned_generator
def generate_image(
    n_pixels: int,
    n_colors: int,
    coherence: float,
    skew: float,
    seed: int,
) -> List[int]:
    """Generate ``n_pixels`` color values in ``[0, n_colors)``.

    ``coherence`` is the probability that a pixel repeats its
    predecessor's color (spatial runs); ``skew`` is the Zipf exponent
    of the fresh-color distribution (0 = uniform).
    """
    if n_pixels <= 0 or n_colors <= 0:
        raise ConfigError("n_pixels and n_colors must be positive")
    if not 0 <= coherence < 1:
        raise ConfigError(f"coherence must be in [0, 1), got {coherence}")
    if skew < 0:
        raise ConfigError(f"skew must be >= 0, got {skew}")
    rng = Generator(seed)
    # The C library's pow and an exact sum: the same weights on every
    # host (a vectorised pow can differ in the last bit).
    weights = [float(rank) ** -skew for rank in range(1, n_colors + 1)]
    total = math.fsum(weights)
    probabilities = [weight / total for weight in weights]
    color_of_rank = rng.permutation(n_colors)
    fresh = rng.choice(n_colors, n_pixels, p=probabilities)
    repeat = [u < coherence for u in rng.random(n_pixels)]
    pixels: List[int] = []
    previous = color_of_rank[fresh[0]]
    for i in range(n_pixels):
        if not (repeat[i] and pixels):
            previous = color_of_rank[fresh[i]]
        pixels.append(previous)
    return pixels


def alias_fraction(pixels: List[int], simd_width: int) -> float:
    """Fraction of pixels aliasing within their SIMD group.

    A diagnostic the dataset profiles use to confirm a generated image
    lands in the paper's failure-rate regime: for each consecutive
    group of ``simd_width`` pixels, every pixel beyond the first with a
    repeated color counts as an alias.
    """
    if simd_width <= 1 or not pixels:
        return 0.0
    aliased = 0
    total = 0
    for start in range(0, len(pixels) - simd_width + 1, simd_width):
        group = pixels[start : start + simd_width]
        aliased += len(group) - len(set(group))
        total += len(group)
    return aliased / total if total else 0.0
