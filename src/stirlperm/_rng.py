"""Seed handling shared by the samplers and the Monte Carlo harness.

All randomness flows through numpy ``Generator`` objects.  Functions that
accept a ``seed`` take either an integer (wrapped in a fresh PCG64 stream),
an existing ``Generator`` (used as-is), or ``None`` (OS entropy).

Independent substreams are derived deterministically from a seed ``s``:

* word ``r`` of the CLI command ``sample`` comes from
  ``SeedSequence(s, spawn_key=(1, r))``;
* every experiment generator of the harness draws its fixed-size chunk ``c``
  from ``SeedSequence(s, spawn_key=(2, c))``.

The two spawn-key prefixes keep the key spaces disjoint.  numpy is imported
by these functions, not at module top, so that the exact side of the
package, which draws nothing, loads without it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def as_generator(seed=None) -> np.random.Generator:
    """Coerce ``seed`` into a numpy Generator."""
    import numpy as np

    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def replicate_stream(master_seed: int, index: int) -> np.random.Generator:
    """Stream for replicate ``index`` of an experiment seeded with ``master_seed``."""
    import numpy as np

    ss = np.random.SeedSequence(master_seed, spawn_key=(1, index))
    return np.random.Generator(np.random.PCG64(ss))


def chunk_stream(master_seed: int, index: int) -> np.random.Generator:
    """Stream for replicate-chunk ``index`` of an experiment seeded with ``master_seed``."""
    import numpy as np

    ss = np.random.SeedSequence(master_seed, spawn_key=(2, index))
    return np.random.Generator(np.random.PCG64(ss))
