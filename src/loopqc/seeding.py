"""Deterministic randomness streams derived from one root seed.

Every CLI command owns a single 64-bit seed; sub-tasks (shots, trials,
herald sampling) each get their own stream named by string/int ids.  The
streams are independent Philox counters keyed by the seed, so the draw
order of one task never shifts another task's samples -- results stay
reproducible even if inner loops are reordered or parallelized.
"""

import hashlib
import numbers

import numpy as np


def _canonical_id(stream_id):
    """Equal ids name one stream whatever their type (Python or numpy str
    and int); bools keep streams of their own."""
    if isinstance(stream_id, str):
        return str(stream_id)
    if isinstance(stream_id, numbers.Integral):
        return stream_id if isinstance(stream_id, bool) else int(stream_id)
    raise TypeError(f"stream ids must be str or integers, got "
                    f"{type(stream_id).__name__}")


def derive_rng(seed: int, *stream_ids) -> np.random.Generator:
    """Generator for the (seed, stream_ids) stream.

    The ids are hashed into the Philox counter, the seed into its key, so
    any two distinct id tuples yield statistically independent streams and
    the same tuple always reproduces the same draws.
    """
    seed = int(seed)
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    label = "/".join(repr(_canonical_id(s)) for s in stream_ids).encode()
    digest = hashlib.sha256(label).digest()
    counter = np.frombuffer(digest, dtype=np.uint64)[:4]
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))
