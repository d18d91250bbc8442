"""Seed-stream hygiene: ``SeedSequence``-spawned child streams.

The workload generators need several independent random streams per
call (a base diurnal stream, a burst stream, one stream per fleet
member, ...).  Historically those were derived with ad-hoc ``seed +
offset`` arithmetic, which has two well-known problems:

* nearby seeds produce *correlated* bit-generator states for some
  generators, so "independent" functions can share burst timing;
* offset ranges collide silently (``seed=10, offset=20`` equals
  ``seed=20, offset=10``), coupling unrelated fleet members.

``numpy.random.SeedSequence.spawn`` is the supported fix: children are
cryptographically decorrelated and keyed by position, never by
arithmetic on the root seed.  Every generator in this package now
accepts either a plain ``int`` seed or a ``SeedSequence``:

* **int** -- the legacy path.  :func:`derive_streams` reproduces the
  exact historical ``seed + offset`` values, so every checked-in
  golden (``tests/data/goldens/``, regenerated only by ``pytest
  --update-goldens``) and seeded benchmark stays bit-identical.
* **SeedSequence** -- the hygienic path.  Streams are spawned children
  of the caller's sequence; the campaign runner
  (:mod:`repro.campaign`) uses this exclusively.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

#: What generator ``seed=`` parameters accept: a legacy integer seed or
#: a hygienic ``SeedSequence``.
SeedLike = Union[int, np.random.SeedSequence]


def as_seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """Coerce a seed-like value to a ``SeedSequence``.

    Note this does *not* preserve legacy streams: an int coerced here
    seeds the sequence's entropy pool, which is a different stream from
    ``default_rng(int)``'s.  Use it for new code that wants spawnable
    seeds; use :func:`derive_streams` inside generators that must keep
    their historical int-seed behaviour.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(int(seed))


def derive_streams(
    seed: SeedLike, legacy_offsets: Sequence[int]
) -> List[SeedLike]:
    """One seed-like value per requested stream.

    The compat shim at the heart of the package: given an ``int`` seed
    it returns the historical ``seed + offset`` integers (bit-identical
    goldens); given a ``SeedSequence`` it returns
    ``len(legacy_offsets)`` spawned children (decorrelated streams).
    Either way each returned value feeds ``numpy.random.default_rng``
    or a nested generator's ``seed=`` parameter directly.
    """
    if isinstance(seed, np.random.SeedSequence):
        return list(seed.spawn(len(legacy_offsets)))
    return [int(seed) + int(offset) for offset in legacy_offsets]


def spawn_seed_ints(seed: SeedLike, n: int) -> List[int]:
    """``n`` independent integer seeds spawned from ``seed``.

    For consumers whose API stores plain-int seeds (JSON specs, the
    simulation runtime): each int is the first 64-bit word of a spawned
    child's generated state, so the ints inherit ``spawn``'s
    decorrelation guarantees instead of being ``root + i``.
    """
    children = as_seed_sequence(seed).spawn(n)
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in children]
