"""Per-trial seed derivation shared by every execution path.

Historically each caller spaced trial seeds with ad-hoc arithmetic like
``seed + index * 7919``, which collides across adjacent base seeds
(``seed=7919, index=0`` and ``seed=0, index=1`` run the *same* trial and
silently correlate "independent" measurements). Batched seed fan-out now
goes through :func:`trial_seed` (in :meth:`repro.runtime.CellSpec.trial_specs`),
a splitmix64-style bijective mixer: the same ``(base_seed, index)`` pair
always yields the same trial seed, distinct pairs essentially never share
one, and both the serial and the parallel executor paths use this single
definition, so they are bit-identical. The in-process probes that hold
live hooks or censors still space seeds by ``+ index * 7919``:
``seq_offset_probe``, ``drop_client_rst_probe`` and ``rst_seq_match_probe``
in :mod:`repro.eval.followups` and ``protocol_dependence`` in
:mod:`repro.eval.multibox` (whose ``localize_boxes`` TTL probes use
``seed * 31 + ttl * 7 + attempt * 7919``).
"""

from __future__ import annotations

__all__ = ["splitmix64", "trial_seed", "net_stream_seed", "fleet_stream_seed"]

_MASK64 = (1 << 64) - 1
#: splitmix64's additive constant (the 64-bit golden ratio).
_GOLDEN = 0x9E3779B97F4A7C15

#: Domain-separation salt for the network-impairment stream. Any value
#: works as long as it is fixed; this one spells "net noise" loosely.
_NET_SALT = 0x4E45_545F_4E4F_4953

#: Domain-separation salt for fleet-mode world streams ("FLEET" in hex).
_FLEET_SALT = 0x464C_4545_545F_5357


def splitmix64(value: int) -> int:
    """One splitmix64 finalization round (Steele et al., "Fast Splittable
    Pseudorandom Number Generators"). A bijection on 64-bit integers with
    full avalanche: flipping any input bit flips ~half the output bits.
    """
    value = (value + _GOLDEN) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def trial_seed(base_seed: int, index: int) -> int:
    """Derive the seed for trial ``index`` of a batch with ``base_seed``.

    Two mixing rounds keep the (base, index) plane collision-free in
    practice: the index is avalanched first so that nearby bases combined
    with nearby indices cannot land on the same lattice point the way the
    old ``base + index * prime`` spacing did. The result is non-negative
    and fits in 63 bits (safe for ``random.Random`` everywhere).
    """
    mixed = splitmix64((base_seed & _MASK64) ^ splitmix64(index & _MASK64))
    return mixed >> 1


def net_stream_seed(seed: int) -> int:
    """Split the network-impairment RNG stream off a trial seed.

    Netsim impairment draws must come from their own ``random.Random``:
    sharing a generator with censor models, endpoint ISNs, or GA
    mutation would let turning impairment on or off shift *every other*
    random decision in a trial. Domain-separating the trial seed with a
    fixed salt (then avalanching) yields an independent, reproducible
    stream — and consuming it leaves all other streams untouched, so
    trials with impairment disabled are bit-identical to trials that
    never heard of impairment.
    """
    return splitmix64((seed & _MASK64) ^ _NET_SALT) >> 1


def fleet_stream_seed(seed: int, stream: int = 0) -> int:
    """Split a fleet-world stream (arrivals, mix assignment, ...) off a seed.

    Fleet mode derives per-flow *trial* seeds with :func:`trial_seed`
    (flow ``i`` of a fleet with ``seed`` replays trial ``i`` of a batch
    with the same seed — the anchor of the single-flow-equivalence
    guarantee). World-level draws — arrival spacing, client-mix
    assignment — must therefore come from streams that cannot collide
    with any flow's trial seed; a fixed fleet salt plus a per-stream
    index keeps them domain-separated and reproducible.
    """
    mixed = splitmix64((seed & _MASK64) ^ _FLEET_SALT)
    return splitmix64(mixed ^ splitmix64(stream & _MASK64)) >> 1
