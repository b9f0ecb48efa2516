"""LZ77 match finders.

The paper (Section II-B) attributes the compression-speed / ratio trade-off
to the match-finding algorithm selected by the compression level, "ranging
from fast greedy algorithms to slow dynamic programming algorithms". The
same progression is implemented here:

- :class:`SingleHashMatchFinder` -- one-slot hash table, greedy, optional
  acceleration (skip step growth); the LZ4 / zstd-fast strategy.
- :class:`HashChainMatchFinder` -- hash chains with bounded search depth and
  0/1/2-step lazy evaluation; the greedy/lazy/lazy2 strategies.
- :class:`OptimalMatchFinder` -- dynamic-programming parse minimizing an
  estimated coded size; the btopt-style strategy used by high levels.
"""

from repro.codecs.matchfinders.base import MatchFinder
from repro.codecs.matchfinders.single_hash import SingleHashMatchFinder
from repro.codecs.matchfinders.hash_chain import HashChainMatchFinder
from repro.codecs.matchfinders.optimal import OptimalMatchFinder
from repro.lazy import lazy_exports

_FINDERS = {
    "fast": SingleHashMatchFinder,
    "greedy": HashChainMatchFinder,
    "lazy": HashChainMatchFinder,
    "lazy2": HashChainMatchFinder,
    "optimal": OptimalMatchFinder,
}


def finder_for_strategy(strategy: str) -> MatchFinder:
    """Instantiate the match finder implementing ``strategy``."""
    try:
        return _FINDERS[strategy]()
    except KeyError:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {sorted(_FINDERS)}"
        ) from None


__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.codecs.matchfinders.base": (
            "MatchFinderParams",
            "chain_links",
            "hash_positions",
            "history_table",
        ),
    },
)
__all__ += [
    "HashChainMatchFinder",
    "MatchFinder",
    "OptimalMatchFinder",
    "SingleHashMatchFinder",
    "finder_for_strategy",
]
