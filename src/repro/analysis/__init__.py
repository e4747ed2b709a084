"""Analysis helpers: iterated logs, bound overlays, growth-rate fitting.

Each name below loads its submodule on first access.
"""

from .._exports import lazy_exports

_EXPORTS = {
    "PAPER_SLACK": ".bounds",
    "SlackBudget": ".bounds",
    "lemma4_cost_bound": ".bounds",
    "lemma11_migration_bound": ".bounds",
    "lemma12_reallocation_bound": ".bounds",
    "observation13_bound": ".bounds",
    "theorem1_cost_bound": ".bounds",
    "log_star": ".logstar",
    "paper_level_count": ".logstar",
    "paper_thresholds": ".logstar",
    "tower": ".logstar",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
