"""Multi-machine reduction (Section 3) and the elastic-machines extension
(a Section 7 open question).

Each name below loads its submodule on first access.
"""

from .._exports import lazy_exports

_EXPORTS = {
    "DelegatingScheduler": ".delegation",
    "WindowBalancer": ".delegation",
    "ElasticScheduler": ".elastic",
    "ElasticWindowBalancer": ".elastic",
    "balanced_targets": ".elastic",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
