"""Automatic scheduling: search over the scheduling language.

One front door — :func:`autoschedule` — resolves a strategy by name
("pluto" greedy, "beam" search, "evolutionary" refinement; extend with
:func:`register_strategy`) and returns an :class:`AutoScheduleResult`
whose :class:`SchedulePlan` is reified, undoable, and serializable:
apply it in place, or compile with ``fn.compile(autoschedule=plan)``
and let the driver key its caches on it.  See docs/autoscheduler.md.
"""

from .actions import (ActionError, Fuse, Interchange, Parallelize,
                      ScheduleAction, Tile, Unroll, Vectorize,
                      register_action)
from .api import (AutoScheduleResult, Strategy, UnknownStrategyError,
                  autoschedule, get_strategy, register_strategy,
                  registered_strategies)
from .oracle import CostOracle, MeasuredOracle, ModelOracle
from .plan import PLAN_FORMAT_VERSION, SchedulePlan, SchedulePlanError
from .pluto import AutoScheduleReport, build_pluto_plan
from .search import (SearchReport, beam_search, enumerate_actions,
                     evolutionary_search)

__all__ = [
    "ActionError",
    "AutoScheduleReport",
    "AutoScheduleResult",
    "CostOracle",
    "Fuse",
    "Interchange",
    "MeasuredOracle",
    "ModelOracle",
    "PLAN_FORMAT_VERSION",
    "Parallelize",
    "ScheduleAction",
    "SchedulePlan",
    "SchedulePlanError",
    "SearchReport",
    "Strategy",
    "Tile",
    "Unroll",
    "UnknownStrategyError",
    "Vectorize",
    "autoschedule",
    "beam_search",
    "build_pluto_plan",
    "enumerate_actions",
    "evolutionary_search",
    "get_strategy",
    "register_action",
    "register_strategy",
    "registered_strategies",
]
