"""AdmissionController: request + role → priority class, under quota.

The job manager consults one controller at ``submit``, whether its
jobs queue in memory or in the durable spool.  It does two things:

* **Class resolution.**  A request carrying an explicit ``priority``
  gets it (validated; ``urgent`` needs the ``admin`` role whenever a
  role is present — direct CLI/embedding callers have ``role == ""``
  and are trusted, the HTTP edge always resolves a role when auth is
  configured).  Without one, the kind's default class applies
  (run → interactive, batch → batch, synth → background).
* **Quota enforcement.**  The resolved :class:`QuotaPolicy` (client
  override → role override → default) is checked against the client's
  live jobs; over quota raises :class:`QuotaExceededError` — a 429 with
  ``Retry-After``, deliberately a *distinct type* from whole-queue
  :class:`~repro.api.errors.BackpressureError` so clients and metrics
  can tell "you specifically are over quota" from "the plane is full".
"""

from __future__ import annotations

from typing import Callable, Iterable, Tuple, Union

from repro.api.errors import ForbiddenError, QuotaExceededError
from repro.sched.policy import (
    ADMIN_ONLY_CLASSES,
    SchedulerConfig,
    class_rank,
)

#: the job states that count against quotas (live jobs only)
_QUEUED = ("queued",)
_RUNNING = ("running",)


class AdmissionController:
    """Stateless policy gate in front of the job manager."""

    def __init__(self, config: SchedulerConfig) -> None:
        self.config = config

    def resolve_class(self, request, kind: str, role: str = "") -> str:
        """The priority class this submit runs under (may raise 400/403)."""
        explicit = getattr(request, "priority", None)
        if explicit:
            name = str(explicit)
            class_rank(name)  # ValidationError on unknown names
            if name in ADMIN_ONLY_CLASSES and role and role != "admin":
                raise ForbiddenError(
                    f"priority class {name!r} requires the admin role "
                    f"(authenticated as {role!r})"
                )
            return name
        return self.config.class_for_kind(kind)

    def admit(
        self,
        request,
        kind: str,
        role: str,
        client_id: str,
        active: Iterable[Tuple[str, str]],
        retry_after: Union[float, Callable[[], float]] = 1.0,
    ) -> str:
        """Gate one submit; returns the class to stamp into the record.

        ``active`` yields ``(client_id, state)`` pairs for the manager's
        current jobs and ``retry_after`` may be a thunk — both are only
        consumed when the resolved quota is actually bounded (and, for
        the thunk, actually exceeded), so the unlimited default costs
        nothing per submit.
        """
        name = self.resolve_class(request, kind, role)
        quota = self.config.quotas.resolve(client_id, role)
        if quota.unlimited:
            return name
        if callable(retry_after):
            hint = retry_after
        else:
            hint = lambda: retry_after  # noqa: E731 — tiny closure
        queued = running = 0
        for cid, state in active:
            if cid != client_id:
                continue
            if state in _QUEUED:
                queued += 1
            elif state in _RUNNING:
                running += 1
        if quota.max_queued is not None and queued >= quota.max_queued:
            raise QuotaExceededError(
                f"client {client_id!r} is over its queued-depth quota "
                f"({queued}/{quota.max_queued} queued jobs); retry later",
                retry_after=hint(),
            )
        if (
            quota.max_in_flight is not None
            and queued + running >= quota.max_in_flight
        ):
            raise QuotaExceededError(
                f"client {client_id!r} is over its in-flight quota "
                f"({queued + running}/{quota.max_in_flight} live jobs); "
                f"retry later",
                retry_after=hint(),
            )
        return name
