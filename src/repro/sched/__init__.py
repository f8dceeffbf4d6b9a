"""repro.sched — priority-aware admission and scheduling for the execution plane.

The subsystem sits between request admission (the API facade and the
middleware chain) and the durable :class:`~repro.exec.queue.JobQueue`:

* :mod:`repro.sched.policy` — the vocabulary: priority classes
  (``urgent < interactive < batch < background``), per-client/per-role
  :class:`QuotaPolicy` limits, the weighted fair-share ledger, and the
  JSON-loadable :class:`SchedulerConfig` that ties them together.
* :mod:`repro.sched.admission` — the :class:`AdmissionController` the
  job manager consults at submit: request + role → priority class,
  quota enforcement (:class:`~repro.api.errors.QuotaExceededError`).
* :mod:`repro.sched.autoscale` — the :class:`QueueAutoscaler` the
  supervisor ticks to grow/shrink worker slots from queue pressure.
"""

from repro.sched.admission import AdmissionController
from repro.sched.autoscale import QueueAutoscaler
from repro.sched.policy import (
    ADMIN_ONLY_CLASSES,
    AGING_FLOOR,
    DEFAULT_CLASS_BY_KIND,
    PRIORITY_CLASSES,
    AutoscalePolicy,
    FairShareLedger,
    PriorityClass,
    QuotaPolicy,
    QuotaTable,
    SchedulerConfig,
    class_rank,
    class_of_rank,
    load_scheduler_config,
    summarize_class_stats,
    zeroed_class_stats,
)

__all__ = [
    "ADMIN_ONLY_CLASSES",
    "AGING_FLOOR",
    "DEFAULT_CLASS_BY_KIND",
    "PRIORITY_CLASSES",
    "AdmissionController",
    "AutoscalePolicy",
    "FairShareLedger",
    "PriorityClass",
    "QueueAutoscaler",
    "QuotaPolicy",
    "QuotaTable",
    "SchedulerConfig",
    "class_rank",
    "class_of_rank",
    "load_scheduler_config",
    "summarize_class_stats",
    "zeroed_class_stats",
]
