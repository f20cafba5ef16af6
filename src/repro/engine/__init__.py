"""The parallel batch engine (execution layer of :mod:`repro.session`).

Layers on top of the paper's pipeline (:mod:`repro.core`):

* :mod:`repro.engine.executor` — branch-parallel enumeration *and
  counting* of one pipeline across a process pool, with a
  deterministic merge that reproduces the serial answer order
  byte-for-byte (and, for :func:`parallel_count`, the exact serial
  count); every mode yields one stream of bounded answer chunks;
* :mod:`repro.engine.pool` — :class:`WorkerPool`, the long-lived,
  lazily-started, crash-restarting worker pool each
  :class:`repro.session.Database` owns (and the only place executors
  are constructed);
* :mod:`repro.engine.transport` / :mod:`repro.engine.mailbox` — the
  columnar codec process-mode answers cross the process boundary in,
  and the shared-memory ring that streams them;
* :mod:`repro.engine.cache` — LRU pipeline cache keyed by
  ``(structure fingerprint, normalized formula, order)``, with
  targeted re-keying for dynamically maintained plans.

The front-end is the session layer::

    from repro.session import Database

    with Database(structure, workers=4) as db:
        answers = db.query("B(x) & R(y) & ~E(x,y)").answers()
        first = answers.page(0, size=20)
        total = answers.count()     # parallel per-branch counting
        for answer in answers:
            ...

Exports resolve lazily, so the module plays no part in import cycles
with the session layer it sits under.
"""

_EXPORTS = {
    "BranchTask": ("repro.engine.executor", "BranchTask"),
    "ColumnarCodec": ("repro.engine.transport", "ColumnarCodec"),
    "InternTable": ("repro.engine.transport", "InternTable"),
    "PipelineCache": ("repro.engine.cache", "PipelineCache"),
    "TransferStats": ("repro.engine.transport", "TransferStats"),
    "WorkerPool": ("repro.engine.pool", "WorkerPool"),
    "branch_works": ("repro.engine.executor", "branch_works"),
    "cache_key": ("repro.engine.cache", "cache_key"),
    "count_works": ("repro.engine.executor", "count_works"),
    "decide_count_mode": ("repro.engine.executor", "decide_count_mode"),
    "decide_mode": ("repro.engine.executor", "decide_mode"),
    "default_workers": ("repro.engine.executor", "default_workers"),
    "normalize_formula": ("repro.engine.cache", "normalize_formula"),
    "parallel_count": ("repro.engine.executor", "parallel_count"),
    "parallel_enumerate": ("repro.engine.executor", "parallel_enumerate"),
    "plan_work_units": ("repro.engine.executor", "plan_work_units"),
    "resolve_chunk_rows": ("repro.engine.executor", "resolve_chunk_rows"),
    "run_branches": ("repro.engine.executor", "run_branches"),
    "transfer_works": ("repro.engine.executor", "transfer_works"),
    "warm_pool": ("repro.engine.executor", "warm_pool"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    target = _EXPORTS.get(name)
    if target is None:
        raise AttributeError(
            f"module 'repro.engine' has no attribute {name!r}"
        )
    import importlib

    module_name, attribute = target
    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value  # cache: resolve each name once
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
