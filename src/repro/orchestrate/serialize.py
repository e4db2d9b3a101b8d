"""Canonical JSON forms of campaign inputs and outputs.

The result store persists campaign results as JSON and keys them by a
hash of each run's parameters, so both need a faithful, *stable* JSON
representation:

* :func:`config_to_dict` / :func:`config_from_dict` round-trip a
  :class:`~repro.tmu.config.TmuConfig` including its budget policy.
  Stability matters doubly here — the canonical dict also feeds the
  run parameter hash that keys the result store.
* :func:`result_to_dict` / :func:`result_from_dict` round-trip both
  :class:`~repro.faults.campaign.InjectionResult` and
  :class:`~repro.soc.experiment.SystemInjectionResult` without losing
  any field, so store hits reproduce the exact objects a live run
  returns (unlike the lossy report-oriented exports in
  :mod:`repro.analysis.export`).
* :func:`run_param_dict` is the plain-data identity of a run that the
  store hashes into its key.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict

from ..tmu.budget import (
    AdaptiveBudgetPolicy,
    FixedBudgetPolicy,
    PhaseBudgets,
    SpanBudgets,
)
from ..tmu.config import TmuConfig, Variant


class SpecSerializationError(TypeError):
    """Raised when a campaign input cannot be canonically serialized."""


# ----------------------------------------------------------------------
# TmuConfig
# ----------------------------------------------------------------------
def _flat_fields(obj) -> Dict[str, Any]:
    """``dataclasses.asdict`` for a dataclass of scalars, without its
    recursive deep copy (this runs once per campaign run)."""
    return {field.name: getattr(obj, field.name) for field in dataclasses.fields(obj)}


def budgets_to_dict(budgets: AdaptiveBudgetPolicy) -> Dict[str, Any]:
    """Canonical dict of a budget policy (adaptive or fixed)."""
    if type(budgets) is FixedBudgetPolicy:
        return {
            "type": "fixed",
            "phase_budget": budgets.phase_budget,
            "span_budget_cycles": budgets.span_budget_cycles,
        }
    if type(budgets) is AdaptiveBudgetPolicy:
        return {
            "type": "adaptive",
            "phases": _flat_fields(budgets.phases),
            "span": _flat_fields(budgets.span),
        }
    raise SpecSerializationError(
        f"cannot serialize budget policy of type {type(budgets).__name__}; "
        f"campaign specs support AdaptiveBudgetPolicy and FixedBudgetPolicy"
    )


def budgets_from_dict(data: Dict[str, Any]) -> AdaptiveBudgetPolicy:
    if data["type"] == "fixed":
        return FixedBudgetPolicy(
            phase_budget=data["phase_budget"],
            span_budget_cycles=data["span_budget_cycles"],
        )
    return AdaptiveBudgetPolicy(
        PhaseBudgets(**data["phases"]), SpanBudgets(**data["span"])
    )


def config_to_dict(config: TmuConfig) -> Dict[str, Any]:
    """Canonical, JSON-ready dict of a :class:`TmuConfig`."""
    return {
        "variant": config.variant.value,
        "max_uniq_ids": config.max_uniq_ids,
        "txn_per_id": config.txn_per_id,
        "prescale_step": config.prescale_step,
        "sticky": config.sticky,
        "budgets": budgets_to_dict(config.budgets),
        "protocol_check_immediate": config.protocol_check_immediate,
        "max_txn_cycles": config.max_txn_cycles,
        "error_log_depth": config.error_log_depth,
        "enabled": config.enabled,
        "trip_on_error_resp": config.trip_on_error_resp,
    }


def config_from_dict(data: Dict[str, Any]) -> TmuConfig:
    return TmuConfig(
        variant=Variant(data["variant"]),
        max_uniq_ids=data["max_uniq_ids"],
        txn_per_id=data["txn_per_id"],
        prescale_step=data["prescale_step"],
        sticky=data["sticky"],
        budgets=budgets_from_dict(data["budgets"]),
        protocol_check_immediate=data["protocol_check_immediate"],
        max_txn_cycles=data["max_txn_cycles"],
        error_log_depth=data["error_log_depth"],
        enabled=data["enabled"],
        trip_on_error_resp=data["trip_on_error_resp"],
    )


# ----------------------------------------------------------------------
# Run parameters — the result store's key material
# ----------------------------------------------------------------------
def run_param_dict(run) -> Dict[str, Any]:
    """The simulation-determining parameters of a run, as plain data.

    Everything that changes what :func:`~.executor.execute_run` computes
    is here; everything that merely names the run's place inside one
    campaign (``index``, and the ``run_id`` derived from it) is not.
    This is the identity the run-granular result store keys on, so the
    same injection reused by two different sweeps hashes identically in
    both.
    """
    return {
        "kind": run.kind,
        "config": run.config,
        "stage": run.stage,
        "seed": run.seed,
        "beats": run.beats,
        "background": run.background,
        "detect_timeout": run.detect_timeout,
        "recovery_timeout": run.recovery_timeout,
        "harness_kwargs": [list(item) for item in run.harness_kwargs],
        "size": run.size,
        "outstanding": run.outstanding,
        "reorder_depth": run.reorder_depth,
    }


# ----------------------------------------------------------------------
# Injection results (IP and system level)
# ----------------------------------------------------------------------
def result_to_dict(result) -> Dict[str, Any]:
    """Full-fidelity dict of an IP- or system-level injection result."""
    # Imported here: the orchestrator is a layer above the runners, and
    # the runners import it lazily for their parallel paths.
    from ..faults.campaign import InjectionResult
    from ..soc.experiment import SystemInjectionResult

    if isinstance(result, InjectionResult):
        kind = "ip"
    elif isinstance(result, SystemInjectionResult):
        kind = "system"
    else:
        raise SpecSerializationError(
            f"cannot serialize result of type {type(result).__name__}"
        )
    payload = dataclasses.asdict(result)
    payload["stage"] = result.stage.value
    payload["kind"] = kind
    return payload


def result_from_dict(data: Dict[str, Any]):
    from ..faults.campaign import InjectionResult
    from ..faults.types import InjectionStage
    from ..soc.experiment import SystemInjectionResult

    payload = dict(data)
    kind = payload.pop("kind")
    payload["stage"] = InjectionStage(payload["stage"])
    cls = InjectionResult if kind == "ip" else SystemInjectionResult
    return cls(**payload)
