"""Tests for the online invariant auditor (:mod:`repro.obs.audit`).

Three layers:

* **Clean-matrix**: every workload under every design x geometry the
  paper sweeps must produce *zero* violations — the auditor certifies
  the simulator, and the simulator certifies the auditor has no false
  positives.
* **Seeded bugs**: deliberately broken hook streams (a dropped
  response, an MSHR occupancy jump, an out-of-order walk level, ...)
  must each be caught with the right violation kind — no false
  negatives.
* **Plumbing**: summaries, strict raising, truncated-run handling.
"""

import pytest

from repro.arch.params import scaled_params
from repro.core.config import design
from repro.obs import AuditError, AuditProbe
from repro.sim.simulator import simulate
from repro.workloads.registry import WORKLOAD_NAMES, build_kernel

DESIGNS = ["private", "shared", "mgvm-nobalance", "mgvm"]
GEOMETRIES = [
    (2, "all-to-all"),
    (2, "ring"),
    (4, "all-to-all"),
    (4, "ring"),
    (8, "all-to-all"),
    (8, "ring"),
]


def _kinds(audit):
    return {violation.kind for violation in audit.violations}


# -- no false positives: the paper's whole matrix audits clean ---------------


@pytest.mark.parametrize("workload", list(WORKLOAD_NAMES))
def test_audit_clean_across_designs_and_geometries(workload):
    """Zero violations over designs x chiplets x topologies (smoke)."""
    kernel = build_kernel(workload, scale="smoke")
    failures = []
    for design_name in DESIGNS:
        for chiplets, topology in GEOMETRIES:
            params = scaled_params(
                "smoke", num_chiplets=chiplets, topology=topology
            )
            audit = AuditProbe()
            simulate(kernel, params, design(design_name), probe=audit)
            assert audit.finished
            assert audit.starts > 0  # the workload actually translated
            assert audit.checks_passed > 0
            if not audit.ok:
                failures.append(
                    "%s/%s x%d %s: %s"
                    % (
                        workload,
                        design_name,
                        chiplets,
                        topology,
                        audit.violations[:3],
                    )
                )
    assert not failures, "\n".join(failures)


def test_audit_observes_epoch_rolls(run_smoke):
    """The mgvm design at smoke scale must exercise RTU reconciliation."""
    kernel = build_kernel("GUPS", scale="smoke")
    params = scaled_params("smoke")
    audit = AuditProbe()
    simulate(kernel, params, design("mgvm"), probe=audit)
    assert audit.ok, audit.violations
    assert audit.epochs > 0  # reconciliation actually ran
    assert audit.summary()["epochs"] == audit.epochs


# -- no false negatives: seeded bugs must be caught --------------------------


class _DropFirstRespond(AuditProbe):
    """Audit probe that never 'sees' the first response — the seeded bug
    the acceptance criteria call out (a skipped ``respond``)."""

    def __init__(self):
        super().__init__()
        self.dropped = False

    def respond(self, req, entry, walk, chiplet, arrive):
        if not self.dropped:
            self.dropped = True
            return
        super().respond(req, entry, walk, chiplet, arrive)


def test_seeded_missing_respond_is_caught():
    kernel = build_kernel("GUPS", scale="smoke")
    params = scaled_params("smoke")
    audit = _DropFirstRespond()
    simulate(kernel, params, design("mgvm"), probe=audit)
    assert audit.dropped
    assert not audit.ok
    kinds = _kinds(audit)
    assert "request-conservation" in kinds
    assert "requests-in-flight" in kinds
    with pytest.raises(AuditError) as excinfo:
        audit.raise_if_violations()
    assert "request-conservation" in str(excinfo.value) or "violation" in str(
        excinfo.value
    )


# -- synthetic hook streams (unit level) -------------------------------------


class _FakeEngine:
    def __init__(self, now=0.0, pending=0):
        self.now = now
        self.events = [None] * pending


class _Req:
    def __init__(self, vpn=0x1000, origin=0, t0=0.0):
        self.vpn = vpn
        self.origin = origin
        self.t0 = t0


class _WalkRecord:
    def __init__(self, vpn=0x1000, start_level=4, t_request=0.0):
        self.vpn = vpn
        self.start_level = start_level
        self.t_request = t_request


def _bare_audit(now=0.0, pending=0):
    audit = AuditProbe()
    audit.engine = _FakeEngine(now=now, pending=pending)
    return audit


def test_mshr_occupancy_jump_is_flagged():
    audit = _bare_audit()
    audit.mshr_occupancy("l2mshr0", 1)  # ok (+1 from adopted 0)
    audit.mshr_occupancy("l2mshr0", 3)  # jump of +2
    assert "mshr-occupancy-step" in _kinds(audit)


def test_mshr_negative_occupancy_is_flagged():
    audit = _bare_audit()
    audit.mshr_occupancy("l2mshr0", -1)
    assert "mshr-capacity" in _kinds(audit)


def test_mshr_leak_at_run_end_is_flagged():
    audit = _bare_audit()
    audit.mshr_occupancy("l2mshr0", 1)
    audit.run_finished(None)
    kinds = _kinds(audit)
    assert "mshr-leak" in kinds
    assert "mshr-balance" in kinds


def test_walk_level_order_violation():
    audit = _bare_audit()
    record = _WalkRecord(start_level=4)
    audit.walk_start(record, chiplet=0)
    audit.walk_level(record, 0, 4, False, 0.0, 1.0)  # ok
    audit.walk_level(record, 0, 2, False, 1.0, 2.0)  # skips level 3
    assert "walk-level-order" in _kinds(audit)


def test_walk_done_without_level1_read():
    audit = _bare_audit()
    record = _WalkRecord(start_level=2)
    audit.walk_start(record, chiplet=1)
    audit.walk_level(record, 1, 2, False, 0.0, 1.0)
    audit.walk_done(record, chiplet=1)  # never read level 1
    assert "walk-incomplete" in _kinds(audit)


def test_walk_done_twice_is_flagged():
    audit = _bare_audit()
    record = _WalkRecord(start_level=1)
    audit.walk_start(record, chiplet=0)
    audit.walk_level(record, 0, 1, False, 0.0, 1.0)
    audit.walk_done(record, chiplet=0)
    audit.walk_done(record, chiplet=0)
    assert "walk-done-without-grant" in _kinds(audit)


def test_duplicate_respond_is_flagged():
    audit = _bare_audit()
    req = _Req()
    audit.translation_start(req)
    audit.respond(req, None, None, 0, 0.0)
    assert audit.ok
    audit.respond(req, None, None, 0, 0.0)
    assert "respond-unmatched" in _kinds(audit)


def test_route_timestamp_regression_is_flagged():
    audit = _bare_audit(now=10.0)
    req = _Req(t0=10.0)
    audit.translation_start(req)
    audit.route(req, 0, 1, depart=5.0, arrive=6.0)  # departs in the past
    assert "timestamp-regression" in _kinds(audit)


def test_engine_clock_regression_is_flagged():
    """An out-of-order dispatch moves engine.now backwards between hooks,
    even when each request's own timestamps stay consistent."""
    audit = _bare_audit(now=10.0)
    audit.translation_start(_Req(vpn=0x1000, t0=10.0))
    audit.translation_start(_Req(vpn=0x2000, t0=10.0))  # same time: fine
    assert audit.ok
    audit.engine.now = 4.0
    audit.translation_start(_Req(vpn=0x3000, t0=4.0))
    assert _kinds(audit) == {"engine-clock-regression"}


def test_unfinished_request_breaks_conservation():
    audit = _bare_audit()
    req = _Req()
    audit.l1_miss(None, req.vpn)
    audit.translation_start(req)
    audit.run_finished(None)
    kinds = _kinds(audit)
    assert "request-conservation" in kinds
    assert "requests-in-flight" in kinds


def test_truncated_run_skips_conservation():
    """A run stopped by max_events legitimately leaves work in flight."""
    audit = _bare_audit(pending=3)  # events still queued at run_finished
    req = _Req()
    audit.l1_miss(None, req.vpn)
    audit.translation_start(req)
    audit.run_finished(None)
    assert audit.ok


def test_max_events_truncation_end_to_end():
    """Simulator.run(max_events=...) under audit: no spurious violations."""
    from repro.driver.kernel_launch import launch_kernel
    from repro.sim.simulator import Simulator

    kernel = build_kernel("GUPS", scale="smoke")
    params = scaled_params("smoke")
    audit = AuditProbe()
    launch = launch_kernel(kernel, params, design("mgvm"))
    sim = Simulator(launch, params, probe=audit)
    sim.run(max_events=500)
    assert len(sim.engine.events) > 0  # actually truncated
    assert audit.ok, audit.violations


def test_summary_and_violation_shapes():
    audit = _bare_audit()
    audit.mshr_occupancy("m", 5)
    summary = audit.summary()
    assert summary["ok"] is False
    assert summary["violations"] == 1
    assert summary["by_kind"] == {"mshr-occupancy-step": 1}
    violation = audit.violations[0]
    payload = violation.to_dict()
    assert payload["kind"] == "mshr-occupancy-step"
    assert "jumped" in payload["message"]
    assert repr(violation).startswith("AuditViolation(")


def test_violation_cap_suppresses_but_counts():
    audit = _bare_audit()
    audit.max_violations = 3
    for occupancy in (2, 5, 9, 14, 20):  # five consecutive jumps
        audit.mshr_occupancy("m", occupancy)
    assert len(audit.violations) == 3
    assert audit.suppressed == 2
    assert audit.summary()["violations"] == 5
    assert not audit.ok
