"""The conformance oracle catalogue.

Each oracle inspects one live simulated device (an ``AndroidSystem``
with E-Android attached) and returns the invariant violations it found.
The six *step* oracles are the DESIGN.md §5 invariants that must hold
after **every** framework operation; the *end* oracles are differential
reconciliations run once per scenario.  Metamorphic oracles (observer
purity, time dilation, window permutation) need whole-scenario replays
and therefore live in :mod:`repro.check.runner`, but report violations
through the same :class:`OracleViolation` type.

Both consumers share this single implementation: the hypothesis state
machine in ``tests/test_property_fuzz.py`` asserts after every random
rule, and the fuzz campaign (``python -m repro check``) drives the same
functions over generated scenario scripts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..android.framework import AndroidSystem
    from ..core.eandroid import EAndroid
    from ..core.links import AttackLink

# Conservation identities use the property-test tolerance; charge bounds
# allow the meter's interval-arithmetic slack.
REL_TOL = 1e-9
ABS_TOL = 1e-9
CHARGE_SLACK_J = 1e-6
DIFF_REL_TOL = 1e-6
DIFF_ABS_TOL = 1e-6


@dataclass(frozen=True)
class OracleViolation:
    """One invariant breach: which oracle fired and why."""

    oracle: str
    message: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.message}"

    def to_dict(self) -> Dict[str, str]:
        """JSON-ready form (for verdicts, manifests, corpus entries)."""
        return {"oracle": self.oracle, "message": self.message}


Oracle = Callable[["AndroidSystem", "EAndroid"], List[OracleViolation]]


def _close(a: float, b: float, rel: float = REL_TOL, abs_tol: float = ABS_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


# ----------------------------------------------------------------------
# step oracles — DESIGN.md §5
# ----------------------------------------------------------------------
def energy_conservation(system: "AndroidSystem", ea: "EAndroid") -> List[OracleViolation]:
    """Per-owner energies sum to the device total, which equals drain."""
    meter = system.hardware.meter
    out: List[OracleViolation] = []
    total = meter.total_energy_j()
    by_owner = sum(meter.energy_by_owner().values())
    if not _close(total, by_owner):
        out.append(OracleViolation(
            "energy_conservation",
            f"owner sum {by_owner!r} J != meter total {total!r} J",
        ))
    drained = system.battery.energy_used_j()
    if not _close(drained, total):
        out.append(OracleViolation(
            "energy_conservation",
            f"battery drain {drained!r} J != meter total {total!r} J",
        ))
    return out


def _reference_reachable(live_links: Sequence["AttackLink"], host: int) -> Set[int]:
    """Targets reachable from ``host`` by a plain scan of the live links.

    Deliberately independent of the link index and its walks
    (:class:`~repro.core.links.LinkIndex`), which this oracle is
    checking.
    """
    reached: Set[int] = set()
    nodes = {host}
    grew = True
    while grew:
        grew = False
        for link in live_links:
            target = link.target
            if link.driving_uid in nodes and target != host and target not in reached:
                reached.add(target)
                nodes.add(target)
                grew = True
    return reached


def map_link_consistency(system: "AndroidSystem", ea: "EAndroid") -> List[OracleViolation]:
    """The windows open at ``now`` mirror live-link reachability exactly.

    A map reads the links up to ``now``: a target is charged up to
    ``now`` iff it is reachable over the links live just before it (begun
    before ``now``, not ended before it).  Every uid that ever drove a
    link is checked against a reachability computed here from the raw
    link list, not through the index the maps read.
    """
    out: List[OracleViolation] = []
    accounting = ea.accounting
    now = system.now
    links = accounting.graph.all_links()
    live_links = [
        link
        for link in links
        if link.begin_time < now and (link.end_time is None or link.end_time >= now)
    ]
    for host in sorted({link.driving_uid for link in links}):
        open_targets = {
            target
            for target, spans in accounting.map_for(host).items()
            if spans[-1][1] == now
        }
        reachable = _reference_reachable(live_links, host)
        if open_targets != reachable:
            out.append(OracleViolation(
                "map_link_consistency",
                f"host {host}: windows open at {now!r} {sorted(open_targets)} != "
                f"reachable {sorted(reachable)}",
            ))
    return out


def window_well_formedness(system: "AndroidSystem", ea: "EAndroid") -> List[OracleViolation]:
    """Charge windows are ordered, non-overlapping, and within [0, now]."""
    out: List[OracleViolation] = []
    now = system.now
    for host in ea.accounting.hosts():
        for target, spans in sorted(ea.accounting.map_for(host).items()):
            previous_end = -1.0
            for start, end in spans:
                if not (
                    0.0 <= start < end <= now + ABS_TOL
                ) or start < previous_end - ABS_TOL:
                    out.append(OracleViolation(
                        "window_well_formedness",
                        f"host {host} target {target}: bad window "
                        f"({start!r}, {end!r}) after end {previous_end!r} "
                        f"at now {now!r}",
                    ))
                previous_end = max(previous_end, end)
    return out


def no_over_charging(system: "AndroidSystem", ea: "EAndroid") -> List[OracleViolation]:
    """Collateral charged per (host, target) never exceeds the target's
    own ground-truth energy."""
    from ..core.links import SCREEN_TARGET

    meter = system.hardware.meter
    out: List[OracleViolation] = []
    for host in ea.accounting.hosts():
        for target, joules in sorted(
            ea.accounting.collateral_breakdown(host).items()
        ):
            if target == SCREEN_TARGET:
                ground = meter.screen_energy_j()
            else:
                ground = meter.energy_j(owner=target)
            if joules > ground + CHARGE_SLACK_J:
                out.append(OracleViolation(
                    "no_over_charging",
                    f"host {host} charged {joules!r} J for target {target} "
                    f"but the target only drew {ground!r} J",
                ))
    return out


def profiler_conservation(system: "AndroidSystem", ea: "EAndroid") -> List[OracleViolation]:
    """PowerTutor redistributes the meter's energy, never invents any."""
    from ..accounting import PowerTutor

    report = PowerTutor(system).report()
    total = system.hardware.meter.total_energy_j()
    if not _close(report.total_energy_j(), total, rel=DIFF_REL_TOL, abs_tol=DIFF_ABS_TOL):
        return [OracleViolation(
            "profiler_conservation",
            f"PowerTutor total {report.total_energy_j()!r} J != "
            f"meter total {total!r} J",
        )]
    return []


def tracker_agreement(system: "AndroidSystem", ea: "EAndroid") -> List[OracleViolation]:
    """E-Android's trackers agree with the framework's own state."""
    out: List[OracleViolation] = []
    pm = system.package_manager
    counts = ea.monitor._screen_lock_counts
    for app in pm.installed_apps():
        uid = app.uid
        if uid is None or pm.is_system_uid(uid):
            continue
        actual = sum(
            1
            for lock in system.power_manager.held_locks(uid)
            if lock.keeps_screen_on
        )
        if counts.get(uid, 0) != actual:
            out.append(OracleViolation(
                "tracker_agreement",
                f"uid {uid}: monitor counts {counts.get(uid, 0)} screen "
                f"lock(s), framework holds {actual}",
            ))
    if system.am.timeline.current_uid != system.foreground_uid():
        out.append(OracleViolation(
            "tracker_agreement",
            f"timeline foreground {system.am.timeline.current_uid!r} != "
            f"framework foreground {system.foreground_uid()!r}",
        ))
    return out


# ----------------------------------------------------------------------
# end oracles — differential reconciliation
# ----------------------------------------------------------------------
def differential_reconciliation(
    system: "AndroidSystem", ea: "EAndroid"
) -> List[OracleViolation]:
    """Reconcile BatteryStats, PowerTutor, and E-Android on one run.

    All three profilers read the same meter, so their *ground-truth*
    totals must agree with the battery drain; each PowerTutor row must
    match an **independent** recomputation from the meter (the uid's own
    energy plus the screen energy over its foreground spans, walked here
    rather than through :mod:`repro.accounting.attribution`);
    E-Android's rows must be exactly the baseline rows plus collateral
    superimposition; and the superimposed collateral must match an
    independent recomputation from the raw charge windows — two code
    paths arriving at the same joules, which is what catches
    mis-attribution bugs of the kind the paper ascribes to the baselines.
    """
    from ..accounting import BatteryStats, PowerTutor
    from ..core.links import SCREEN_TARGET
    from ..power.components import SCREEN
    from ..power.meter import SCREEN_OWNER, SYSTEM_OWNER

    out: List[OracleViolation] = []
    meter = system.hardware.meter
    total = meter.total_energy_j()
    now = system.now

    battery_stats = BatteryStats(system).report()
    powertutor = PowerTutor(system).report()
    eandroid = ea.report()

    for name, profiler_total in (
        ("BatteryStats", battery_stats.total_energy_j()),
        ("PowerTutor", powertutor.total_energy_j()),
        ("battery drain", system.battery.energy_used_j()),
    ):
        if not _close(profiler_total, total, rel=DIFF_REL_TOL, abs_tol=DIFF_ABS_TOL):
            out.append(OracleViolation(
                "differential",
                f"{name} total {profiler_total!r} J != meter total {total!r} J",
            ))

    # PowerTutor rows vs own energy + foreground screen spans.
    expected: Dict[int, float] = {
        owner: meter.energy_j(owner=owner, end=now)
        for owner, _ in meter.channels()
        if owner not in (SCREEN_OWNER, SYSTEM_OWNER)
    }
    screen = meter.trace(SCREEN_OWNER, SCREEN)
    changes = system.am.timeline.changes()
    for index, (began, uid) in enumerate(changes):
        ended = changes[index + 1][0] if index + 1 < len(changes) else now
        if uid is not None and screen is not None and ended > began:
            expected[uid] = expected.get(uid, 0.0) + screen.energy_j(began, ended)
    rows = {e.uid: e.energy_j for e in powertutor.entries if e.uid is not None}
    for uid in sorted(set(expected) | set(rows)):
        a = rows.get(uid, 0.0)
        b = expected.get(uid, 0.0)
        if not _close(a, b, rel=DIFF_REL_TOL, abs_tol=DIFF_ABS_TOL):
            out.append(OracleViolation(
                "differential",
                f"uid {uid}: PowerTutor row {a!r} J != own energy plus "
                f"foreground screen {b!r} J",
            ))

    # E-Android = baseline + superimposed collateral, row by row.
    for entry in eandroid.entries:
        if entry.uid is None:
            continue
        baseline_entry = battery_stats.entry_for_uid(entry.uid)
        baseline_j = baseline_entry.energy_j if baseline_entry else 0.0
        if not _close(
            entry.own_energy_j, baseline_j, rel=DIFF_REL_TOL, abs_tol=DIFF_ABS_TOL
        ):
            out.append(OracleViolation(
                "differential",
                f"uid {entry.uid}: E-Android own energy {entry.own_energy_j!r} J "
                f"!= baseline {baseline_j!r} J",
            ))

    # Superimposed collateral vs an independent recomputation from the
    # raw windows (bypasses EAndroidAccounting.collateral_breakdown).
    accounting = ea.accounting
    recomputed_sum = 0.0
    reported_sum = 0.0
    for host in accounting.hosts():
        recomputed: Dict[int, float] = {}
        for target, intervals in accounting.map_for(host).items():
            joules = accounting.policy.charged_energy(meter, target, intervals)
            if joules > 0:
                recomputed[target] = joules
        reported = accounting.collateral_breakdown(host)
        recomputed_sum += sum(recomputed.values())
        reported_sum += sum(reported.values())
        for target in sorted(set(recomputed) | set(reported)):
            a = recomputed.get(target, 0.0)
            b = reported.get(target, 0.0)
            if not _close(a, b, rel=DIFF_REL_TOL, abs_tol=DIFF_ABS_TOL):
                label = "screen" if target == SCREEN_TARGET else str(target)
                out.append(OracleViolation(
                    "differential",
                    f"host {host} target {label}: window recomputation "
                    f"{a!r} J != reported breakdown {b!r} J",
                ))

    # Interface superimposition identity: report total == ground truth
    # plus every reported collateral charge.
    superimposed = eandroid.total_energy_j()
    if not _close(
        superimposed, total + reported_sum, rel=DIFF_REL_TOL, abs_tol=DIFF_ABS_TOL
    ):
        out.append(OracleViolation(
            "differential",
            f"E-Android view total {superimposed!r} J != ground truth "
            f"{total!r} + collateral {reported_sum!r} J",
        ))
    return out


def fastpath_equivalence(
    system: "AndroidSystem", ea: "EAndroid"
) -> List[OracleViolation]:
    """The fast paths equal a naive recomputation, bit for bit (± 1e-9).

    Two layers of caching sit between a query and the raw traces —
    per-trace prefix sums and the meter's per-owner memo.  This oracle
    recomputes each layer the slow way on the same device state:

    * every channel's ``energy_j`` vs its ``naive_energy_j`` O(B) walk;
    * ``energy_by_owner`` / per-owner ``energy_j`` vs the meter's
      full-rescan ``naive_*`` paths;
    * reports served from a captured trace through the query service
      (:mod:`repro.serve`) vs the live profilers they must reproduce.
    """
    meter = system.hardware.meter
    out: List[OracleViolation] = []
    now = system.now
    windows = [(0.0, now), (now / 3.0, 2.0 * now / 3.0)] if now > 0 else [(0.0, 0.0)]

    for start, end in windows:
        for key in meter.channels():
            trace = meter.trace(*key)
            fast = trace.energy_j(start, end)
            naive = trace.naive_energy_j(start, end)
            if not _close(fast, naive, rel=DIFF_REL_TOL, abs_tol=ABS_TOL):
                out.append(OracleViolation(
                    "fastpath_equivalence",
                    f"channel {key}: prefix-sum energy {fast!r} J != "
                    f"naive walk {naive!r} J over [{start!r}, {end!r})",
                ))
        fast_owners = meter.energy_by_owner(start, end)
        naive_owners = meter.naive_energy_by_owner(start, end)
        for owner in sorted(set(fast_owners) | set(naive_owners)):
            a = fast_owners.get(owner, 0.0)
            b = naive_owners.get(owner, 0.0)
            if not _close(a, b, rel=DIFF_REL_TOL, abs_tol=ABS_TOL):
                out.append(OracleViolation(
                    "fastpath_equivalence",
                    f"owner {owner}: memoized energy {a!r} J != "
                    f"naive rescan {b!r} J over [{start!r}, {end!r})",
                ))
        fast_total = meter.total_energy_j(start, end)
        naive_total = meter.naive_energy_j(start=start, end=end)
        if not _close(fast_total, naive_total, rel=DIFF_REL_TOL, abs_tol=ABS_TOL):
            out.append(OracleViolation(
                "fastpath_equivalence",
                f"meter total {fast_total!r} J != naive total {naive_total!r} J "
                f"over [{start!r}, {end!r})",
            ))

    out.extend(_served_report_equivalence(system, ea))
    return out


def _served_report_equivalence(
    system: "AndroidSystem", ea: "EAndroid"
) -> List[OracleViolation]:
    """Reports served from a captured trace equal the live profilers.

    The query service answers every backend from an
    :class:`~repro.offline.OfflineAnalyzer` over a serialised
    :class:`~repro.offline.DeviceTrace` — the live profilers' rules fed
    from the trace's data instead of the meter (plus the capture, an LRU
    and the wire encoding).  Rows are keyed by uid; aggregate rows
    (``uid is None``) carry fixed per-backend labels, so those match on
    label.

    A second session, ``oracle-bin``, holds the *same* trace after a
    round trip through the columnar binary codec; every backend's
    served payload must be **byte-identical** between the two sessions
    (the binary format stores doubles bit-exactly, so there is no
    tolerance to hide behind).
    """
    import json as _json

    from ..accounting import BatteryStats, PowerTutor
    from ..offline import capture_trace
    from ..serve import ProfilingService, ServiceClient, ServiceConfig
    from ..store import decode_trace, encode_trace

    out: List[OracleViolation] = []
    service = ProfilingService(ServiceConfig(telemetry=False))
    live_trace = capture_trace(system, ea)
    service.ingest_trace("oracle", live_trace, "fastpath oracle")
    service.ingest_trace(
        "oracle-bin", decode_trace(encode_trace(live_trace)), "fastpath oracle (bin)"
    )
    client = ServiceClient(service)

    for backend, live_report in (
        ("batterystats", BatteryStats(system).report()),
        ("powertutor", PowerTutor(system).report()),
        ("eandroid", ea.report()),
    ):
        (query,) = client.build("oracle", backend)
        response = service.submit(query)
        if not response.ok:
            out.append(OracleViolation(
                "fastpath_equivalence",
                f"served {backend} query failed: "
                f"{response.status} ({response.error!r})",
            ))
            continue
        served = response.report or {}

        def _row_key(uid: object, label: str) -> object:
            return uid if uid is not None else f"label:{label}"

        served_rows = {
            _row_key(row.get("uid"), row.get("label", "")): row["energy_j"]
            for row in served.get("entries", [])
        }
        live_rows = {
            _row_key(entry.uid, entry.label): entry.energy_j
            for entry in live_report.entries
        }
        for key in sorted(set(served_rows) | set(live_rows), key=repr):
            a = served_rows.get(key, 0.0)
            b = live_rows.get(key, 0.0)
            if not _close(a, b, rel=DIFF_REL_TOL, abs_tol=DIFF_ABS_TOL):
                out.append(OracleViolation(
                    "fastpath_equivalence",
                    f"served {backend} row {key!r}: {a!r} J != live "
                    f"profiler row {b!r} J",
                ))
        if not _close(
            served.get("total_j", 0.0),
            live_report.total_energy_j(),
            rel=DIFF_REL_TOL,
            abs_tol=DIFF_ABS_TOL,
        ):
            out.append(OracleViolation(
                "fastpath_equivalence",
                f"served {backend} total {served.get('total_j')!r} J != "
                f"live total {live_report.total_energy_j()!r} J",
            ))

        # Binary-store byte-identity: the same backend served from the
        # binary-round-tripped session must produce the same payload,
        # byte for byte.
        (bin_query,) = client.build("oracle-bin", backend)
        bin_response = service.submit(bin_query)
        if not bin_response.ok:
            out.append(OracleViolation(
                "fastpath_equivalence",
                f"served {backend} query against the binary session failed: "
                f"{bin_response.status} ({bin_response.error!r})",
            ))
            continue
        json_bytes = _json.dumps(served, sort_keys=True)
        bin_bytes = _json.dumps(bin_response.report or {}, sort_keys=True)
        if json_bytes != bin_bytes:
            out.append(OracleViolation(
                "fastpath_equivalence",
                f"served {backend} payload differs between the JSON session "
                f"and the binary-codec session (not byte-identical)",
            ))
    return out


# ----------------------------------------------------------------------
# catalogue + drivers
# ----------------------------------------------------------------------
STEP_ORACLES: Dict[str, Oracle] = {
    "energy_conservation": energy_conservation,
    "map_link_consistency": map_link_consistency,
    "window_well_formedness": window_well_formedness,
    "no_over_charging": no_over_charging,
    "profiler_conservation": profiler_conservation,
    "tracker_agreement": tracker_agreement,
}

END_ORACLES: Dict[str, Oracle] = {
    "differential": differential_reconciliation,
    "fastpath_equivalence": fastpath_equivalence,
}

#: metamorphic oracles are replay-based and implemented by the runner;
#: named here so selections and docs can refer to the full catalogue.
METAMORPHIC_ORACLES = ("observer_purity", "time_dilation", "window_permutation")


def check_step(
    system: "AndroidSystem",
    ea: "EAndroid",
    oracles: Optional[Sequence[str]] = None,
) -> List[OracleViolation]:
    """Run the (selected) step oracles once; returns all violations."""
    names = oracles if oracles is not None else STEP_ORACLES
    out: List[OracleViolation] = []
    for name in names:
        out.extend(STEP_ORACLES[name](system, ea))
    return out


def check_end(
    system: "AndroidSystem",
    ea: "EAndroid",
    oracles: Optional[Sequence[str]] = None,
) -> List[OracleViolation]:
    """Run the (selected) end-of-run oracles once."""
    names = oracles if oracles is not None else END_ORACLES
    out: List[OracleViolation] = []
    for name in names:
        out.extend(END_ORACLES[name](system, ea))
    return out
