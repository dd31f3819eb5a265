"""The paper's attribution rules, each written once.

A profiler is an attribution policy over ground-truth energy; the rules
below are the policies.  The live profilers (:class:`BatteryStats`,
:class:`PowerTutor`, E-Android's revised interface) and the
:class:`~repro.offline.OfflineAnalyzer` differ only in where the data
comes from — the meter, package manager and foreground timeline of a
running device, or a captured trace's channels, app table and
foreground list — so every rule takes that data as plain arguments:

* ``owner_energies`` — ``(owner, joules)`` pairs over the window, in the
  caller's order (ties in the ranking keep it);
* ``label_for`` / ``is_system`` — the uid's display label and whether it
  is a system uid;
* ``foreground`` — the ordered ``(time, uid)`` foreground change list;
* ``screen_energy`` — the screen channel's joules over a sub-window.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..power.meter import SCREEN_OWNER, SYSTEM_OWNER
from ..telemetry.events import SCREEN_TARGET
from .base import AppEnergyEntry, ProfilerReport

SCREEN_LABEL = "Screen"
SYSTEM_LABEL = "Android OS"
POWERTUTOR_SYSTEM_LABEL = "System"
UNATTRIBUTED_SCREEN_LABEL = "Screen (no foreground)"

OwnerEnergies = Iterable[Tuple[int, float]]
ForegroundChanges = Sequence[Tuple[float, Optional[int]]]


def foreground_spans(
    foreground: ForegroundChanges, start: float, end: float
) -> Iterator[Tuple[float, float, Optional[int]]]:
    """``(span_start, span_end, uid)`` for each foreground change's
    non-empty stretch of ``[start, end)``; the last change holds to
    ``end``.  Raises ``ValueError`` for a reversed window."""
    if end < start:
        raise ValueError(f"window end {end!r} before start {start!r}")
    last = len(foreground) - 1
    for index, (t, uid) in enumerate(foreground):
        span_start = max(t, start)
        span_end = min(foreground[index + 1][0] if index < last else end, end)
        if span_end > span_start:
            yield span_start, span_end, uid


def target_label(target: int, label_for: Callable[[int], str]) -> str:
    """The row label of a collateral target (a uid or the screen)."""
    return SCREEN_LABEL if target == SCREEN_TARGET else label_for(target)


def direct_report(
    profiler: str,
    start: float,
    end: float,
    owner_energies: OwnerEnergies,
    label_for: Callable[[int], str],
    is_system: Callable[[int], bool],
) -> ProfilerReport:
    """Android's official BatteryStats policy.

    "Another policy is to treat screen as an independent part, where the
    energy consumed by screen is always displayed in total.  Such a
    method is used by the Android official battery interface." (§II)

    Per-app rows carry only the hardware energy the kernel can attribute
    to the uid (CPU time, radio traffic, camera/GPS/audio sessions).
    Screen is one aggregate row; platform base draw is an "Android OS"
    row.  No IPC awareness whatsoever — which is what every attack in
    §III exploits.
    """
    entries: List[AppEnergyEntry] = []
    for owner, energy in owner_energies:
        if energy <= 0:
            continue
        if owner == SCREEN_OWNER:
            entry = AppEnergyEntry(None, SCREEN_LABEL, energy, is_screen=True)
        elif owner == SYSTEM_OWNER:
            entry = AppEnergyEntry(None, SYSTEM_LABEL, energy, is_system=True)
        else:
            entry = AppEnergyEntry(
                owner, label_for(owner), energy, is_system=is_system(owner)
            )
        entries.append(entry)
    return ProfilerReport(profiler, start, end, entries).finalize()


def powertutor_report(
    profiler: str,
    start: float,
    end: float,
    owner_energies: OwnerEnergies,
    screen_energy: Optional[Callable[[float, float], float]],
    foreground: ForegroundChanges,
    label_for: Callable[[int], str],
    is_system: Callable[[int], bool],
) -> ProfilerReport:
    """PowerTutor's policy: screen energy goes to the foreground app.

    "The first [policy] is always to allocate the energy of screen to the
    foreground app, which is the center of interacting with users." (§II)

    Each app is charged the panel energy drawn during the intervals it
    held the foreground; screen energy with no foreground app is its own
    row.  All other channels attribute as in BatteryStats.  This is the
    policy attack #6 defeats — a background service's wakelock keeps the
    screen burning, and PowerTutor taxes the *foreground* app for it.
    """
    energies: Dict[int, float] = {}
    system_energy = 0.0
    for owner, energy in owner_energies:
        if energy <= 0:
            continue
        if owner == SYSTEM_OWNER:
            system_energy += energy
        elif owner != SCREEN_OWNER:
            energies[owner] = energies.get(owner, 0.0) + energy

    unattributed = 0.0
    if screen_energy is not None:
        shares: Dict[int, float] = {}
        for span_start, span_end, uid in foreground_spans(foreground, start, end):
            if uid is not None:
                shares[uid] = shares.get(uid, 0.0) + screen_energy(span_start, span_end)
        attributed = 0.0
        # Set order fixes both the order of screen-only rows and the float
        # sum of ``attributed``; served payload bytes depend on each.
        for uid in {u for _, u in foreground if u is not None}:
            share = shares.get(uid, 0.0)
            if share > 0:
                energies[uid] = energies.get(uid, 0.0) + share
                attributed += share
        unattributed = max(0.0, screen_energy(start, end) - attributed)

    entries = [
        AppEnergyEntry(uid, label_for(uid), energy, is_system=is_system(uid))
        for uid, energy in energies.items()
    ]
    if system_energy > 0:
        entries.append(
            AppEnergyEntry(None, POWERTUTOR_SYSTEM_LABEL, system_energy, is_system=True)
        )
    if unattributed > 0:
        entries.append(
            AppEnergyEntry(None, UNATTRIBUTED_SCREEN_LABEL, unattributed, is_screen=True)
        )
    return ProfilerReport(profiler, start, end, entries).finalize()


def superimpose(
    report: ProfilerReport,
    charges: Iterable[Tuple[int, Dict[int, float]]],
    label_for: Callable[[int], str],
    total: Optional[float] = None,
) -> ProfilerReport:
    """E-Android's revised view: collateral added onto the driving apps.

    ``charges`` yields ``(host, {target: joules})`` per driving app; each
    host's row (made if missing) keeps "a detailed inventory specifying
    contributions of all attack related apps" with "the apps' original
    energy ... also listed" (§IV-C / Fig. 8).  Rows are then re-ranked
    "by total energy consumptions including collateral energy".

    Pass the window's ground-truth energy as ``total`` so percentages
    stay against the device total: collateral energy is *superimposed*,
    not moved (§IV-B), and a malware row can show a large share while
    the direct consumers still appear.
    """
    for host, breakdown in charges:
        if not breakdown:
            continue
        entry = report.entry_for_uid(host)
        if entry is None:
            entry = AppEnergyEntry(host, label_for(host), 0.0)
            report.entries.append(entry)
        for target, joules in breakdown.items():
            label = target_label(target, label_for)
            entry.collateral_j[label] = entry.collateral_j.get(label, 0.0) + joules
            entry.energy_j += joules
    return report.finalize(total)
