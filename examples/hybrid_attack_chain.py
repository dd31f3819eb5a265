#!/usr/bin/env python3
"""Walk through the paper's Fig. 7 hybrid attack chain, step by step.

App A binds a service of app B; B's service starts an activity of app C;
C stealthily raises the screen brightness.  Watch A's collateral energy
map grow as each link forms, then shrink as the user intervenes.

Run:  python examples/hybrid_attack_chain.py
"""

from repro import AndroidSystem, attach_eandroid
from repro.attacks import (
    HYBRID_PACKAGE,
    RELAY_B_PACKAGE,
    RELAY_C_PACKAGE,
    build_hybrid_malware,
    build_relay_b,
    build_relay_c,
)
from repro.core import SCREEN_TARGET


def show_map(device, eandroid, uid, label) -> None:
    pm = device.package_manager
    # the targets charging to uid now: those its live links reach
    targets = eandroid.accounting.graph.reachable_from(uid)
    names = sorted(
        "Screen" if t == SCREEN_TARGET else pm.label_for_uid(t) for t in targets
    )
    print(f"  {label}'s open map elements: {names or '(empty)'}")


def main() -> None:
    device = AndroidSystem()
    device.install_all(
        [build_relay_b(), build_relay_c(), build_hybrid_malware()]
    )
    device.boot()
    eandroid = attach_eandroid(device)
    a_uid = device.uid_of(HYBRID_PACKAGE)
    b_uid = device.uid_of(RELAY_B_PACKAGE)

    print("Step 1 — the user taps the innocent-looking 'WeatherPro' icon.")
    print("Its payload binds RelayB's service, which starts RelayC's")
    print("activity, which flips the brightness to 255:")
    device.launch_app(HYBRID_PACKAGE)
    device.run_for(1.0)
    print(f"  brightness is now {device.display.brightness}/255")
    show_map(device, eandroid, a_uid, "WeatherPro (A)")
    show_map(device, eandroid, b_uid, "RelayB (B)")

    print("\nStep 2 — 60 s pass; energy accrues along the chain.")
    device.run_for(60.0)
    breakdown = eandroid.accounting.collateral_breakdown(a_uid)
    pm = device.package_manager
    for target, joules in sorted(breakdown.items(), key=lambda kv: -kv[1]):
        name = "Screen" if target == SCREEN_TARGET else pm.label_for_uid(target)
        print(f"  charged to A: {name:<8} {joules:8.2f} J")

    print("\nStep 3 — the user drags the brightness slider back down.")
    print("Only the *screen* element of every map closes (Fig. 7):")
    device.systemui.user_set_brightness(100)
    show_map(device, eandroid, a_uid, "WeatherPro (A)")

    print("\nStep 4 — the user opens RelayC directly; its element closes too.")
    device.am.move_task_to_front(
        device.package_manager.system_uid, RELAY_C_PACKAGE, user_initiated=True
    )
    show_map(device, eandroid, a_uid, "WeatherPro (A)")

    print("\nFinal E-Android view:")
    print(eandroid.report().render_text())


if __name__ == "__main__":
    main()
