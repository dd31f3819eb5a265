"""E-Android — the paper's primary contribution.

Collateral-energy monitoring (framework hooks), attack-lifecycle
tracking (Fig. 5), collateral energy maps with chain propagation
(Algorithm 1, Figs. 6-7), and the revised battery interface (Fig. 8).
"""

from .accounting import EAndroidAccounting
from .analysis import AttackGraphAnalyzer, ChainReport
from .eandroid import EAndroid, attach_eandroid, attach_eandroid_powertutor
from .events import CollateralEvent, CollateralEventType, EventLog
from .interface import EAndroidBatteryInterface
from .links import SCREEN_TARGET, AttackKind, AttackLink, LinkGraph, LinkIndex
from .monitor import EAndroidMonitor
from .detector import CollateralEnergyDetector, Suspicion
from .policy import ChargePolicy, FullCharge, ProportionalSplit, ScreenDelta

__all__ = [
    "EAndroid",
    "attach_eandroid",
    "attach_eandroid_powertutor",
    "EAndroidAccounting",
    "AttackGraphAnalyzer",
    "ChainReport",
    "EAndroidMonitor",
    "CollateralEnergyDetector",
    "Suspicion",
    "ChargePolicy",
    "FullCharge",
    "ProportionalSplit",
    "ScreenDelta",
    "EAndroidBatteryInterface",
    "CollateralEvent",
    "CollateralEventType",
    "EventLog",
    "AttackKind",
    "AttackLink",
    "LinkGraph",
    "LinkIndex",
    "SCREEN_TARGET",
]
