"""Android framework simulator.

Implements the subset of Android 5.0.1 the paper's attacks and defenses
live in: activities with the full lifecycle, services with the bind/
unbind liveness rule, intents (explicit and implicit with resolution),
task stacks, Binder link-to-death, wakelocks, screen/brightness policy,
the settings provider, system apps, and the SurfaceFlinger shared-memory
side channel.
"""

from .activity import Activity, ActivityRecord, ActivityState
from .activity_manager import ActivityManager
from .app import App, Context
from .binder import Binder, DeathToken
from .display import DisplayManager
from .dumpsys import dumpsys, dumpsys_activity, dumpsys_battery, dumpsys_power, dumpsys_services
from .errors import (
    ActivityNotFoundError,
    AndroidError,
    BadStateError,
    ComponentNotFoundError,
    NotExportedError,
    PackageNotFoundError,
    SecurityException,
)
from .framework import AndroidSystem
from .intent import (
    ACTION_IMAGE_CAPTURE,
    ACTION_MAIN,
    ACTION_SEND,
    ACTION_USER_PRESENT,
    ACTION_VIDEO_CAPTURE,
    ACTION_VIEW,
    CATEGORY_DEFAULT,
    CATEGORY_LAUNCHER,
    FLAG_EXCLUDE_FROM_RECENTS,
    ComponentName,
    Intent,
    explicit,
    implicit,
)
from .manifest import (
    ACCESS_FINE_LOCATION,
    CAMERA,
    INTERNET,
    RECORD_AUDIO,
    REORDER_TASKS,
    SYSTEM_ALERT_WINDOW,
    WAKE_LOCK,
    WRITE_SETTINGS,
    AndroidManifest,
    ComponentDecl,
    ComponentKind,
    IntentFilterDecl,
    launcher_filter,
)
from .package_manager import FIRST_APPLICATION_UID, PackageManager
from .power_manager import (
    FULL_WAKE_LOCK,
    PARTIAL_WAKE_LOCK,
    SCREEN_BRIGHT_WAKE_LOCK,
    SCREEN_DIM_WAKE_LOCK,
    PowerManagerService,
    WakeLock,
)
from .receiver import BroadcastReceiver
from .service import Service, ServiceConnection, ServiceRecord, ServiceState
from .settings import (
    BRIGHTNESS_MODE_AUTOMATIC,
    BRIGHTNESS_MODE_MANUAL,
    SCREEN_BRIGHTNESS,
    SCREEN_BRIGHTNESS_MODE,
    SCREEN_OFF_TIMEOUT,
    SettingChange,
    SettingsProvider,
)
from .surfaceflinger import SurfaceFlinger
from .system_apps import LAUNCHER_PACKAGE, PHONE_PACKAGE, RESOLVER_PACKAGE, SYSTEMUI_PACKAGE
from .task_stack import TaskRecord, TaskStackSupervisor
from .timeline import ForegroundTimeline

__all__ = [
    "AndroidSystem",
    "ActivityManager",
    "Activity",
    "ActivityRecord",
    "ActivityState",
    "App",
    "Context",
    "Service",
    "ServiceRecord",
    "ServiceConnection",
    "ServiceState",
    "BroadcastReceiver",
    "Binder",
    "DeathToken",
    "DisplayManager",
    "PowerManagerService",
    "WakeLock",
    "SettingsProvider",
    "SettingChange",
    "SurfaceFlinger",
    "PackageManager",
    "TaskRecord",
    "TaskStackSupervisor",
    "ForegroundTimeline",
    "Intent",
    "ComponentName",
    "explicit",
    "implicit",
    "AndroidManifest",
    "ComponentDecl",
    "ComponentKind",
    "IntentFilterDecl",
    "launcher_filter",
    "dumpsys",
    "dumpsys_activity",
    "dumpsys_services",
    "dumpsys_power",
    "dumpsys_battery",
    "AndroidError",
    "SecurityException",
    "ActivityNotFoundError",
    "PackageNotFoundError",
    "ComponentNotFoundError",
    "NotExportedError",
    "BadStateError",
    "WAKE_LOCK",
    "WRITE_SETTINGS",
    "CAMERA",
    "INTERNET",
    "ACCESS_FINE_LOCATION",
    "RECORD_AUDIO",
    "REORDER_TASKS",
    "SYSTEM_ALERT_WINDOW",
    "PARTIAL_WAKE_LOCK",
    "SCREEN_DIM_WAKE_LOCK",
    "SCREEN_BRIGHT_WAKE_LOCK",
    "FULL_WAKE_LOCK",
    "SCREEN_BRIGHTNESS",
    "SCREEN_BRIGHTNESS_MODE",
    "SCREEN_OFF_TIMEOUT",
    "BRIGHTNESS_MODE_MANUAL",
    "BRIGHTNESS_MODE_AUTOMATIC",
    "ACTION_MAIN",
    "ACTION_VIEW",
    "ACTION_SEND",
    "ACTION_VIDEO_CAPTURE",
    "ACTION_IMAGE_CAPTURE",
    "ACTION_USER_PRESENT",
    "CATEGORY_LAUNCHER",
    "CATEGORY_DEFAULT",
    "FLAG_EXCLUDE_FROM_RECENTS",
    "FIRST_APPLICATION_UID",
    "LAUNCHER_PACKAGE",
    "PHONE_PACKAGE",
    "SYSTEMUI_PACKAGE",
    "RESOLVER_PACKAGE",
]
