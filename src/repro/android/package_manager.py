"""Package manager: install apps, assign uids, resolve intents, permissions.

Android gives each app a unique Linux uid — the identity every energy
profiler keys on.  App uids start at 10000 (``Process.FIRST_APPLICATION_UID``);
uids below that are system uids, which E-Android excludes from the
collateral-attack list while still logging their events (§IV-A).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple, TYPE_CHECKING

from .errors import (
    ComponentNotFoundError,
    NotExportedError,
    PackageNotFoundError,
)
from .intent import ComponentName, Intent
from .manifest import ComponentDecl, ComponentKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .app import App

FIRST_APPLICATION_UID = 10000
SYSTEM_UID = 1000


class PackageManager:
    """Installed-package registry with intent resolution."""

    def __init__(self) -> None:
        self._apps_by_package: Dict[str, "App"] = {}
        self._apps_by_uid: Dict[int, "App"] = {}
        self._app_uids = itertools.count(FIRST_APPLICATION_UID)
        self._system_uids = itertools.count(SYSTEM_UID)

    @property
    def system_uid(self) -> int:
        """The core system uid."""
        return SYSTEM_UID

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self, app: "App", system_app: bool = False) -> int:
        """Install an app, assigning a fresh uid; returns the uid."""
        package = app.package
        if package in self._apps_by_package:
            raise ValueError(f"package {package!r} already installed")
        uid = next(self._system_uids) if system_app else next(self._app_uids)
        self._apps_by_package[package] = app
        self._apps_by_uid[uid] = app
        return uid

    def uninstall(self, package: str) -> None:
        """Remove an installed package."""
        app = self.app_for_package(package)
        del self._apps_by_package[package]
        if app.uid is not None:
            self._apps_by_uid.pop(app.uid, None)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def is_installed(self, package: str) -> bool:
        """Whether a package is installed."""
        return package in self._apps_by_package

    def app_for_package(self, package: str) -> "App":
        """Installed app by package name."""
        try:
            return self._apps_by_package[package]
        except KeyError:
            raise PackageNotFoundError(f"package {package!r} not installed") from None

    def app_for_uid(self, uid: int) -> "App":
        """Installed app by uid."""
        try:
            return self._apps_by_uid[uid]
        except KeyError:
            raise PackageNotFoundError(f"no app with uid {uid}") from None

    def label_for_uid(self, uid: int) -> str:
        """Display label for a uid (used by the battery interfaces)."""
        app = self._apps_by_uid.get(uid)
        return app.label if app is not None else f"uid:{uid}"

    def installed_apps(self) -> List["App"]:
        """Every installed app."""
        return list(self._apps_by_package.values())

    def is_system_uid(self, uid: int) -> bool:
        """Whether a uid belongs to the system / built-in apps."""
        return uid < FIRST_APPLICATION_UID

    # ------------------------------------------------------------------
    # permissions
    # ------------------------------------------------------------------
    def check_permission(self, uid: int, permission: str) -> bool:
        """Whether the uid's manifest requests the permission.

        Install-time model (pre-Android-6 runtime permissions, matching
        the paper's Android 5.0.1): requesting is holding.  System uids
        hold everything.
        """
        if self.is_system_uid(uid):
            return True
        app = self._apps_by_uid.get(uid)
        return app is not None and app.manifest.requests_permission(permission)

    # ------------------------------------------------------------------
    # intent resolution
    # ------------------------------------------------------------------
    def resolve_component(
        self, caller_uid: int, target: ComponentName, kind: ComponentKind
    ) -> Tuple["App", ComponentDecl]:
        """Resolve an explicit component, enforcing the export rule."""
        app = self.app_for_package(target.package)
        decl = app.manifest.component(target.class_name)
        if decl is None or decl.kind != kind:
            raise ComponentNotFoundError(
                f"{target.flatten()} is not a declared {kind.value}"
            )
        caller_app = self._apps_by_uid.get(caller_uid)
        same_app = caller_app is not None and caller_app.package == target.package
        if not decl.exported and not same_app and not self.is_system_uid(caller_uid):
            raise NotExportedError(
                f"{target.flatten()} is not exported; denied for uid {caller_uid}"
            )
        return app, decl

    def query_intent_handlers(
        self, intent: Intent, kind: ComponentKind
    ) -> List[Tuple["App", ComponentDecl]]:
        """All exported components whose filters match an implicit intent."""
        matches: List[Tuple["App", ComponentDecl]] = []
        for app in self._apps_by_package.values():
            for decl in app.manifest.components_of_kind(kind):
                if decl.exported and decl.handles(intent.action, intent.categories):
                    matches.append((app, decl))
        return matches
