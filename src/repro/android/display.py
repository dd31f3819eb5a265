"""Display manager: effective brightness policy and screen state.

Brightness on Android is resolved from three sources, in priority order:

1. the foreground window's brightness attribute (``WindowManager.
   LayoutParams.screenBrightness``) — why malware #5 must flash a
   transparent activity to make its change take effect;
2. in automatic mode, the ambient-light-driven value — app writes to the
   brightness setting are *stored but not applied* until the mode is
   switched to manual (§IV-A);
3. in manual mode, the ``screen_brightness`` setting.

Every effective-brightness change is published on the telemetry bus
with the causing uid, which is the raw material for E-Android's screen
attack tracker (Fig. 5d).
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from ..power.components import ScreenModel
from ..telemetry import (
    BrightnessChangeEvent,
    BrightnessModeChangeEvent,
    ScreenStateEvent,
    TelemetryBus,
)
from .settings import (
    BRIGHTNESS_MODE_AUTOMATIC,
    BRIGHTNESS_MODE_MANUAL,
    SCREEN_BRIGHTNESS,
    SCREEN_BRIGHTNESS_MODE,
    SettingChange,
    SettingsProvider,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.kernel import Kernel


class DisplayManager:
    """Owns the panel: on/off and the effective-brightness computation."""

    def __init__(
        self,
        kernel: "Kernel",
        screen: ScreenModel,
        settings: SettingsProvider,
        telemetry: TelemetryBus,
    ) -> None:
        self._kernel = kernel
        self._screen = screen
        self._settings = settings
        self._telemetry = telemetry
        self._foreground_uid: Optional[int] = None
        self._window_brightness: Dict[int, int] = {}
        # Ambient-sensor-driven level used in automatic mode.
        self._auto_brightness = 80
        settings.add_observer(self._on_setting_change)

    # ------------------------------------------------------------------
    # state queries
    # ------------------------------------------------------------------
    @property
    def is_screen_on(self) -> bool:
        """Whether the panel is lit."""
        return self._screen.is_on

    @property
    def brightness(self) -> int:
        """Current effective brightness level."""
        return self._screen.brightness

    @property
    def is_auto_mode(self) -> bool:
        """Whether automatic brightness is enabled."""
        return (
            self._settings.get(SCREEN_BRIGHTNESS_MODE, BRIGHTNESS_MODE_MANUAL)
            == BRIGHTNESS_MODE_AUTOMATIC
        )

    @property
    def auto_brightness(self) -> int:
        """The level the ambient sensor currently dictates."""
        return self._auto_brightness

    # ------------------------------------------------------------------
    # screen power state (driven by PowerManagerService)
    # ------------------------------------------------------------------
    def screen_on(self) -> None:
        """Light the panel and apply the effective brightness."""
        if not self._screen.is_on:
            self._screen.turn_on()
            self._telemetry.publish(
                ScreenStateEvent(time=self._kernel.now, is_on=True)
            )
        self._recompute(cause_uid=None, via="screen_on")

    def screen_off(self) -> None:
        """Power the panel down."""
        if self._screen.is_on:
            self._screen.turn_off()
            self._telemetry.publish(
                ScreenStateEvent(time=self._kernel.now, is_on=False)
            )

    def dim(self) -> None:
        """Enter the dim pre-timeout state."""
        self._screen.dim()

    def undim(self) -> None:
        """Leave the dim state."""
        self._screen.undim()

    # ------------------------------------------------------------------
    # brightness inputs
    # ------------------------------------------------------------------
    def set_foreground_uid(self, uid: Optional[int]) -> None:
        """Called by the ActivityManager on every foreground change."""
        if uid == self._foreground_uid:
            return
        self._foreground_uid = uid
        self._recompute(cause_uid=uid, via="window")

    def set_window_brightness(self, uid: int, level: Optional[int]) -> None:
        """Set or clear an app's window brightness attribute."""
        if level is None:
            self._window_brightness.pop(uid, None)
        else:
            self._window_brightness[uid] = max(0, min(self._screen.max_brightness, level))
        if uid == self._foreground_uid:
            self._recompute(cause_uid=uid, via="window")

    def set_ambient_level(self, level: int) -> None:
        """Move the ambient sensor; only matters in automatic mode."""
        self._auto_brightness = max(0, min(self._screen.max_brightness, level))
        if self.is_auto_mode:
            self._recompute(cause_uid=None, via="auto")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def effective_brightness(self) -> int:
        """Resolve the brightness the panel should show right now."""
        if self._foreground_uid is not None:
            override = self._window_brightness.get(self._foreground_uid)
            if override is not None:
                return override
        if self.is_auto_mode:
            return self._auto_brightness
        return int(self._settings.get(SCREEN_BRIGHTNESS, 102))

    def _on_setting_change(self, change: SettingChange) -> None:
        if change.key == SCREEN_BRIGHTNESS_MODE:
            manual = change.new_value == BRIGHTNESS_MODE_MANUAL
            self._telemetry.publish(
                BrightnessModeChangeEvent(
                    time=change.time,
                    caller_uid=change.caller_uid,
                    manual=manual,
                    via="settings",
                )
            )
            self._recompute(cause_uid=change.caller_uid, via="settings")
        elif change.key == SCREEN_BRIGHTNESS:
            self._recompute(cause_uid=change.caller_uid, via="settings")

    def _recompute(self, cause_uid: Optional[int], via: str) -> None:
        old = self._screen.brightness
        new = self.effective_brightness()
        if new != old:
            self._screen.set_brightness(new)
            self._telemetry.publish(
                BrightnessChangeEvent(
                    time=self._kernel.now,
                    caller_uid=cause_uid,
                    old_level=old,
                    new_level=new,
                    via=via,
                )
            )
