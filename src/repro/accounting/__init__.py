"""Baseline energy profilers the paper compares E-Android against."""

from .attribution import SCREEN_LABEL, SYSTEM_LABEL
from .base import AppEnergyEntry, EnergyProfiler, ProfilerReport
from .batterystats import BatteryStats
from .power_signature import (
    PowerSignature,
    PowerSignatureDetector,
    SignatureVerdict,
)
from .powertutor import PowerTutor

__all__ = [
    "AppEnergyEntry",
    "EnergyProfiler",
    "ProfilerReport",
    "BatteryStats",
    "PowerTutor",
    "PowerSignatureDetector",
    "PowerSignature",
    "SignatureVerdict",
    "SCREEN_LABEL",
    "SYSTEM_LABEL",
]
