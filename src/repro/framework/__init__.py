"""GSpecPal framework front end."""

from repro.framework.config import GSpecPalConfig
from repro.framework.gspecpal import GSpecPal

__all__ = ["GSpecPal", "GSpecPalConfig"]
