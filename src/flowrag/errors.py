"""Shared exception base for the flowrag package."""


class FlowragError(Exception):
    """Base class for all errors raised by flowrag modules."""


class ConfigError(FlowragError, ValueError):
    """A config or record value of the wrong shape: not a JSON object, an
    unknown key, or a value of the wrong type or range."""
