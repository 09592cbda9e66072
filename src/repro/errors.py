"""Shared exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at flow boundaries while still
being able to discriminate the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CDFGError(ReproError):
    """Structural problem in a CDFG (dangling edge, cycle, bad type)."""


class ScheduleError(ReproError):
    """Invalid or infeasible schedule (dependence violation, overflow)."""


class NetlistError(ReproError):
    """Malformed gate-level netlist or BLIF text."""


class IngestError(ReproError):
    """Invalid external design (module format, widths, drivers...)."""


class BindingError(ReproError):
    """Binding could not produce a valid solution."""


class ResourceError(BindingError):
    """A resource constraint is infeasible for the given schedule."""


class EstimationError(ReproError):
    """Switching-activity estimation failed (bad probabilities, etc.)."""


class MappingError(ReproError):
    """Technology mapping failure (uncovered node, cut overflow)."""


class RTLError(ReproError):
    """Datapath construction or HDL emission failure."""


class SimulationError(ReproError):
    """Gate-level simulation failure (X propagation, missing driver)."""


class WorkerLostError(ReproError):
    """A process-pool worker died running sweep cells, also on retry."""


class ConfigError(ReproError, ValueError):
    """Invalid configuration value (alpha out of range, K too large...).

    Also a :class:`ValueError`: eager config validation (e.g.
    :class:`repro.flow.FlowConfig.__post_init__`) raises it where
    plain-ValueError semantics are what callers expect.
    """
