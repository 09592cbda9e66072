"""Generic test values for knob-table rows (repro.flow.knobs).

Derived from each row's type and check only, so tests parametrized over
``KNOBS`` cover a new row without being edited.
"""

from dataclasses import replace

from repro.binding import SATable
from repro.binding.sa_table import SATableConfig
from repro.fpga.device import DeviceModel


def bad_values(knob):
    """Values ``check_knob`` must reject for ``knob``."""
    if knob.type in (int, float):
        out = ["x", True]
    elif knob.type is bool:
        out = ["no", 1]
    elif knob.type is str:
        out = [1]
    else:
        out = ["x"]
    if knob.choices:
        out.append("bogus")
    if knob.low is not None:
        out.append(knob.low - 1)
    if knob.high is not None:
        out.append(knob.high + 1)
    if knob.type is float:
        out += [float("nan"), float("inf")]
    if knob.type is int:
        out.append(1.5)
    return out


def other_value(knob):
    """A valid value different from ``knob.default``."""
    if knob.choices:
        return next(c for c in knob.choices if c != knob.default)
    if knob.type is bool:
        return not knob.default
    if knob.type is int:
        return knob.default + 1
    if knob.type is float:
        return knob.default / 2 if knob.default else 0.25
    if knob.type is SATable:
        return SATable(SATableConfig(width=3))
    if knob.type is DeviceModel:
        return replace(knob.default, lut_delay_ns=knob.default.lut_delay_ns * 2)
    raise AssertionError(f"no test value for knob type {knob.type!r}")


def cli_bad_tokens(knob):
    """Command-line spellings of values the knob's flags must reject."""
    return [str(value) for value in bad_values(knob)
            if not isinstance(value, bool)]


def cases(knobs, values):
    """``(knob name, value)`` pairs for pytest parametrization."""
    return [
        (knob.name, value) for knob in knobs for value in values(knob)
    ]
