"""Precalculated switching-activity table (Section 5.2.2).

"In our experiments we precalculate the switching activities for all
combinations of multiplexers and functional units ... The calculated
SA values are then stored in a text file. A hash table is then
generated when HLPower is initially run by reading in the precalculated
values from the text file."

:class:`SATable` reproduces exactly that: a lazy, persistent lookup of
the glitch-aware estimated SA of the Figure-2 partial datapath — two
input multiplexers feeding one functional unit — keyed by
``(fu_class, mux_a_size, mux_b_size)``. Values are symmetric under
port swap, so keys are normalized to ``mux_a <= mux_b``.

By default the estimate runs on the cleaned gate-level netlist; with
``map_to_luts=True`` the partial datapath is first mapped to K-LUTs by
the glitch-aware mapper (the paper's exact pipeline). Both produce the
same *ordering* of candidate bindings — which is all Equation (4)
consumes — and the gate-level mode is an order of magnitude faster;
``benchmarks/test_ablation_sa_table.py`` verifies the orderings agree,
mirroring the paper's precalc-vs-dynamic equivalence claim.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, TextIO, Tuple

from repro.errors import BindingError
from repro.activity import estimate_switching_activity
from repro.netlist.library import FU_TYPES, build_partial_datapath
from repro.netlist.transform import clean
from repro.techmap import map_netlist

Key = Tuple[str, int, int]

#: The checked-in precalculated table, relative to the repository root.
SHIPPED_TABLE_PATH = "data/sa_table.txt"

#: Default datapath bit-width used for the table's partial datapaths.
#: The table drives *relative* edge weights; 4 bits preserves ordering
#: while keeping precalculation fast (see module docstring).
DEFAULT_TABLE_WIDTH = 4


@dataclass(frozen=True)
class SATableConfig:
    """Estimation settings for one table (all baked into the keys)."""

    width: int = DEFAULT_TABLE_WIDTH
    k: int = 4
    map_to_luts: bool = False
    glitch_aware: bool = True


class SATable:
    """Lazy, optionally file-backed SA lookup for partial datapaths.

    ``path`` is both read at construction and written back by
    :meth:`save_if_dirty`; :meth:`load` reads a file without making it
    the save target.
    """

    def __init__(
        self,
        config: Optional[SATableConfig] = None,
        path: Optional[str] = None,
    ):
        self.config = config or SATableConfig()
        self.path = path
        self._values: Dict[Key, float] = {}
        self._dirty = False
        if path is not None:
            self.load(path)

    def load(self, path: str) -> "SATable":
        """Absorb the matching entries of ``path`` (if it exists)."""
        if os.path.exists(path):
            with open(path) as handle:
                self._read(handle)
        return self

    # -- lookup -----------------------------------------------------------

    @staticmethod
    def normalize(fu_class: str, mux_a: int, mux_b: int) -> Key:
        if fu_class not in FU_TYPES:
            raise BindingError(f"unknown FU class {fu_class!r}")
        if mux_a < 1 or mux_b < 1:
            raise BindingError(
                f"mux sizes must be >= 1, got ({mux_a}, {mux_b})"
            )
        low, high = sorted((mux_a, mux_b))
        return (fu_class, low, high)

    def get(self, fu_class: str, mux_a: int, mux_b: int) -> float:
        """SA of the partial datapath; computed and cached on miss."""
        key = self.normalize(fu_class, mux_a, mux_b)
        value = self._values.get(key)
        if value is None:
            value = self._estimate(key)
            self._values[key] = value
            self._dirty = True
        return value

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: Key) -> bool:
        return self.normalize(*key) in self._values

    def _estimate(self, key: Key) -> float:
        fu_class, mux_a, mux_b = key
        netlist = build_partial_datapath(
            fu_class, mux_a, mux_b, self.config.width
        )
        clean(netlist)
        if self.config.map_to_luts:
            result = map_netlist(
                netlist,
                k=self.config.k,
                glitch_aware=self.config.glitch_aware,
            )
            total = result.total_sa
        else:
            report = estimate_switching_activity(
                netlist, glitch_aware=self.config.glitch_aware
            )
            total = report.total
        # Quantize at the persisted precision (save() writes %.9f), so
        # a freshly computed value and the same value round-tripped
        # through the text file are identical — table fill state can
        # then never perturb a binding, which the flow pipeline's bind
        # fingerprint relies on (it excludes fill state by design).
        return round(total, 9)

    # -- bulk -----------------------------------------------------------

    def precalculate(
        self,
        max_mux: int,
        fu_classes: Iterable[str] = ("add", "mult"),
    ) -> int:
        """Fill the table for all combinations up to ``max_mux`` inputs.

        Returns the number of entries computed (cached entries are
        skipped). This is the paper's offline precalculation step.
        """
        computed = 0
        for fu_class in fu_classes:
            for mux_a in range(1, max_mux + 1):
                for mux_b in range(mux_a, max_mux + 1):
                    key = self.normalize(fu_class, mux_a, mux_b)
                    if key not in self._values:
                        self._values[key] = self._estimate(key)
                        self._dirty = True
                        computed += 1
        return computed

    # -- sharing ----------------------------------------------------------

    def snapshot(self) -> Dict[Key, float]:
        """Copy of the cached values (for shipping to sweep workers)."""
        return dict(self._values)

    def merge(self, values: Mapping[Key, float]) -> int:
        """Absorb entries computed elsewhere (e.g. by a sweep worker).

        Only keys not already cached are taken, so a worker's copy can
        never overwrite the parent's values. Returns the number of new
        entries (the table is marked dirty if any were added).
        """
        added = 0
        for key, value in values.items():
            if key not in self._values:
                self._values[key] = value
                added += 1
        if added:
            self._dirty = True
        return added

    # -- persistence ------------------------------------------------------

    _HEADER = "# fu mux_a mux_b width k mapped glitch sa"

    def save(self, path: Optional[str] = None) -> None:
        """Write the table as the paper's text file.

        The write is atomic: content goes to a uniquely-named temp file
        in the target directory and is moved into place with
        :func:`os.replace`, so a concurrent reader (or another saver —
        e.g. parallel sweep workers) can never observe a torn file.
        Last writer wins; the sweep engine funnels all saves through
        the parent process so nothing is lost.
        """
        target = path or self.path
        if target is None:
            raise BindingError("no path to save the SA table to")
        directory = os.path.dirname(target)
        if directory:
            os.makedirs(directory, exist_ok=True)
        config = self.config
        fd, tmp_path = tempfile.mkstemp(
            dir=directory or ".",
            prefix=os.path.basename(target) + ".",
            suffix=".tmp",
        )
        try:
            # mkstemp creates 0600; keep the target's existing mode (or
            # a normal umask-respecting default) instead.
            if os.path.exists(target):
                os.chmod(tmp_path, os.stat(target).st_mode & 0o777)
            else:
                umask = os.umask(0)
                os.umask(umask)
                os.chmod(tmp_path, 0o666 & ~umask)
            with os.fdopen(fd, "w") as handle:
                handle.write(self._HEADER + "\n")
                for (fu_class, mux_a, mux_b), value in sorted(
                    self._values.items()
                ):
                    handle.write(
                        f"{fu_class} {mux_a} {mux_b} {config.width} "
                        f"{config.k} {int(config.map_to_luts)} "
                        f"{int(config.glitch_aware)} {value:.9f}\n"
                    )
            os.replace(tmp_path, target)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
        self._dirty = False

    def save_if_dirty(self) -> None:
        if self._dirty and self.path is not None:
            self.save()

    def _read(self, handle: TextIO) -> None:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 8:
                raise BindingError(f"malformed SA table line: {line!r}")
            fu_class, mux_a, mux_b, width, k, mapped, glitch, value = parts
            if (
                int(width) != self.config.width
                or int(k) != self.config.k
                or bool(int(mapped)) != self.config.map_to_luts
                or bool(int(glitch)) != self.config.glitch_aware
            ):
                continue  # entry from a different configuration
            self._values[(fu_class, int(mux_a), int(mux_b))] = float(value)
