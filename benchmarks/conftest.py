"""Shared infrastructure for the reproduction benches.

The heavyweight work — running the full flow (bind, elaborate, map,
simulate) for every benchmark under every binder configuration — is
done once per session through the sweep engine
(:func:`repro.flow.run_sweep`, the same path ``python -m repro sweep``
and ``suite`` drive) and cached; each table/figure bench then formats
and checks its slice of the results.

Scaling knobs (environment variables):

* ``REPRO_BENCH_BENCHMARKS`` — comma-separated subset (default: all 7);
* ``REPRO_BENCH_WIDTH`` — datapath bit-width (default 8);
* ``REPRO_BENCH_VECTORS`` — number of random input vectors (default
  256; the paper uses 1000, which quadruples runtime and does not move
  the aggregate numbers by more than a point).

The SA table is persisted to ``data/sa_table.txt`` (the paper's "text
file ... read in when HLPower is initially run"), so repeated bench
runs skip the precalculation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Tuple

import pytest

from repro import BENCHMARK_NAMES, benchmark_spec, run_sweep
from repro.binding import SATable
from repro.flow import BinderConfig, FlowResult, SweepSpec

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_TABLE_PATH = os.path.join(_REPO_ROOT, "data", "sa_table.txt")
_RESULTS_DIR = os.path.join(_REPO_ROOT, "benchmarks", "results")

#: The three configurations Tables 3/4 and Figure 3 compare.
CONFIGS = ("lopass", "hlpower_a1", "hlpower_a05")

#: Binder/alpha behind each configuration label.
BINDER_CONFIGS = (
    BinderConfig("lopass", "lopass", 0.5),
    BinderConfig("hlpower_a1", "hlpower", 1.0),
    BinderConfig("hlpower_a05", "hlpower", 0.5),
)


def bench_names() -> Tuple[str, ...]:
    raw = os.environ.get("REPRO_BENCH_BENCHMARKS")
    if not raw:
        return BENCHMARK_NAMES
    names = tuple(name.strip() for name in raw.split(",") if name.strip())
    for name in names:
        benchmark_spec(name)  # raises on typos
    return names


def bench_width() -> int:
    return int(os.environ.get("REPRO_BENCH_WIDTH", "8"))


def bench_vectors() -> int:
    return int(os.environ.get("REPRO_BENCH_VECTORS", "256"))


@dataclass
class SuiteResults:
    """All flow results, keyed by (benchmark, config)."""

    results: Dict[Tuple[str, str], FlowResult]
    width: int
    n_vectors: int

    def of(self, name: str, config: str) -> FlowResult:
        return self.results[(name, config)]


@pytest.fixture(scope="session")
def sa_table() -> SATable:
    # The shipped table, read-only: a bench run never rewrites it.
    return SATable().load(_TABLE_PATH)


@pytest.fixture(scope="session")
def suite(sa_table) -> SuiteResults:
    """Run the full measurement flow for every (benchmark, config).

    Uses the sweep engine's in-process mode (``jobs=1``) with
    ``keep_results=True``: the benches need the full
    :class:`FlowResult` objects (mux lists, mapping, simulation), not
    just the per-cell metric records.
    """
    width = bench_width()
    vectors = bench_vectors()
    spec = SweepSpec(
        benchmarks=list(bench_names()),
        configs=list(BINDER_CONFIGS),
        widths=(width,),
        n_vectors=vectors,
    )
    sweep = run_sweep(spec, jobs=1, sa_table=sa_table, keep_results=True)
    results = {
        (name, config): sweep.result_of(name, config)
        for name in bench_names()
        for config in CONFIGS
    }
    return SuiteResults(results, width, vectors)


def write_result(filename: str, text: str) -> None:
    """Persist a bench's table under benchmarks/results/ and print it."""
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    with open(os.path.join(_RESULTS_DIR, filename), "w") as handle:
        handle.write(text + "\n")
    print()
    print(text)
