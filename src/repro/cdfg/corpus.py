"""Seeded synthetic benchmark corpus (parameterized CDFG families).

The paper evaluates on seven fixed profiles (Table 1). Binder
comparisons on seven points say little about how the heuristics
behave as the problem shape varies, so this module scales
:mod:`repro.cdfg.generate` into a **corpus**: parameterized families
that sweep operation count, add/mult mix, and schedule density, each
instantiated at several generator seeds. Every instance is addressable
through the ordinary benchmark registry (``benchmark_spec`` /
``load_benchmark`` fall through to the corpus), so the whole sweep
engine — partial flows, caching, worker pools, the CLI — runs corpus
instances unchanged (``python -m repro corpus``).

Shape derivation per instance (deterministic, seed-independent):

* ``n_mults = clamp(round(n_ops * mult_frac))``, the rest are adds
  (at least one of each, matching the two-class resource library);
* depth: ``layers = max(3, round(ceil(sqrt(n_ops)) / density))`` —
  ``density`` > 1 packs the square-ish default layout into fewer,
  wider control steps, < 1 stretches it into more, narrower ones;
* per-type layer widths are the even spread over ``layers - 1`` (one
  slack layer, exactly like the generator's default layout), and
  double as the instance's **resource constraints** — the same
  convention the Table 1/2 benchmarks use, keeping the densest
  schedule step at the Theorem-1 bound;
* primary I/O counts follow a square-root rule of thumb capped at the
  paper profiles' range.

The ``micro`` family is sized so every instance stays within
:data:`repro.binding.optimal.MAX_OPS_PER_CLASS`, making the exact
branch-and-bound binder feasible — the oracle the differential suite
and ``repro corpus --oracle`` measure heuristic quality gaps against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CDFGError
from repro.cdfg.benchmarks import BenchmarkSpec
from repro.cdfg.generate import GraphProfile


@dataclass(frozen=True)
class CorpusFamily:
    """One parameterized family: the cross product of its axes."""

    name: str
    description: str
    op_counts: Tuple[int, ...]
    mult_fracs: Tuple[float, ...]
    densities: Tuple[float, ...]
    seeds: Tuple[int, ...]

    def size(self) -> int:
        return (
            len(self.op_counts)
            * len(self.mult_fracs)
            * len(self.densities)
            * len(self.seeds)
        )


@dataclass(frozen=True)
class CorpusInstance:
    """One concrete corpus benchmark (a point of a family's grid)."""

    name: str
    family: str
    n_ops: int
    mult_frac: float
    density: float
    seed: int
    profile: GraphProfile

    @property
    def constraints(self) -> Dict[str, int]:
        return {
            "add": self.profile.add_width,
            "mult": self.profile.mult_width,
        }

    def spec(self) -> BenchmarkSpec:
        """The registry-compatible spec (paper columns zeroed)."""
        return BenchmarkSpec(
            profile=self.profile,
            paper_edges=0,
            add_units=self.profile.add_width,
            mult_units=self.profile.mult_width,
            paper_cycles=self.profile.n_layers,
            paper_registers=0,
            paper_runtime_s=0.0,
            kind="corpus",
            graph_seed=self.seed,
        )


#: The shipped families. ``micro`` stays within the exact binder's
#: per-class limit (the oracle subset); ``kernel`` matches the paper
#: benchmarks' mid-range; ``wide`` stresses mux growth at chem scale;
#: ``huge`` and ``soc`` push into the thousand-op regime perfbench's
#: ``soc-estimate`` workload measures. The first seeds of
#: micro/kernel/wide reproduce the classic 90-instance corpus the
#: differential suites pin byte-identical (see
#: :data:`CLASSIC_SEEDS`); the extended seed ranges exist to give the
#: sweep engine a >=1000-instance population of cheap instances.
CORPUS_FAMILIES: Dict[str, CorpusFamily] = {
    family.name: family
    for family in (
        CorpusFamily(
            "micro",
            "oracle-feasible graphs (exact binding per class)",
            op_counts=(8, 10, 12),
            mult_fracs=(0.3, 0.5, 0.7),
            densities=(0.7, 1.0),
            seeds=tuple(range(40)),
        ),
        CorpusFamily(
            "kernel",
            "DSP-kernel-sized graphs around the Table 1 mid-range",
            op_counts=(24, 32, 48),
            mult_fracs=(0.4, 0.6),
            densities=(0.7, 1.0),
            seeds=tuple(range(16)),
        ),
        CorpusFamily(
            "wide",
            "large graphs sweeping schedule density at chem scale",
            op_counts=(64, 96),
            mult_fracs=(0.5,),
            densities=(0.5, 0.9, 1.3),
            seeds=tuple(range(16)),
        ),
        CorpusFamily(
            "huge",
            "hundreds-to-a-thousand ops, deep and wide schedules",
            op_counts=(256, 512, 1024),
            mult_fracs=(0.4,),
            densities=(0.6, 1.0),
            seeds=(0,),
        ),
        CorpusFamily(
            "soc",
            "SoC-scale graphs in the thousands of operations",
            op_counts=(2048, 4096),
            mult_fracs=(0.35,),
            densities=(0.8,),
            seeds=(0,),
        ),
    )
}

#: The seed slices of micro/kernel/wide that made up the corpus before
#: the scaling families landed — exactly the classic 90 instances the
#: engine-differential suites enumerate (their names and derivations
#: are unchanged by the extended seed ranges above).
CLASSIC_SEEDS: Dict[str, Tuple[int, ...]] = {
    "micro": (0, 1, 2),
    "kernel": (0, 1),
    "wide": (0, 1),
}


def _instance_name(
    family: str, n_ops: int, mult_frac: float, density: float, seed: int
) -> str:
    return (
        f"{family}-n{n_ops}-m{round(mult_frac * 100)}"
        f"-d{round(density * 100)}-s{seed}"
    )


def _derive_profile(
    name: str, n_ops: int, mult_frac: float, density: float
) -> GraphProfile:
    """Deterministic shape parameters for one instance (see module doc)."""
    if n_ops < 2:
        raise CDFGError(f"{name}: corpus instances need >= 2 operations")
    if not 0.0 < mult_frac < 1.0:
        raise CDFGError(
            f"{name}: mult_frac must be in (0, 1), got {mult_frac}"
        )
    if density <= 0.0:
        raise CDFGError(f"{name}: density must be positive, got {density}")
    n_mults = min(n_ops - 1, max(1, round(n_ops * mult_frac)))
    n_adds = n_ops - n_mults
    layers = max(3, round(math.ceil(math.sqrt(n_ops)) / density))
    slack_layers = max(1, layers - 1)
    add_width = max(1, -(-n_adds // slack_layers))
    mult_width = max(1, -(-n_mults // slack_layers))
    root = round(math.sqrt(n_ops))
    n_outputs = max(2, min(8, root))
    n_inputs = max(2, min(12, root + 1))
    return GraphProfile(
        name,
        n_inputs=n_inputs,
        n_outputs=n_outputs,
        n_adds=n_adds,
        n_mults=n_mults,
        n_layers=layers,
        add_width=add_width,
        mult_width=mult_width,
    )


def _build_registry() -> Dict[str, CorpusInstance]:
    registry: Dict[str, CorpusInstance] = {}
    for family in CORPUS_FAMILIES.values():
        for n_ops in family.op_counts:
            for mult_frac in family.mult_fracs:
                for density in family.densities:
                    for seed in family.seeds:
                        name = _instance_name(
                            family.name, n_ops, mult_frac, density, seed
                        )
                        registry[name] = CorpusInstance(
                            name=name,
                            family=family.name,
                            n_ops=n_ops,
                            mult_frac=mult_frac,
                            density=density,
                            seed=seed,
                            profile=_derive_profile(
                                name, n_ops, mult_frac, density
                            ),
                        )
    return registry


#: Every shipped instance, keyed by name (enumeration order is the
#: families' declaration order, axes nested as declared).
CORPUS: Dict[str, CorpusInstance] = _build_registry()

#: Instance names in enumeration order.
CORPUS_NAMES: Tuple[str, ...] = tuple(CORPUS)


def is_corpus_name(name: str) -> bool:
    return name in CORPUS


def corpus_instance(name: str) -> CorpusInstance:
    try:
        return CORPUS[name]
    except KeyError:
        raise CDFGError(
            f"unknown corpus instance {name!r}; see `repro corpus --list` "
            f"(families: {tuple(CORPUS_FAMILIES)})"
        )


def corpus_instances(
    families: Optional[Sequence[str]] = None,
    limit: Optional[int] = None,
) -> List[CorpusInstance]:
    """Enumerate instances, optionally filtered to ``families``.

    ``limit`` truncates the enumeration but keeps round-robin fairness
    across the selected families (so a small limit still samples every
    family rather than draining the first one).
    """
    if families is None:
        names = list(CORPUS_FAMILIES)
    else:
        names = list(families)
        for family in names:
            if family not in CORPUS_FAMILIES:
                raise CDFGError(
                    f"unknown corpus family {family!r}; choose from "
                    f"{tuple(CORPUS_FAMILIES)}"
                )
    per_family: List[List[CorpusInstance]] = [
        [inst for inst in CORPUS.values() if inst.family == family]
        for family in names
    ]
    if limit is None:
        return [inst for group in per_family for inst in group]
    picked: List[CorpusInstance] = []
    cursor = 0
    while len(picked) < limit and any(per_family):
        group = per_family[cursor % len(per_family)]
        if group:
            picked.append(group.pop(0))
        cursor += 1
    return picked


def classic_corpus_names() -> List[str]:
    """The classic 90-instance corpus (see :data:`CLASSIC_SEEDS`).

    The engine-differential suites pin fast-vs-reference byte
    identity over this subset; the extended seed ranges and the
    ``huge``/``soc`` scaling families are covered by sampled tests
    and the scaling bench instead.
    """
    return [
        name for name, inst in CORPUS.items()
        if inst.seed in CLASSIC_SEEDS.get(inst.family, ())
    ]


def oracle_feasible(instance: CorpusInstance) -> bool:
    """True when the exact binder can solve every class of the instance."""
    from repro.binding.optimal import MAX_OPS_PER_CLASS

    return (
        instance.profile.n_adds <= MAX_OPS_PER_CLASS
        and instance.profile.n_mults <= MAX_OPS_PER_CLASS
    )
