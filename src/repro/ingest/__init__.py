"""External-design ingestion frontend.

Everything between "bytes a user uploads" and the staged flow: the
versioned word-level module format and its strict validator
(:mod:`repro.ingest.module`), the bit-blasting elaboration onto the
gate library (:mod:`repro.ingest.bitblast`), and flow entry at the
``elaborate``/``techmap`` boundary on the pipeline's stage engine
(:mod:`repro.ingest.flow`). Flat BLIF rides the same path
via the hardened :func:`repro.netlist.blif.parse_blif`.
"""

from repro.ingest.module import (
    MODULE_FORMAT,
    ExternalDesign,
    Module,
    Signal,
    WordOp,
    canonical_text,
    load_design,
    load_design_text,
    parse_module,
)
from repro.ingest.bitblast import IngestedDesign, bit_blast, elaborate_design
from repro.ingest.flow import (
    INGEST_STAGES,
    DesignEstimate,
    DesignPipeline,
    run_design_estimate,
)

__all__ = [
    "MODULE_FORMAT",
    "ExternalDesign",
    "Module",
    "Signal",
    "WordOp",
    "canonical_text",
    "load_design",
    "load_design_text",
    "parse_module",
    "IngestedDesign",
    "bit_blast",
    "elaborate_design",
    "INGEST_STAGES",
    "DesignEstimate",
    "DesignPipeline",
    "run_design_estimate",
]
