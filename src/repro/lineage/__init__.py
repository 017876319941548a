"""Live-maintained lineage over streaming provenance (graph traversal).

The interactive counterpart to :class:`repro.provenance.graph.ProvenanceGraph`:
the graph is maintained *incrementally* as messages arrive instead of
rebuilt from a full document scan per question.  See
``docs/architecture.md`` ("Lineage subsystem") and
``tests/lineage/test_parity.py`` for the parity evidence.
"""

from repro.lineage.index import LineageIndex
from repro.lineage.service import LineageService

__all__ = ["LineageIndex", "LineageService"]
