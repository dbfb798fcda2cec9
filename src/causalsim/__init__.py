"""Causally consistent geo-replication with client-side caches, simulated.

The package is organised as a library:

- :mod:`causalsim.clocks`    identifiers, version vectors, k-stability
- :mod:`causalsim.crdt`      operation-based mergeable data types
- :mod:`causalsim.messages`  wire formats between scouts and DCs
- :mod:`causalsim.dc`        data-centre replica state machine
- :mod:`causalsim.scout`     client-side cache and transaction engine
- :mod:`causalsim.sim`       deterministic discrete-event simulator
- :mod:`causalsim.mutants`   negative controls: mutated node classes
- :mod:`causalsim.workload`  social-network workload generator and presets
- :mod:`causalsim.checker`   offline consistency oracle and metrics
- :mod:`causalsim.gcpause`   cyclic-GC pause for the simulator and the checker
- :mod:`causalsim.cli`       run / check / sweep entry points
"""

from causalsim.clocks import CausalClock, DcId, Gtid, Otid, ScoutId, VersionVector

__all__ = [
    "CausalClock",
    "DcId",
    "Gtid",
    "Otid",
    "ScoutId",
    "VersionVector",
]
