"""Built-in lint rules; importing this package registers all of them.

One module per rule keeps each invariant's logic (and its docstring,
which doubles as the rule's documentation) self-contained:

========  ==============================================================
RL001     no per-iteration allocation in ``# repro: hot`` loops
RL002     serialized field sets must match committed schema fingerprints
RL003     component-name strings must resolve against the registries
RL004     no wall-clock/unseeded-randomness/set-iteration in the simulator
RL005     slotted classes may only write attributes their slots declare
RL007     public modules/classes/functions need docstrings
========  ==============================================================
"""

from repro.lint.rules import (  # noqa: F401  (registration side effects)
    determinism,
    docstrings,
    hotpath,
    registry_names,
    schema_versions,
    slots,
)
