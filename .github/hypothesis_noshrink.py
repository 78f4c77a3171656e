"""pytest plugin for the mutation gate: hypothesis runs without its shrink phase.

A mutant's failing example is reported as found, unshrunk, so a property
test that kills a mutant fails in the time generation takes, not the time
shrinking takes.  `.github/mutants.py` loads it with `-p hypothesis_noshrink`;
the tier-1 suite never does, so its settings are hypothesis's defaults.
"""

from hypothesis import Phase, settings

settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate))
settings.load_profile("mutants")
