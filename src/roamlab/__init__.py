"""Agent roaming simulator with particle-filter data assimilation.

Twin-experiment laboratory: a truth world generates pseudo-observations
(store inflow counts, attribute-tagged counts, biased sequence samples),
an assimilation world recovers transition tendencies from them, and a
metrics suite scores the recovery.
"""

__version__ = "0.1.0"
