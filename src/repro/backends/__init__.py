"""Execution backends: CPU (NumPy), native C, GPU simulator, distributed
simulator.

Each backend registers itself with the driver's backend registry
(:mod:`repro.driver.registry`) as a ``Backend`` with ``emit``/``bind``
stages; ``Function.compile(target=...)`` resolves targets through that
registry.
"""
