"""The repo's benchmark: one layered performance ledger.

See ``bench/README.md``.  Entry point: ``python3 bench/run.py`` (or
``python -m bench.run``).  Nothing here imports the legacy
``benchmarks/`` package, ``repro.experiments`` or a private name.
"""
