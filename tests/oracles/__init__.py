"""Reference oracles the equivalence tests and benchmarks compare against.

Each module keeps the literal, slow formulation an engine in ``repro``
replaced: the per-guess DPA loop and full-vector rank, the scalar event
simulator, the scalar placer, the networkx circuit graph (the only module
needing networkx) and the placement-overlap sweep.  Tests import them as
``from oracles.dpa import ...`` (pytest puts ``tests/`` on ``sys.path``);
``benchmarks/conftest.py`` does the same for the script benchmarks.
"""
