"""Reference oracles the equivalence tests and benchmarks compare against.

Each module keeps the literal, slow formulation a vectorized engine in
``repro`` replaced: the per-guess DPA loop, the scalar event simulator and
the scalar placer.  Tests import them as ``from oracles.dpa import ...``
(pytest puts ``tests/`` on ``sys.path``); ``benchmarks/conftest.py`` does
the same for the script benchmarks.
"""
