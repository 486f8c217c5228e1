"""Exact-arithmetic laboratory for mixed vector systems and their defects.

The package imports none of its modules, so that a CLI process compiles
only those its subcommand runs; import each name from its module.
"""

__version__ = "0.1.0"
