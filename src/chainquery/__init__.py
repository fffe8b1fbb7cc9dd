"""Verifiable hybrid-storage query middleware.

On-chain-style metadata lives in a simulated append-only ledger, payloads
in a content-addressed store, and a SQL subset is served through
authenticated time-range and prefix indexes whose query results carry
verification objects checkable against ledger-anchored root digests.
"""
# The kernels are stdlib only; the constant stays for tools that record it.
KERNEL_BACKEND = "python"
__version__ = "0.1.0"
__all__ = ["KERNEL_BACKEND", "__version__"]
