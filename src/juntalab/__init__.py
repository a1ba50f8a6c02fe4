"""Spectral learning lab: junta distributions, junta quantum states,
classical shadows, and Choi-state analysis of shallow Toffoli circuits."""

__version__ = "0.3.0"
