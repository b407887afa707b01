"""Dyadic pore statistics and distance-weight Muckenhoupt diagnostics."""

__version__ = "0.1.0"
