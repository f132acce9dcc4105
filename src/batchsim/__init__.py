"""Deterministic desk-scale simulator of a cloud batch-compute service."""

__version__ = "0.1.0"
