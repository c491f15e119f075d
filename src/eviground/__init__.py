"""Desk-scale pipeline for evidence-grounded diagnostic report training."""

__version__ = "0.1.0"
