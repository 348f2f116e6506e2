"""Numerical toolkit for Lindeberg swapping bounds, exchangeable
summarization, and semicircle-law experiments on symmetric random matrices.
"""

__version__ = "0.1.0"
