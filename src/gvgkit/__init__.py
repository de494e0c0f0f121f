"""gvgkit: a desk-scale toolkit for generalised visual grounding.

Provides a vectorised box core (pairwise IoU and GIoU), a small
reverse-mode differentiation engine, a hierarchical relevance scoring
head, a synthetic referring-expression benchmark generator, training
loops, and a grounding metric suite with negative-expression accuracy.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
