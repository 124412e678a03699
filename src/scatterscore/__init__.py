"""Rank 2D scatterplots by perceived cluster complexity.

Pipeline: fit a bivariate Gaussian mixture to the points (EM + BIC),
classify every component pair merge/not-merge with a model trained on
human judgments, count the merged clusters, and order scatterplots by the
resulting (M, K*) score.  Import the modules: ``scatterscore.gmm``,
``scatterscore.mergemodel``, ``scatterscore.vqm`` and so on.
"""

__version__ = "0.1.0"
