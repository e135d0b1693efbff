"""Boosted-tree screening pipeline for RT-PCR outcomes from symptom reports.

Submodules:
    dataset  - CSV I/O, calibrated synthesis, reporter rates, bias simulation
    gbm      - second-order boosting, prediction, model JSON persistence
    shap     - exact coalition-enumeration SHAP
    metrics  - auROC/auPRC, threshold panels, percentile bootstrap with ROC band
    plots    - deterministic SVG rendering (curves, beeswarm)
    cli      - the `pcrboost` command-line pipeline
"""

__version__ = "0.1.0"
