"""Performance models, calibration, and reporting (paper §6.2)."""
