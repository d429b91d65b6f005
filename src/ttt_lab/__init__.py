"""State-update rules, an associative-recall benchmark, and the
trajectory/depth/point-cloud metrics used to evaluate streaming
reconstruction systems."""

__version__ = "0.1.0"
