"""Stabilized primal-dual finite elements for unique continuation on disks."""

__version__ = "0.1.0"
