"""Alcove combinatorics, character evaluation and fusion data for simple compact Lie groups."""

from .rootdata import (ConfigurationError, RootSystem, TorusPoint, Weight,
                       build_root_system, from_name, inner, lattice_index,
                       weights_at_level)
from .weyl import WeylElement, enumerate_weyl

__version__ = "0.1.0"
