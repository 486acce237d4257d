"""Exact construction and verification of Gorenstein-linear minimal free resolutions.

Given a homogeneous inverse system of even socle degree whose middle
catalecticant is invertible, this package builds the explicit minimal free
resolution of the associated Artinian Gorenstein algebra with exact rational
arithmetic, and verifies the structural claims about it (complex property,
Betti numbers, skeleton, duality, degreewise exactness, weak Lefschetz).
"""

from .differentials import Resolution, build_resolution
from .hookbasis import (
    BasisElement,
    OrderedBasis,
    duality_basis,
    enumerate_basis,
    rank_formulas,
)
from .invsys import (
    InadmissibleSystemError,
    InverseSystem,
    ann_degree,
    delta_and_Q,
    hilbert_function,
    load_invsys,
    random_invsys,
    save_invsys,
    sum_of_powers,
)
from .verify import Report, run_checks

__version__ = "0.1.0"

__all__ = [
    "BasisElement",
    "InadmissibleSystemError",
    "InverseSystem",
    "OrderedBasis",
    "Resolution",
    "ann_degree",
    "build_resolution",
    "delta_and_Q",
    "duality_basis",
    "enumerate_basis",
    "hilbert_function",
    "load_invsys",
    "random_invsys",
    "rank_formulas",
    "Report",
    "run_checks",
    "save_invsys",
    "sum_of_powers",
]
