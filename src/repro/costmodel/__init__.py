"""The computational cost model of reactors (paper Section 2.4).

* :mod:`repro.costmodel.model` — the Figure 3 fork-join latency
  equation and its mapping onto observable breakdown buckets;
* :mod:`repro.costmodel.calibration` — parameter extraction from a
  profiled run's breakdown (the paper's calibration workflow);
* :mod:`repro.costmodel.programs` — spec builders for multi-transfer,
  YCSB multi_update and TPC-C new-order.

Public exports: the fork-join model (:class:`ForkJoinSpec`,
:class:`Call`, ``predict_observable_breakdown``), calibration
(:class:`Calibration`, ``calibrate_from_summary``) and the program
spec builders (``multi_transfer``, ``ycsb_multi_update``,
``tpcc_new_order``, ``destinations``).
"""

from repro.costmodel.calibration import (
    Calibration,
    calibrate_from_summary,
)
from repro.costmodel.model import (
    Call,
    ForkJoinSpec,
    predict_observable_breakdown,
)
from repro.costmodel.programs import (
    destinations,
    multi_transfer,
    tpcc_new_order,
    ycsb_multi_update,
)

__all__ = [
    "ForkJoinSpec",
    "Call",
    "predict_observable_breakdown",
    "Calibration",
    "calibrate_from_summary",
    "multi_transfer",
    "ycsb_multi_update",
    "tpcc_new_order",
    "destinations",
]
