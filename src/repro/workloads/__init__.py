"""Workloads: RPS traces, arrival sampling and the two applications.

Synthetic stand-ins for the Azure Functions production trace (Fig. 10):
*sporadic*, *periodic* and *bursty* patterns with the long-term
periodicity (LTP) and short-term burst (STB) features the paper calls
out, plus the OSVT and Q&A-robot application bundles used throughout
the evaluation (section 5.1).
"""

from repro.workloads.trace import Trace
from repro.workloads.generators import (
    constant_trace,
    periodic_trace,
    bursty_trace,
    sporadic_trace,
    timer_invocations,
)
from repro.workloads.arrivals import (
    sample_arrivals,
    sample_arrivals_window,
)
from repro.workloads.apps import Application, build_osvt, build_qa_robot
from repro.workloads.coldstart_fleet import coldstart_fleet_invocations
from repro.workloads.azure import (
    aggregate,
    iter_azure_csv,
    load_azure_csv,
    parse_rows,
    write_azure_csv,
)
from repro.workloads.seeding import (
    SeedLike,
    as_seed_sequence,
    derive_streams,
    spawn_seed_ints,
)

__all__ = [
    "Trace",
    "SeedLike",
    "as_seed_sequence",
    "derive_streams",
    "spawn_seed_ints",
    "constant_trace",
    "periodic_trace",
    "bursty_trace",
    "sporadic_trace",
    "timer_invocations",
    "sample_arrivals",
    "sample_arrivals_window",
    "Application",
    "build_osvt",
    "build_qa_robot",
    "coldstart_fleet_invocations",
    "aggregate",
    "iter_azure_csv",
    "load_azure_csv",
    "parse_rows",
    "write_azure_csv",
]
