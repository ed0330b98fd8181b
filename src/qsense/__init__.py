"""qsense: reconstruct the response of a quantum sensing setup as a
trigonometric polynomial from a handful of measurements, then use it for
parameter estimation, sensitivity analysis and shot budgeting."""

from .sim import (
    Channel,
    DepolarizeOp,
    DimensionLimitError,
    EncodingHamiltonian,
    GateOp,
    Observable,
    PauliString,
    QuantumState,
    SensingSetup,
    ShotEstimate,
    UnsupportedMeasurementError,
    build_ghz_setup,
    build_random_ansatz_setup,
    build_squeezing_setup,
    exact_response,
    sample_response,
    setup_from_json,
    setup_to_json,
)
from .trig import (
    ConditionReport,
    NodeSet,
    SampleVector,
    SingularNodeSetError,
    TrigPoly,
    coeffs_closed_form,
    det_bound,
    equidistant_nodes,
    solve_lsp,
    write_curve_csv,
)

__version__ = "0.1.0"
