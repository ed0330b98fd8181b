"""Small dense quantum simulator for sensing pipelines."""

from .channels import Channel, DepolarizeOp, GateOp
from .pauli import (
    EncodingHamiltonian,
    Observable,
    PauliString,
    UnsupportedMeasurementError,
)
from .setups import (
    SETUP_KINDS,
    SensingSetup,
    ShotEstimate,
    build_ghz_setup,
    build_random_ansatz_setup,
    build_setup,
    build_squeezing_setup,
    exact_response,
    sample_response,
    sample_rows,
    setup_from_json,
    setup_to_json,
)
from .states import DimensionLimitError, QuantumState

__all__ = [
    "SETUP_KINDS",
    "Channel",
    "DepolarizeOp",
    "DimensionLimitError",
    "EncodingHamiltonian",
    "GateOp",
    "Observable",
    "PauliString",
    "QuantumState",
    "SensingSetup",
    "ShotEstimate",
    "UnsupportedMeasurementError",
    "build_ghz_setup",
    "build_random_ansatz_setup",
    "build_setup",
    "build_squeezing_setup",
    "exact_response",
    "sample_response",
    "sample_rows",
    "setup_from_json",
    "setup_to_json",
]
