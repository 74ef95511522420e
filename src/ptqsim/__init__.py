"""Gain/loss (PT-symmetric) two-qubit simulator.

Spectra and exceptional points of the Ising-coupled two-qubit model with
balanced gain and loss, eigenstate and dynamical entanglement, and
critical-point-enhanced parameter sensing.
"""

__version__ = "0.1.0"

from .dynamics import (
    Trajectory,
    detect_revivals,
    dominant_eigenvector,
    exact_state,
    initial_state,
    propagate,
)
from .entanglement import (
    concurrence_mixed,
    concurrence_pure,
    eigenstate_concurrence_closed,
    eigenstate_concurrence_wootters,
    scan_closed_form_discrepancies,
)
from .ep import EpCurveEntry, EpPoint, coalesced_eigenvector, ep_curve, ep_residual, locate_ep
from .model import (
    PARITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_YY,
    SIGMA_Z,
    SystemParams,
    build_hamiltonian,
)
from .sensing import (
    SensingPoint,
    coherence_expectation,
    qfi,
    qfi_from_states,
    sensing_sweep,
    sensitivity_variance,
)
from .spectrum import (
    Phase,
    PhaseLabel,
    Source,
    Spectrum,
    classify_phase,
    eigensystem_oracle,
    eigenvalues_closed_form,
    eigenvectors_closed_form,
    pairing_distance,
    spectrum_closed_form,
    spectrum_oracle,
)

from . import errors  # noqa: F401  (exception hierarchy)
