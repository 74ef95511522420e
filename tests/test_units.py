"""Units and extreme rates: every kernel solves at the power of four that puts its largest
rate in [1, 4), so rates times 4**k give answers times 4**k bit for bit, and only an
answer that leaves the float range is refused."""
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from ptqsim import (
    SystemParams,
    classify_phase,
    eigenvalues_closed_form,
    eigenvectors_closed_form,
    locate_ep,
    qfi,
    sensing_sweep,
    sensitivity_variance,
)
from ptqsim.cli import main
from ptqsim.errors import NonFiniteError, PtqsimError


def _json(capsys, *argv):
    """The results of one JSON-format CLI call, which must exit 0."""
    code = main([*map(str, argv), "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, ""), err
    return json.loads(out)["results"]


class TestExtremeRatesAnswer:
    """Four calls that the layer-by-layer scale handling got wrong or refused."""

    @pytest.mark.parametrize("s, bracket", [(1e-90, "0:5e-89"), (1e-200, "3e-201:9e-201")])
    def test_ep_locate_at_tiny_rates(self, capsys, s, bracket):
        """At 1e-90 the locator read j_c = 0 (gamma**4 underflowed); at 1e-200 it
        divided by zero."""
        want = locate_ep("omega", 2.0, (0.0, 5.0)).j_c * s
        got = _json(capsys, "ep-locate", "--omega", 2 * s, "--gamma", s, "--sweep-axis", "j",
                    "--sweep-range", bracket)["j_c"]
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_spectrum_at_huge_rates(self, capsys):
        """The cubic invariants (sixth powers of the rates) overflowed at 1e60."""
        want = eigenvalues_closed_form(SystemParams(2.0, 0.4, 1.0)) * 1e60
        got = _json(capsys, "spectrum", "--omega", 2e60, "--j", 4e59, "--gamma", 1e60)
        got = np.array([complex(e["re"], e["im"]) for e in got["eigenvalues"]])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_qfi_at_huge_rates(self, capsys):
        """An absolute slope floor of 1e-12 refused a slope of 0.73 in units of the rates."""
        want = qfi(SystemParams(2.0, 0.4, 1.0), "j") * 1e-100
        got = _json(capsys, "qfi", "--omega", 2e50, "--j", 4e49, "--gamma", 1e50,
                    "--sweep-axis", "j")["qfi"]
        assert got == pytest.approx(want, rel=1e-10, abs=0)


def _outcome(call, *args):
    """call(*args), or the class of the PtqsimError it raises."""
    try:
        return call(*args)
    except PtqsimError as exc:
        return type(exc)


def _scaled(value, shift: int) -> np.ndarray:
    """value times 2**shift (floats, complexes and arrays alike), inf where it overflows;
    labels and flags as they are."""
    value = np.array(value)
    if value.dtype.kind not in "fc":
        return value
    with np.errstate(over="ignore"):
        if value.dtype.kind == "c":
            value.real, value.imag = np.ldexp(value.real, shift), np.ldexp(value.imag, shift)
        else:
            value = np.ldexp(value, shift)
    return value


def _check(got, want, fields: dict):
    """got is want's refusal, or answers with each of want's fields times 2**shift bit for
    bit; where one of those overflows, got is NonFiniteError.

    fields maps a name to (shift, the field read off an answer).
    """
    if isinstance(want, type):
        assert got is want
        return
    expected = {name: _scaled(read(want), shift) for name, (shift, read) in fields.items()}
    if any(v.dtype.kind in "fc" and np.isinf(v).any() for v in expected.values()):
        assert got is NonFiniteError
        return
    assert not isinstance(got, type), got
    for name, (_, read) in fields.items():
        assert np.array(read(got)).tobytes() == expected[name].tobytes(), name


def _times(rates, k: int) -> SystemParams:
    return SystemParams(*(math.ldexp(r, 2 * k) for r in rates))


#: Preset-domain rates: omega and j in [0, 3] and [0, 1.2] (zero included), gamma in
#: [0.01, 2]; times 4**k they stay normal floats for every k in _POWERS.
_RATE = st.one_of(st.just(0.0), st.floats(0.01, 3.0))
_POINTS = st.tuples(_RATE, st.one_of(st.just(0.0), st.floats(0.01, 1.2)), st.floats(0.01, 2.0))
_POWERS = st.integers(-505, 510)
_END = st.one_of(st.just(0.0), st.floats(0.01, 1.5))  # a sweep's or bracket's end
_ITSELF = (lambda x: x)


class TestPowersOfFour:
    """Rates times 4**k answer as the rates do, times 4**k, for every k whose answer is a
    float: the same labels, flags and refusals, and the same bits."""

    @seed(20260809)
    @settings(max_examples=150, deadline=None, database=None)
    @given(rates=_POINTS, k=_POWERS)
    def test_spectrum(self, rates, k):
        base, scaled = SystemParams(*rates), _times(rates, k)
        _check(_outcome(eigenvalues_closed_form, scaled), eigenvalues_closed_form(base),
               {"E": (2 * k, _ITSELF)})
        _check(_outcome(eigenvectors_closed_form, scaled), eigenvectors_closed_form(base),
               {"vectors": (0, _ITSELF)})
        _check(_outcome(classify_phase, scaled), classify_phase(base),
               {"max_imag": (2 * k, lambda label: label.max_imag),
                "phase": (0, lambda label: label.phase.value)})

    @seed(20260809)
    @settings(max_examples=100, deadline=None, database=None)
    @given(rates=_POINTS, k=_POWERS, kappa=st.sampled_from(["j", "omega"]))
    def test_sensing_point(self, rates, k, kappa):
        """The QFI maps back by 4**-E and the variance by 4**E; both are refused where
        either leaves the float range (the variance only where the slope is not zero)."""
        base, scaled = SystemParams(*rates), _times(rates, k)
        f, var = _outcome(qfi, base, kappa), _outcome(sensitivity_variance, base, kappa)
        f_over = not isinstance(f, type) and np.isinf(_scaled(f, -4 * k))
        var_over = not isinstance(var, type) and np.isinf(_scaled(var, 4 * k))
        _check(_outcome(qfi, scaled, kappa), NonFiniteError if var_over else f,
               {"qfi": (-4 * k, _ITSELF)})
        _check(_outcome(sensitivity_variance, scaled, kappa), NonFiniteError if f_over else var,
               {"variance": (4 * k, _ITSELF)})

    @seed(20260809)
    @settings(max_examples=60, deadline=None, database=None)
    @given(omega=st.floats(1.05, 3.0), gamma=st.floats(0.5, 1.5),
           ends=st.tuples(_END, _END).filter(lambda e: e[0] < e[1]),
           k=_POWERS, fix=st.sampled_from(["omega", "j"]))
    def test_locator(self, omega, gamma, ends, k, fix):
        """Found or not found alike, and j_c, omega_c, the gap and e_degenerate times 4**k."""
        value, bracket = (omega, ends) if fix == "omega" else (ends[0], (omega - 0.5, omega))
        s = 4.0**k
        _check(_outcome(locate_ep, fix, value * s, (bracket[0] * s, bracket[1] * s), gamma * s),
               _outcome(locate_ep, fix, value, bracket, gamma),
               {name: (shift, lambda p, name=name: getattr(p, name)) for name, shift in (
                   ("j_c", 2 * k), ("omega_c", 2 * k), ("gap", 2 * k), ("e_degenerate", 2 * k),
                   ("residual_x", 4 * k), ("residual_theta", 0))})

    @seed(20260809)
    @settings(max_examples=40, deadline=None, database=None)
    @given(omega=st.floats(1.05, 3.0), gamma=st.floats(0.5, 1.5),
           ends=st.tuples(_END, _END).filter(lambda e: e[0] < e[1]),
           k=st.integers(-200, 200), kappa=st.sampled_from(["j", "omega"]))
    def test_sweep(self, omega, gamma, ends, k, kappa):
        """Within 4**+-200 no sweep output leaves the float range: the flags and every
        column agree bit for bit."""
        fixed, span = (omega, ends) if kappa == "j" else (ends[0], (omega - 0.5, omega + 0.5))
        s = 4.0**k
        columns = {name: (shift, lambda points, name=name: [getattr(p, name) for p in points])
                   for name, shift in (("qfi", -4 * k), ("variance_sq", 4 * k),
                                       ("coherence", 0), ("cr_bound", 2 * k))}
        columns["flag"] = (0, lambda points: [str(p.flag) for p in points])
        _check(_outcome(sensing_sweep, kappa, fixed * s, (span[0] * s, span[1] * s), 7, gamma * s),
               _outcome(sensing_sweep, kappa, fixed, span, 7, gamma), columns)


@st.composite
def _any_scale_argv(draw):
    """One subcommand's argv on preset-domain values with every rate and rate range times
    2**k, k across the whole float range; runs take at most 400 steps, and an ep-locate
    or ep-curve range at gamma = 1 brackets the critical curve."""
    command = draw(st.sampled_from(["spectrum", "ep-locate", "ep-curve", "concurrence",
                                    "evolve", "revivals", "qfi", "sense"]))
    k = draw(st.sampled_from(range(-1074, 1023)))  # uniform over the float range
    s = lambda x: repr(math.ldexp(x, k))  # noqa: E731
    omega, j = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 1.2))
    gamma = draw(st.sampled_from([0.0, 1.0, 1.1]))
    axis = draw(st.sampled_from(["j", "omega"]))
    if command in ("ep-locate", "ep-curve"):  # j_c(omega) lies in (0, 1.5) for omega there
        omega, j = draw(st.floats(1.05, 2.5)), draw(st.floats(0.05, 0.6))
        lo, hi = (0.0, 1.5) if axis == "j" else (1.0, 3.0)
    else:
        lo = draw(st.floats(0.0, 1.5))
        hi = lo + draw(st.floats(0.01, 1.5))
    argv = [command, "--gamma", s(gamma)]
    if command != "ep-curve":
        argv += ["--omega", s(omega), "--j", s(j)]
    if command in ("ep-locate", "ep-curve", "concurrence", "sense"):
        argv += ["--sweep-range", f"{s(lo)}:{s(hi)}"]
    if command in ("ep-locate", "concurrence", "qfi", "sense"):
        argv += ["--sweep-axis", axis]
    if command in ("ep-curve", "concurrence", "sense"):
        argv += ["--n", str(draw(st.integers(2, 5)))]
    if command in ("evolve", "revivals"):
        dt = math.ldexp(draw(st.floats(1e-3, 0.05)), min(-k, 1015))
        argv += ["--dt", repr(dt), "--tmax", repr(dt * draw(st.integers(1, 400)))]
    return argv + ["--format", draw(st.sampled_from(["csv", "json"]))]


@seed(20260809)
@settings(max_examples=250, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_any_scale_argv())
def test_cli_contract_at_any_scale(capsys, argv):
    """Exit 0, 2 or 3, a failure as one JSON line on stderr, no warning and no escaped
    exception, at every scale of the rates."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3)
    assert not caught, [str(w.message) for w in caught]
    if code:
        assert out == "" and len(err.splitlines()) == 1 and "error" in json.loads(err)
    else:
        assert err == ""
