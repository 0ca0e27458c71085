"""Finite-difference validation of every backward pass, both precisions."""

import numpy as np
import pytest

import gradcases as gc
from stutterkit import nn

ALL_CASES = gc.LAYER_CASES + gc.MODEL_CASES
CASE_IDS = [name for name, _, _ in ALL_CASES]


@pytest.mark.parametrize("name,cls,kw", ALL_CASES, ids=CASE_IDS)
def test_float64_native(name, cls, kw):
    report = gc.native_f64_report(cls, **kw)
    assert report.passed, f"{name} f64 worst={report.worst:.3e} (tol {report.tolerance})"
    assert report.worst <= gc.F64_TOL


@pytest.mark.parametrize("name,cls,kw", ALL_CASES, ids=CASE_IDS)
def test_float32_against_f64_twin(name, cls, kw):
    report = gc.paired_f32_report(cls, **kw)
    assert report.passed, f"{name} f32 worst={report.worst:.3e} (tol {report.tolerance})"
    assert report.worst <= gc.F32_TOL


def test_negative_control_scaled_gradient():
    """A 1% gradient error must not slip through either precision's gate."""
    case = gc.LinearReluChainCase(np.float64)

    def tampered():
        loss, grads = case.run()
        return loss, {name: 1.01 * g for name, g in grads.items()}

    report = gc.finite_difference_check(tampered, case.params(), tolerance=gc.F64_TOL,
                                        step=1e-5)
    assert not report.passed


def test_negative_control_wrong_sign_grl():
    """If the reversal layer forgot its minus sign the upstream check fails."""
    case = gc.GrlCase(np.float64, side="up")

    def sign_flipped():
        loss, grads = case.run()
        return -loss, grads  # pretend the objective was +lambda * L

    report = gc.finite_difference_check(sign_flipped, case.params(),
                                        tolerance=gc.F64_TOL, step=1e-5)
    assert not report.passed


def test_reports_name_every_parameter():
    report = gc.native_f64_report(gc.FullModelMtlCase)
    case = gc.FullModelMtlCase(np.float64)
    assert set(report.max_rel_error) == set(case.params())
    assert all(v >= 0.0 for v in report.max_rel_error.values())


@pytest.mark.parametrize("report", [gc.native_f64_report, gc.paired_f32_report],
                         ids=["f64", "f32"])
def test_full_model_by_one_row_blocks(monkeypatch, report):
    """The full mtl model with every train-mode ReLU, batch norm and pool run one channel
    row at a time, and every TDNN dX product ceil(batch / K) clips at a time, at the
    suite's tolerances."""
    row_blocks, counts = nn.row_blocks, []
    monkeypatch.setattr(nn, "TRAIN_BLOCK_BYTES", 1)
    monkeypatch.setattr(nn, "row_blocks",
                        lambda y: counts.append(len(row_blocks(y))) or row_blocks(y))
    result = report(gc.FullModelMtlCase)
    assert result.passed, f"worst={result.worst:.3e} (tol {result.tolerance})"
    assert counts and set(counts) == {3}  # grad_arch's three channels, a block each
