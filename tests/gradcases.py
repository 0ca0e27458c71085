"""The finite-difference harness and the test cases it checks, shared by the
gradient and acceptance suites.

Each case builds a small differentiable program twice, in float32 and
float64, from the same seed; the float64 twin's arrays are then overwritten
with the float32 values (cast up, which is exact). The float32 check
evaluates the finite-difference loss on the float64 twin while taking the
analytic gradient from the float32 code path: pure-float32 central
differences carry ~1e-2 relative noise, which would drown the 1e-3 budget,
whereas a wrong backward formula still shows up as an O(1) mismatch here.
Float64 cases are checked natively at 1e-6.
"""

from dataclasses import dataclass, field

import numpy as np

from stutterkit import nn
from stutterkit.errors import StutterKitError
from stutterkit.model import ArchConfig, build_model
from stutterkit.training import compute_losses

F32_TOL = 1e-3
F64_TOL = 1e-6


class NonDeterministicLoss(StutterKitError):
    """Loss function returned different values for identical parameters."""


@dataclass
class GradCheckReport:
    tolerance: float
    max_rel_error: dict[str, float] = field(default_factory=dict)
    passed: bool = True

    @property
    def worst(self) -> float:
        return max(self.max_rel_error.values()) if self.max_rel_error else 0.0


def finite_difference_check(
    loss_fn,
    params: dict[str, nn.Param],
    tolerance: float | None = None,
    step: float | None = None,
) -> GradCheckReport:
    """Validate analytic gradients against central finite differences.

    loss_fn() must run forward + backward and return (scalar loss, grads dict
    keyed like params); it must be deterministic (dropout off or a fixed
    mask). Step and tolerance default per dtype: 1e-3 / 1e-3 for float32
    params, 1e-5 / 1e-6 for float64.

    relative error = |analytic - numeric| / max(|analytic|, |numeric|, 1e-8)
    """
    loss0, grads0 = loss_fn()
    loss1, _ = loss_fn()
    if loss0 != loss1:
        raise NonDeterministicLoss(f"loss changed between evaluations: {loss0} vs {loss1}")
    analytic = {name: np.array(g, dtype=np.float64, copy=True) for name, g in grads0.items()}

    report = GradCheckReport(tolerance=tolerance if tolerance is not None else 0.0)
    for name, p in params.items():
        is32 = p.value.dtype == np.float32
        h = step if step is not None else (1e-3 if is32 else 1e-5)
        tol = tolerance if tolerance is not None else (1e-3 if is32 else 1e-6)
        report.tolerance = tol
        flat = p.value.reshape(-1)
        ana = analytic[name].reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = loss_fn()[0]
            flat[i] = orig - h
            f_minus = loss_fn()[0]
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(ana[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(ana[i] - numeric) / denom)
        report.max_rel_error[name] = worst
        if worst > tol:
            report.passed = False
    return report


def channels_major(x):
    """A (batch, channels, frames) draw as the encoder's C-ordered (channels, batch, frames)."""
    return np.ascontiguousarray(x.transpose(1, 0, 2))


def zero_grad(*layers):
    for layer in layers:
        for p in layer.params().values():
            p.grad[...] = 0.0


def grad_arch():
    """Small enough that elementwise finite differencing stays fast."""
    return ArchConfig(
        n_podcasts=2,
        n_mfcc=3,
        encoder_channels=(3, 3, 3, 3, 3),
        contexts=((-1, 0, 1), (-1, 0, 1), (-2, 0, 2), (0,), (0,)),
        head_hidden=(4, 4),
        dropout=0.0,
    )


class Case:
    """One differentiable program: params(), arrays() to sync, run()."""

    def params(self) -> dict:
        raise NotImplementedError

    def arrays(self) -> dict:
        """Everything that must be value-synced between twins (params + inputs)."""
        out = {name: p.value for name, p in self.params().items()}
        out.update(self.inputs)
        return out

    def run(self):
        raise NotImplementedError


def sync_twins(c32: Case, c64: Case):
    a32, a64 = c32.arrays(), c64.arrays()
    for name, arr in a32.items():
        a64[name][...] = arr.astype(np.float64)


def native_f64_report(case_cls, **kw):
    c = case_cls(np.float64, **kw)
    return finite_difference_check(c.run, c.params(), tolerance=F64_TOL, step=1e-5)


def paired_f32_report(case_cls, **kw):
    c32 = case_cls(np.float32, **kw)
    c64 = case_cls(np.float64, **kw)
    sync_twins(c32, c64)

    def loss_fn():
        loss, _ = c64.run()
        _, grads = c32.run()
        return loss, grads

    return finite_difference_check(loss_fn, c64.params(), tolerance=F32_TOL, step=1e-5)


class TdnnCase(Case):
    def __init__(self, dtype, offsets=(-2, 0, 2), seed=0):
        rng = np.random.default_rng(seed)
        self.layer = nn.TdnnLayer(3, 4, offsets, rng, dtype=dtype)
        self.inputs = {"x": channels_major(rng.normal(size=(2, 3, 10)).astype(dtype))}
        self.targets = np.array([1, 3])

    def params(self):
        return {f"tdnn.{k}": p for k, p in self.layer.params().items()}

    def run(self):
        zero_grad(self.layer)
        y = self.layer.forward(self.inputs["x"], train=True)
        pooled = y.mean(axis=2).T
        losses, grads = nn.softmax_cross_entropy(pooled, self.targets)
        dy = np.broadcast_to(
            (grads / (len(self.targets) * y.shape[2])).T[:, :, None], y.shape
        )
        self.layer.backward(np.ascontiguousarray(dy, dtype=y.dtype), self.inputs["x"])
        return float(losses.mean()), {n: p.grad for n, p in self.params().items()}


class LinearReluChainCase(Case):
    """linear -> relu -> linear -> CE; validates both linears and relu backward.

    in_place: relu backward writes into its incoming gradient (out=dy).
    """

    def __init__(self, dtype, in_place=False, seed=0):
        rng = np.random.default_rng(seed)
        self.in_place = in_place
        self.l1 = nn.Linear(4, 5, rng, dtype=dtype)
        self.relu = nn.Relu()
        self.l2 = nn.Linear(5, 3, rng, dtype=dtype)
        self.inputs = {"x": rng.normal(size=(3, 4)).astype(dtype)}
        self.targets = np.array([0, 2, 1])

    def params(self):
        out = {f"l1.{k}": p for k, p in self.l1.params().items()}
        out.update({f"l2.{k}": p for k, p in self.l2.params().items()})
        return out

    def run(self):
        zero_grad(self.l1, self.l2)
        logits = self.l2.forward(
            self.relu.forward(self.l1.forward(self.inputs["x"], True), True), True)
        losses, grads = nn.softmax_cross_entropy(logits, self.targets)
        dh = self.l2.backward(grads / len(self.targets))
        self.l1.backward(self.relu.backward(dh, out=dh if self.in_place else None))
        return float(losses.mean()), {n: p.grad for n, p in self.params().items()}


class BatchNormCase(Case):
    """Train-mode batch norm inside a chain, flat or temporal input.

    The input is checked as a parameter too, so the input gradient is.
    in_place: batch norm backward writes it into its incoming gradient (out=dy).
    """

    def __init__(self, dtype, temporal=False, in_place=False, seed=0):
        rng = np.random.default_rng(seed)
        self.temporal = temporal
        self.in_place = in_place
        self.bn = nn.BatchNorm1d(3, dtype=dtype)
        self.out = nn.Linear(3, 2, rng, dtype=dtype)
        shape = (2, 3, 7) if temporal else (6, 3)
        x = rng.normal(size=shape).astype(dtype)
        self.inputs = {"x": channels_major(x) if temporal else x}
        self.x = nn.Param(value=self.inputs["x"], grad=np.zeros_like(self.inputs["x"]))
        self.targets = np.array([0, 1]) if temporal else np.array([0, 1, 0, 1, 1, 0])

    def params(self):
        out = {"x": self.x}
        out.update({f"bn.{k}": p for k, p in self.bn.params().items()})
        out.update({f"out.{k}": p for k, p in self.out.params().items()})
        return out

    def run(self):
        zero_grad(self.bn, self.out)
        y = self.bn.forward(self.inputs["x"], train=True)
        flat = y.mean(axis=2).T if self.temporal else y
        logits = self.out.forward(flat, True)
        losses, grads = nn.softmax_cross_entropy(logits, self.targets)
        dflat = self.out.backward(grads / len(self.targets))
        if self.temporal:
            dy = np.broadcast_to(dflat.T[:, :, None] / y.shape[2], y.shape)
            dy = np.ascontiguousarray(dy, dtype=y.dtype)
        else:
            dy = dflat
        self.x.grad[...] = self.bn.backward(dy, out=dy if self.in_place else None)
        return float(losses.mean()), {n: p.grad for n, p in self.params().items()}


class StatPoolCase(Case):
    """tdnn -> statistical pooling -> linear -> CE; pooling backward shows in all grads."""

    def __init__(self, dtype, seed=0):
        rng = np.random.default_rng(seed)
        self.tdnn = nn.TdnnLayer(3, 4, (0,), rng, dtype=dtype)
        self.pool = nn.StatPool()
        self.out = nn.Linear(8, 3, rng, dtype=dtype)
        self.inputs = {"x": channels_major(rng.normal(size=(2, 3, 8)).astype(dtype))}
        self.targets = np.array([2, 0])

    def params(self):
        out = {f"tdnn.{k}": p for k, p in self.tdnn.params().items()}
        out.update({f"out.{k}": p for k, p in self.out.params().items()})
        return out

    def run(self):
        zero_grad(self.tdnn, self.out)
        y = self.tdnn.forward(self.inputs["x"], train=True)
        losses, grads = nn.softmax_cross_entropy(
            self.out.forward(self.pool.forward(y, True), True), self.targets)
        self.tdnn.backward(self.pool.backward(self.out.backward(grads / len(self.targets)), y),
                           self.inputs["x"])
        return float(losses.mean()), {n: p.grad for n, p in self.params().items()}


class SoftmaxCECase(Case):
    """The logits themselves are the parameter; checks dL/dlogits directly."""

    def __init__(self, dtype, seed=0):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(3, 4)).astype(dtype)
        self.logits = nn.Param(value=logits, grad=np.zeros_like(logits))
        self.inputs = {}
        self.targets = np.array([1, 0, 3])

    def params(self):
        return {"logits": self.logits}

    def run(self):
        losses, grads = nn.softmax_cross_entropy(self.logits.value, self.targets)
        self.logits.grad = grads / len(self.targets)
        return float(losses.mean()), {"logits": self.logits.grad}


class GrlCase(Case):
    """linear -> gradient reversal -> linear -> CE.

    side="down": analytic head grads against FD of L (reversal is invisible
    downstream). side="up": analytic upstream grads against FD of -lambda*L,
    which is the function those gradients are the derivative of.
    """

    def __init__(self, dtype, side="down", lam=0.7, seed=0):
        rng = np.random.default_rng(seed)
        self.side = side
        self.lam = lam
        self.up = nn.Linear(4, 4, rng, dtype=dtype)
        self.grl = nn.GradReverse()
        self.head = nn.Linear(4, 3, rng, dtype=dtype)
        self.inputs = {"x": rng.normal(size=(3, 4)).astype(dtype)}
        self.targets = np.array([0, 2, 1])

    def params(self):
        layer = self.head if self.side == "down" else self.up
        prefix = "head" if self.side == "down" else "up"
        return {f"{prefix}.{k}": p for k, p in layer.params().items()}

    def run(self):
        zero_grad(self.up, self.head)
        z = self.grl.forward(self.up.forward(self.inputs["x"], True), lam=self.lam)
        losses, grads = nn.softmax_cross_entropy(self.head.forward(z, True), self.targets)
        self.up.backward(self.grl.backward(self.head.backward(grads / len(self.targets))))
        loss = float(losses.mean())
        if self.side == "up":
            loss = -self.lam * loss
        return loss, {n: p.grad for n, p in self.params().items()}


def _model_and_batch(dtype, seed):
    # All five classes and both speakers appear, so every head's loss and
    # the masked disfluent average get real gradient flow.
    arch = grad_arch()
    model = build_model(arch, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=(6, arch.n_mfcc, 12)).astype(dtype)
    y = np.array([0, 1, 2, 3, 4, 0])
    ys = np.array([0, 1, 0, 1, 0, 1])
    return model, x, y, ys


# The full-model objectives are checked at this overall scale. The relative
# error formula floors its denominator at the absolute value 1e-8, so the
# floor's meaning depends on the loss scale: central differences on a loss L
# carry quantization noise of about eps*|L|/(2*step), ~1e-11 for |L|~1, and a
# bias whose exact gradient is zero (train-mode batch norm removes any
# uniform per-channel shift, so a bias feeding a later norm through an
# everywhere-active relu contributes nothing) would be charged that noise
# against the floor and fail at 1e-3 no matter how correct the backward
# pass is. Scaling the objective to ~1e-4 drops the noise to ~1e-15 so the
# floor absorbs these architectural zeros, while a wrong formula on any
# element with unscaled gradient above ~1e-7 still overshoots tolerance.
# The float32 analytic side of such a zero is batch norm backward's rounding,
# up to about u * sum|dx| (~1e-11 at this scale for encoder.l5.tdnn.bias), so
# the floor holds it only with the gradient sums accumulated in float64.
MODEL_LOSS_SCALE = 1e-4


class FullModelMtlCase(Case):
    """All three heads through the multi-task composition, every param checked.

    The architecture uses dropout 0 so the train-mode forward is
    deterministic; batch norm runs in train mode as the criterion asks.
    """

    def __init__(self, dtype, lam=0.3, seed=0):
        self.lam = lam
        self.model, x, self.y, self.ys = _model_and_batch(dtype, seed)
        self.inputs = {"x": x}
        self.parts = frozenset({"encoder", "fluent", "disfluent", "speaker"})

    def params(self):
        return self.model.named_params()

    def run(self):
        lam, c = self.lam, MODEL_LOSS_SCALE
        _, lf, ld, ls = self.model.forward(self.inputs["x"], train=self.parts)
        losses = compute_losses(lf, ld, ls, self.y, self.ys)
        scalar = c * ((1.0 - lam) * (losses.l_fluent + losses.l_disfluent) + lam * losses.l_speaker)
        self.model.backward(
            dlf=c * (1.0 - lam) * losses.dlf,
            dld=c * (1.0 - lam) * losses.dld,
            dls=c * lam * losses.dls,
        )
        return scalar, {n: p.grad for n, p in self.params().items()}


class FullModelAdvCase(Case):
    """Adversarial composition via the reversal layer.

    part="main": encoder + stutter heads against FD of lf + ld - lambda*ls
    (what the reversal realizes for everything upstream of the speaker head).
    part="speaker": speaker head against FD of ls alone; the head sits
    downstream of the reversal and descends its own loss.
    """

    def __init__(self, dtype, part="main", lam=0.4, seed=0):
        self.lam = lam
        self.part = part
        self.model, x, self.y, self.ys = _model_and_batch(dtype, seed)
        self.inputs = {"x": x}
        self.parts = frozenset({"encoder", "fluent", "disfluent", "speaker"})

    def params(self):
        named = self.model.named_params()
        if self.part == "speaker":
            return {n: p for n, p in named.items() if n.startswith("speaker.")}
        return {n: p for n, p in named.items() if not n.startswith("speaker.")}

    def arrays(self):
        out = {n: p.value for n, p in self.model.named_params().items()}
        out.update(self.inputs)
        return out

    def run(self):
        c = MODEL_LOSS_SCALE
        _, lf, ld, ls = self.model.forward(
            self.inputs["x"], train=self.parts, grl_lambda=self.lam
        )
        losses = compute_losses(lf, ld, ls, self.y, self.ys)
        self.model.backward(dlf=c * losses.dlf, dld=c * losses.dld, dls=c * losses.dls)
        if self.part == "speaker":
            scalar = c * losses.l_speaker
        else:
            scalar = c * (losses.l_fluent + losses.l_disfluent - self.lam * losses.l_speaker)
        return scalar, {n: p.grad for n, p in self.params().items()}


LAYER_CASES = [
    ("tdnn_context_pm2", TdnnCase, {"offsets": (-2, -1, 0, 1, 2)}),
    ("tdnn_context_d2", TdnnCase, {"offsets": (-2, 0, 2)}),
    ("tdnn_context_d3", TdnnCase, {"offsets": (-3, 0, 3)}),
    ("linear_relu_chain", LinearReluChainCase, {}),
    ("linear_relu_chain_in_place", LinearReluChainCase, {"in_place": True}),
    ("batchnorm_flat", BatchNormCase, {"temporal": False}),
    ("batchnorm_temporal", BatchNormCase, {"temporal": True}),
    ("batchnorm_flat_in_place", BatchNormCase, {"temporal": False, "in_place": True}),
    ("batchnorm_temporal_in_place", BatchNormCase, {"temporal": True, "in_place": True}),
    ("statpool_chain", StatPoolCase, {}),
    ("softmax_ce", SoftmaxCECase, {}),
    ("grl_downstream", GrlCase, {"side": "down"}),
    ("grl_upstream", GrlCase, {"side": "up"}),
]

MODEL_CASES = [
    ("full_model_mtl", FullModelMtlCase, {}),
    ("full_model_adv_main", FullModelAdvCase, {"part": "main"}),
    ("full_model_adv_speaker", FullModelAdvCase, {"part": "speaker"}),
]


def run_battery():
    """Every case in both precisions; returns {check_name: GradCheckReport}."""
    reports = {}
    for name, cls, kw in LAYER_CASES + MODEL_CASES:
        reports[f"{name}.f64"] = native_f64_report(cls, **kw)
        reports[f"{name}.f32"] = paired_f32_report(cls, **kw)
    return reports
