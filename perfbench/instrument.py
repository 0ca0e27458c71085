"""Where the traced run wraps stutterkit, and the per-module metrics it derives.

Span names follow `<module>.<function>`; TDNN spans are `nn.tdnn.l1`..`l5`
in the model's block order. Every wrapper sits at the lookup site the
program uses (see spans.py), and nothing under src/ changes.
"""

from __future__ import annotations

import statistics

from spans import Tracer, median_ms
from stutterkit import cli, data, nn, training

MODEL_METHODS = ("forward", "backward", "encode", "named_params", "snapshot")
ADV_STAGES = ("speaker_only", "stutter_only", "joint_grl", "recovery")
OBJECTIVES = ("baseline", "mtl", "adv")

_MS, _S, _COUNT = ("ms", "lower"), ("s", "lower"), ("count", "lower")
_RATE, _SHARE = ("clips/s", "higher"), ("fraction", "higher")

# Every per-module metric: name -> (unit, better). layer_metrics returns
# exactly these keys, in this order.
PER_LAYER = {
    "features.read_wav_ms": _MS,
    "features.extract_ms": _MS,
    "features.write_fmat_ms": _MS,
    "features.clips_per_s": _RATE,
    "data.load_manifest_ms": _MS,
    "data.read_fmat_ms": _MS,
    "data.generate_synthetic_s": _S,
    "checkpoint.save_ms": _MS,
    "checkpoint.load_ms": _MS,
    "checkpoint.bytes": ("bytes", "lower"),
    **{f"nn.tdnn.l{i}.{d}_ms": _MS for i in range(1, 6) for d in ("fwd", "bwd")},
    "nn.tdnn.fwd_gflop": ("GFLOP", "lower"),
    "nn.tdnn.bwd_gflop": ("GFLOP", "lower"),
    "nn.tdnn.bwd_gflops": ("GFLOP/s", "higher"),
    **{f"nn.{layer}.{d}_ms": _MS for layer in ("batchnorm", "statpool", "linear")
       for d in ("fwd", "bwd")},
    "nn.adam.step_ms": _MS,
    "model.forward_self_ms": _MS,
    "model.backward_self_ms": _MS,
    "model.named_params_ms": _MS,
    "model.snapshot_ms": _MS,
    "model.snapshots": _COUNT,
    "model.encode_ms": _MS,
    "training.make_batch_ms": _MS,
    "training.compute_losses_ms": _MS,
    "training.steps": _COUNT,
    "training.epoch_eval_s": _S,
    "training.eval_share": ("fraction", "lower"),
    "training.eval_forward_clips": _COUNT,
    "training.eval_useful_ratio": _SHARE,
    **{f"training.{obj}.clips_per_s": _RATE for obj in OBJECTIVES},
    **{f"training.stage.{stage}.epoch_s": _S for stage in ADV_STAGES},
    "training.valid_acc": _SHARE,
    "training.valid_stutter_loss": ("nats", "lower"),
    "evaluate.evaluate_model_s": _S,
    "evaluate.export_embeddings_s": _S,
    "evaluate.export_self_s": _S,
    "evaluate.forward_clips": _COUNT,
    "evaluate.useful_forward_ratio": _SHARE,
    "evaluate.frame_coverage": _SHARE,
    "evaluate.batch_variant_clips": _COUNT,
    **{f"evaluate.{obj}.valid_acc": _SHARE for obj in OBJECTIVES},
    **{f"evaluate.{obj}.probe_acc": ("fraction", "lower") for obj in OBJECTIVES},
    "cli.features_self_s": _S,
    "cli.eval_self_s": _S,
    "trace.clips_per_s_ratio": ("ratio", "higher"),
    "trace.eval_clips_per_s_ratio": ("ratio", "higher"),
}


def _tdnn_fwd_attrs(layer):
    k = len(layer.offsets)

    def after(out, args, kwargs):
        b, c_out, t_out = out.shape
        return {"flop": 2 * b * c_out * t_out * layer.in_channels * k}

    return after


def _tdnn_bwd_attrs(layer):
    k = len(layer.offsets)

    def after(dx, args, kwargs):
        b, c_out, t_out = args[0].shape
        # dW and dX are each one fwd-sized contraction
        return {"flop": 4 * b * c_out * t_out * layer.in_channels * k}

    return after


def _batch_attrs(result, args, kwargs):
    records = kwargs["records"] if "records" in kwargs else args[0]
    indices = kwargs["indices"] if "indices" in kwargs else args[1]
    x = result[0]
    return {
        "clips": int(x.shape[0]),
        "frames": int(x.shape[0] * x.shape[2]),
        "clip_frames": int(sum(records[i].features.shape[1] for i in indices)),
    }


def instrument_model(tracer: Tracer, model):
    """Wrap every layer of one model instance, and the model's own methods."""
    for i, block in enumerate(model.encoder_blocks, start=1):
        tracer.patch(block.tdnn, "forward", f"nn.tdnn.l{i}.fwd", _tdnn_fwd_attrs(block.tdnn))
        tracer.patch(block.tdnn, "backward", f"nn.tdnn.l{i}.bwd", _tdnn_bwd_attrs(block.tdnn))
        tracer.patch(block.bn, "forward", "nn.batchnorm.fwd")
        tracer.patch(block.bn, "backward", "nn.batchnorm.bwd")
    tracer.patch(model.pool, "forward", "nn.statpool.fwd")
    tracer.patch(model.pool, "backward", "nn.statpool.bwd")
    for head in model.heads.values():
        for layer in head.fcs + [head.out]:
            tracer.patch(layer, "forward", "nn.linear.fwd")
            tracer.patch(layer, "backward", "nn.linear.bwd")
        for bn in head.bns:
            tracer.patch(bn, "forward", "nn.batchnorm.fwd")
            tracer.patch(bn, "backward", "nn.batchnorm.bwd")
    for method in MODEL_METHODS:
        tracer.patch(model, method, f"model.{method}")
    return model


def instrument_modules(tracer: Tracer):
    """Wrap module-level lookups; models that cli loads get wrapped as well."""
    tracer.patch(cli, "read_wav", "features.read_wav")
    tracer.patch(cli, "extract_features", "features.extract")
    tracer.patch(cli, "write_fmat", "features.write_fmat")
    tracer.patch(cli, "load_manifest", "data.load_manifest")
    tracer.patch(cli, "evaluate_model", "evaluate.evaluate_model")
    tracer.patch(cli, "export_embeddings", "evaluate.export_embeddings")
    tracer.patch(data, "read_fmat", "data.read_fmat")
    tracer.patch(nn.Adam, "step", "nn.adam.step")
    # evaluate.py imports make_batch from training at call time, so this
    # one patch covers the training loop and both eval paths.
    tracer.patch(training, "make_batch", "training.make_batch", _batch_attrs)
    tracer.patch(training, "compute_losses", "training.compute_losses")
    tracer.patch(training, "dataset_stutter_loss", "training.dataset_stutter_loss")
    tracer.patch(training, "dataset_accuracy", "training.dataset_accuracy")

    # cli builds its model inside load_checkpoint; wrap that model on return.
    tracer.patch(cli, "load_checkpoint", "checkpoint.load",
                 lambda result, args, kwargs: instrument_model(tracer, result[0]) and None)


def _sum_attr(tracer, ids, key):
    return sum(tracer.attrs[i][key] for i in ids if tracer.attrs[i])


def _under(tracer, ids, names):
    return [i for i in ids if tracer.ancestor(i, names) >= 0]


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, ctx: dict) -> dict:
    """Per-module metrics of one traced run.

    ctx carries what the spans cannot know: `units` (timed units traced),
    `epochs` (list of (stage, seconds) per traced epoch), `valid_clips`,
    `checkpoint_bytes`, the untraced reference rates and the quality table.
    A layer the workload never calls reads 0.
    """
    names = tracer.by_name()
    dur = tracer.durations()
    own = tracer.self_times()
    units = max(ctx["units"], 1)
    m = {}

    def ms(name):
        return median_ms(tracer, names.get(name, []))

    def s(name):
        return ms(name) / 1000.0

    # Step roots: forward/backward calls made by train() itself, else the
    # eval forwards (direct encode calls count as forwards there).
    def parent_name(i):
        return tracer.names[tracer.parents[i]] if tracer.parents[i] >= 0 else ""

    fwd_all = names.get("model.forward", [])
    fwd_steps = [i for i in fwd_all if parent_name(i) == "training.train"]
    direct_encode = [i for i in names.get("model.encode", []) if parent_name(i) != "model.forward"]
    fwd_roots = fwd_steps or fwd_all + direct_encode
    bwd_roots = names.get("model.backward", [])
    fwd_set, bwd_set = set(fwd_roots), set(bwd_roots)
    roots = fwd_set | bwd_set

    def per_root(spans, root_set, value):
        """value(i) summed over the calls of `spans` beneath each root."""
        sums = dict.fromkeys(root_set, 0.0)
        for span in spans:
            for i in names.get(span, []):
                p = tracer.parents[i]
                while p >= 0 and p not in roots:
                    p = tracer.parents[p]
                if p in sums:
                    sums[p] += value(i)
        return list(sums.values())

    def flop(i):
        return tracer.attrs[i]["flop"]

    m["features.read_wav_ms"] = ms("features.read_wav")
    m["features.extract_ms"] = ms("features.extract")
    m["features.write_fmat_ms"] = ms("features.write_fmat")
    m["features.clips_per_s"] = ctx.get("features_clips_per_s", 0.0)
    m["data.load_manifest_ms"] = ms("data.load_manifest")
    m["data.read_fmat_ms"] = ms("data.read_fmat")
    m["data.generate_synthetic_s"] = s("data.generate_synthetic")
    m["checkpoint.save_ms"] = ms("checkpoint.save")
    m["checkpoint.load_ms"] = ms("checkpoint.load")
    m["checkpoint.bytes"] = ctx["checkpoint_bytes"]

    for layer in range(1, 6):
        m[f"nn.tdnn.l{layer}.fwd_ms"] = ms(f"nn.tdnn.l{layer}.fwd")
        m[f"nn.tdnn.l{layer}.bwd_ms"] = ms(f"nn.tdnn.l{layer}.bwd")
    tdnn_fwd = [f"nn.tdnn.l{layer}.fwd" for layer in range(1, 6)]
    tdnn_bwd = [f"nn.tdnn.l{layer}.bwd" for layer in range(1, 6)]
    m["nn.tdnn.fwd_gflop"] = _median(per_root(tdnn_fwd, fwd_set, flop)) / 1e9
    m["nn.tdnn.bwd_gflop"] = _median(per_root(tdnn_bwd, bwd_set, flop)) / 1e9
    bwd_calls = [i for span in tdnn_bwd for i in names.get(span, [])]
    bwd_time = sum(dur[i] for i in bwd_calls)
    m["nn.tdnn.bwd_gflops"] = (
        sum(flop(i) for i in bwd_calls) / 1e9 / bwd_time if bwd_time else 0.0)
    for layer in ("batchnorm", "statpool", "linear"):
        m[f"nn.{layer}.fwd_ms"] = 1000.0 * _median(
            per_root([f"nn.{layer}.fwd"], fwd_set, dur.__getitem__))
        m[f"nn.{layer}.bwd_ms"] = 1000.0 * _median(
            per_root([f"nn.{layer}.bwd"], bwd_set, dur.__getitem__))
    m["nn.adam.step_ms"] = ms("nn.adam.step")

    # Glue: a forward's own time plus that of the encode call inside it.
    fwd_self = {r: own[r] for r in fwd_roots}
    for i in names.get("model.encode", []):
        if tracer.parents[i] in fwd_self:
            fwd_self[tracer.parents[i]] += own[i]
    m["model.forward_self_ms"] = 1000.0 * _median(list(fwd_self.values()))
    m["model.backward_self_ms"] = median_ms(tracer, bwd_roots, own)
    m["model.named_params_ms"] = ms("model.named_params")
    m["model.snapshot_ms"] = ms("model.snapshot")
    m["model.snapshots"] = len(_under(tracer, names.get("model.snapshot", []),
                                      {"training.train"})) / units
    m["model.encode_ms"] = median_ms(tracer, direct_encode)

    batches = names.get("training.make_batch", [])
    trains = names.get("training.train", [])
    evals = names.get("training.dataset_stutter_loss", []) + names.get(
        "training.dataset_accuracy", [])
    epochs = ctx["epochs"]
    eval_time = sum(dur[i] for i in evals)
    eval_clips = _sum_attr(tracer, _under(tracer, batches, {
        "training.dataset_stutter_loss", "training.dataset_accuracy"}), "clips")
    m["training.make_batch_ms"] = ms("training.make_batch")
    m["training.compute_losses_ms"] = ms("training.compute_losses")
    m["training.steps"] = len(_under(tracer, bwd_roots, {"training.train"})) / units
    m["training.epoch_eval_s"] = eval_time / len(epochs) if epochs else 0.0
    # The stopwatch's kernel runs in train()'s epoch callback; it is not train()'s.
    train_time = sum(dur[i] for i in trains) - ctx["train_callback_s"]
    m["training.eval_share"] = eval_time / train_time if train_time else 0.0
    m["training.eval_forward_clips"] = eval_clips / len(epochs) if epochs else 0.0
    m["training.eval_useful_ratio"] = (
        ctx["valid_clips"] / m["training.eval_forward_clips"]
        if m["training.eval_forward_clips"] else 0.0
    )
    for obj in OBJECTIVES:
        m[f"training.{obj}.clips_per_s"] = ctx.get("objective_clips_per_s", {}).get(obj, 0.0)
    for stage in ADV_STAGES:
        m[f"training.stage.{stage}.epoch_s"] = _median(
            [sec for st, sec in epochs if st == stage])
    m["training.valid_acc"] = ctx.get("valid_acc", 0.0)
    m["training.valid_stutter_loss"] = ctx.get("valid_stutter_loss", 0.0)

    ev_names = {"evaluate.evaluate_model", "evaluate.export_embeddings"}
    ev_batches = _under(tracer, batches, ev_names)
    passes = len(names.get("evaluate.evaluate_model", []))
    useful = _sum_attr(tracer, _under(tracer, batches, {"evaluate.evaluate_model"}), "clips")
    forwarded = _sum_attr(tracer, ev_batches, "clips")
    m["evaluate.evaluate_model_s"] = s("evaluate.evaluate_model")
    m["evaluate.export_embeddings_s"] = s("evaluate.export_embeddings")
    m["evaluate.export_self_s"] = median_ms(
        tracer, names.get("evaluate.export_embeddings", []), own) / 1000.0
    m["evaluate.forward_clips"] = forwarded / passes if passes else 0.0
    m["evaluate.useful_forward_ratio"] = useful / forwarded if forwarded else 0.0
    clip_frames = _sum_attr(tracer, ev_batches, "clip_frames")
    m["evaluate.frame_coverage"] = (
        _sum_attr(tracer, ev_batches, "frames") / clip_frames if clip_frames else 0.0
    )
    m["evaluate.batch_variant_clips"] = ctx.get("batch_variant_clips", 0)
    quality = ctx.get("quality", {})
    for obj in OBJECTIVES:
        q = quality.get(obj, {})
        m[f"evaluate.{obj}.valid_acc"] = q.get("valid_acc", 0.0)
        m[f"evaluate.{obj}.probe_acc"] = q.get("probe_acc", 0.0)

    for sub in ("features", "eval"):
        m[f"cli.{sub}_self_s"] = median_ms(tracer, names.get(f"cli.{sub}", []), own) / 1000.0
    m["trace.clips_per_s_ratio"] = ctx["traced_clips_per_s"] / ctx["clips_per_s"]
    m["trace.eval_clips_per_s_ratio"] = ctx["traced_eval_clips_per_s"] / ctx["eval_clips_per_s"]
    return {k: m[k] for k in PER_LAYER}
