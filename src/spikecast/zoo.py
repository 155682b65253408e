"""Manifest builders for standard architectures and small test nets."""

import json


def toy_manifest(classes=4, l_first=4, l_second=2, theta=1.0):
    """conv -> act -> pool -> conv -> act -> fc, handy for demos and tests."""
    doc = {
        "name": "toy",
        "classes": classes,
        "layers": [
            {"id": "in", "kind": "input", "pred": [], "shape": [2, 8, 8]},
            {"id": "conv1", "kind": "conv", "pred": ["in"], "out_channels": 6,
             "kernel": 3, "stride": 1, "padding": 1, "bias": True, "batch_norm": True},
            {"id": "act1", "kind": "qcfs_act", "pred": ["conv1"], "L": l_first,
             "theta": theta},
            {"id": "pool1", "kind": "avg_pool", "pred": ["act1"], "window": 2},
            {"id": "conv2", "kind": "conv", "pred": ["pool1"], "out_channels": 5,
             "kernel": 3, "stride": 1, "padding": 1, "bias": True},
            {"id": "act2", "kind": "qcfs_act", "pred": ["conv2"], "L": l_second,
             "theta": 0.7},
            {"id": "head", "kind": "fc", "pred": ["act2"], "out_features": classes,
             "bias": True},
        ],
    }
    return json.dumps(doc)


def vgg16_manifest(classes=10, steps=4, theta=1.0):
    """VGG-16 for 32x32 inputs: 13 convs, 5 average pools, 3 fc layers.

    Every matmul except the head is followed by an activation (15 total);
    steps is a uniform quantization step or a 15-entry layerwise vector.
    """
    conv_plan = [
        (64, 64), (128, 128), (256, 256, 256), (512, 512, 512), (512, 512, 512),
    ]
    if isinstance(steps, int):
        steps = [steps] * 15
    if len(steps) != 15:
        raise ValueError(f"need 15 layerwise steps, got {len(steps)}")
    step_iter = iter(steps)
    layers = [{"id": "in", "kind": "input", "pred": [], "shape": [3, 32, 32]}]
    prev = "in"
    idx = 0
    for stage, widths in enumerate(conv_plan, start=1):
        for j, width in enumerate(widths, start=1):
            idx += 1
            cid, aid = f"conv{stage}_{j}", f"act{stage}_{j}"
            layers.append({"id": cid, "kind": "conv", "pred": [prev],
                           "out_channels": width, "kernel": 3, "stride": 1,
                           "padding": 1, "bias": False, "batch_norm": True})
            layers.append({"id": aid, "kind": "qcfs_act", "pred": [cid],
                           "L": next(step_iter), "theta": theta})
            prev = aid
        layers.append({"id": f"pool{stage}", "kind": "avg_pool", "pred": [prev],
                       "window": 2})
        prev = f"pool{stage}"
    for j, width in enumerate((4096, 4096), start=1):
        fid, aid = f"fc{j}", f"act_fc{j}"
        layers.append({"id": fid, "kind": "fc", "pred": [prev],
                       "out_features": width, "bias": True})
        layers.append({"id": aid, "kind": "qcfs_act", "pred": [fid],
                       "L": next(step_iter), "theta": theta})
        prev = aid
    layers.append({"id": "fc3", "kind": "fc", "pred": [prev],
                   "out_features": classes, "bias": True})
    return json.dumps({"name": f"vgg16-cifar{classes}", "classes": classes,
                       "layers": layers})


def residual_block_manifest(classes=3, l_main=4, theta=1.0):
    """A small net with one residual merge (both branches at the same step)."""
    doc = {
        "name": "residual-toy",
        "classes": classes,
        "layers": [
            {"id": "in", "kind": "input", "pred": [], "shape": [3, 8, 8]},
            {"id": "stem", "kind": "conv", "pred": ["in"], "out_channels": 4,
             "kernel": 3, "stride": 1, "padding": 1, "bias": True},
            {"id": "act0", "kind": "qcfs_act", "pred": ["stem"], "L": l_main,
             "theta": theta},
            {"id": "branch", "kind": "conv", "pred": ["act0"], "out_channels": 4,
             "kernel": 3, "stride": 1, "padding": 1, "bias": True, "batch_norm": True},
            {"id": "act1", "kind": "qcfs_act", "pred": ["branch"], "L": l_main,
             "theta": theta},
            {"id": "merge", "kind": "residual_add", "pred": ["act0", "act1"]},
            {"id": "act2", "kind": "qcfs_act", "pred": ["merge"], "L": l_main,
             "theta": theta},
            {"id": "head", "kind": "fc", "pred": ["act2"], "out_features": classes,
             "bias": True},
        ],
    }
    return json.dumps(doc)
