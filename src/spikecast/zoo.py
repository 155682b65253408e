"""Manifest builders for standard architectures and small test nets."""

import json


def toy_manifest():
    """conv -> act -> pool -> conv -> act -> fc, handy for demos and tests."""
    doc = {
        "name": "toy",
        "classes": 4,
        "layers": [
            {"id": "in", "kind": "input", "pred": [], "shape": [2, 8, 8]},
            {"id": "conv1", "kind": "conv", "pred": ["in"], "out_channels": 6,
             "kernel": 3, "stride": 1, "padding": 1, "bias": True, "batch_norm": True},
            {"id": "act1", "kind": "qcfs_act", "pred": ["conv1"], "L": 4, "theta": 1.0},
            {"id": "pool1", "kind": "avg_pool", "pred": ["act1"], "window": 2},
            {"id": "conv2", "kind": "conv", "pred": ["pool1"], "out_channels": 5,
             "kernel": 3, "stride": 1, "padding": 1, "bias": True},
            {"id": "act2", "kind": "qcfs_act", "pred": ["conv2"], "L": 2, "theta": 0.7},
            {"id": "head", "kind": "fc", "pred": ["act2"], "out_features": 4, "bias": True},
        ],
    }
    return json.dumps(doc)


def vgg16_manifest(classes=10, steps=4, input_size=32):
    """VGG-16: 13 convs, 5 average pools, 3 fc layers.

    Every matmul except the head is followed by an activation (15 total);
    steps is a uniform quantization step or a 15-entry layerwise vector.
    input_size is the square image side: 32 for CIFAR, 224 for ImageNet.
    """
    conv_plan = [
        (64, 64), (128, 128), (256, 256, 256), (512, 512, 512), (512, 512, 512),
    ]
    if isinstance(steps, int):
        steps = [steps] * 15
    if len(steps) != 15:
        raise ValueError(f"need 15 layerwise steps, got {len(steps)}")
    step_iter = iter(steps)
    layers = [{"id": "in", "kind": "input", "pred": [],
               "shape": [3, input_size, input_size]}]
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
                           "L": next(step_iter), "theta": 1.0})
            prev = aid
        layers.append({"id": f"pool{stage}", "kind": "avg_pool", "pred": [prev],
                       "window": 2})
        prev = f"pool{stage}"
    for j, width in enumerate((4096, 4096), start=1):
        fid, aid = f"fc{j}", f"act_fc{j}"
        layers.append({"id": fid, "kind": "fc", "pred": [prev],
                       "out_features": width, "bias": True})
        layers.append({"id": aid, "kind": "qcfs_act", "pred": [fid],
                       "L": next(step_iter), "theta": 1.0})
        prev = aid
    layers.append({"id": "fc3", "kind": "fc", "pred": [prev],
                   "out_features": classes, "bias": True})
    name = f"vgg16-cifar{classes}" if input_size == 32 else f"vgg16-{input_size}px{classes}"
    return json.dumps({"name": name, "classes": classes, "layers": layers})


def resnet_manifest(blocks=(2, 2, 2, 2), widths=(64, 128, 256, 512), input_size=32,
                    classes=10, imagenet_stem=False, steps=4):
    """ResNet of basic blocks; the defaults give ResNet-18 for CIFAR-10.

    Stage s holds blocks[s] blocks of width widths[s], and every stage after
    the first halves the image side in its first block. A block is
    conv3x3 -> act -> conv3x3, added to its shortcut ahead of the block's
    activation; the shortcut is a 1x1 projection conv where the width
    changes and the block input otherwise. The CIFAR stem is one 3x3 conv
    at the input size; the ImageNet stem (imagenet_stem=True, with
    blocks=(3, 4, 6, 3) and input_size=224 for ResNet-34) is a 7x7 conv at
    half the input size, then a halving in place of the max pool. A global
    average pool feeds the fc head. steps is one uniform quantization step.
    A residual_add lists the main branch (conv2) first and the shortcut
    second, which energy.dims_from_graph reads to pair conv2, not the
    projection, with the block's activation.

    Conv tiling must be exact, so every halving is a window-2 avg_pool ahead
    of a stride-1 conv rather than a stride-2 conv. Each conv keeps its
    C_in, C_out, kernel and output size, and so its operation count.
    """
    layers = [{"id": "in", "kind": "input", "pred": [],
               "shape": [3, input_size, input_size]}]

    def add(entry):
        layers.append(entry)
        return entry["id"]

    def conv(lid, pred, width, kernel):
        return add({"id": lid, "kind": "conv", "pred": [pred], "out_channels": width,
                    "kernel": kernel, "stride": 1, "padding": kernel // 2,
                    "bias": False, "batch_norm": True})

    def act(lid, pred):
        return add({"id": lid, "kind": "qcfs_act", "pred": [pred], "L": steps,
                    "theta": 1.0})

    def halve(lid, pred):
        return add({"id": lid, "kind": "avg_pool", "pred": [pred], "window": 2})

    prev = "in"
    if imagenet_stem:
        prev = halve("stem_pool", prev)
    prev = act("stem_act", conv("stem", prev, widths[0], 7 if imagenet_stem else 3))
    if imagenet_stem:
        prev = halve("stem_pool2", prev)
    side = input_size // 4 if imagenet_stem else input_size
    c_prev = widths[0]
    for s, (count, width) in enumerate(zip(blocks, widths), start=1):
        for b in range(1, count + 1):
            tag = f"s{s}b{b}"
            x = prev
            if s > 1 and b == 1:
                x = halve(f"{tag}_pool", x)
                side //= 2
            h = act(f"{tag}_act1", conv(f"{tag}_conv1", x, width, 3))
            h = conv(f"{tag}_conv2", h, width, 3)
            shortcut = conv(f"{tag}_proj", x, width, 1) if c_prev != width else x
            merged = add({"id": f"{tag}_add", "kind": "residual_add",
                          "pred": [h, shortcut]})
            prev = act(f"{tag}_act2", merged)
            c_prev = width
    prev = add({"id": "gap", "kind": "avg_pool", "pred": [prev], "window": side})
    add({"id": "fc", "kind": "fc", "pred": [prev], "out_features": classes,
         "bias": True})
    return json.dumps({"name": f"resnet{2 * sum(blocks) + 2}", "classes": classes,
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
