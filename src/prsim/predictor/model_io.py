"""Versioned npz serialization of trained networks.

The archive is self describing: a JSON header records the format tag,
version, layer specs and dimensions, and each parameter array is stored
under its stable name from RecurrentNet.parameter_items().  Loading
rebuilds the network from the header and overwrites the fresh
parameters with the stored arrays, so a round trip is bit exact.

The header also records the feature layout the network was fit on,
net.layout: tapped-delay length tau, prediction horizon, feature kind,
scale and the number of links.  The weights mean nothing under any
other layout, so the field is required; archives of an earlier version
lack part of it and are refused.
"""

import json
import zipfile

import numpy as np

from .layers import LayerSpec
from .network import RecurrentNet

_FORMAT = "prsim-net"
_VERSION = 3
LAYOUT_KEYS = ("tau", "horizon", "features", "scale", "links")


def save_model(net, path):
    """Write net with its feature layout, a dict over LAYOUT_KEYS."""
    header = {
        "format": _FORMAT,
        "version": _VERSION,
        "input_dim": net.input_dim,
        "output_dim": net.output_dim,
        "seed": net.seed,
        "layers": [{"kind": s.kind, "size": s.size} for s in net.specs],
        "layout": {key: net.layout[key] for key in LAYOUT_KEYS},
    }
    arrays = {name.replace("/", "__"): arr for name, arr in net.parameter_items()}
    with open(path, "wb") as fh:  # np.savez would add .npz to a str path
        np.savez(fh, __meta__=np.array(json.dumps(header)), **arrays)


def load_model(path):
    """The net, layout included, of an archive written by save_model.

    Anything else raises ValueError, a truncated or corrupted archive
    included; a missing file raises OSError.
    """
    try:
        # np.load leaves a path it opened open when the zip is damaged
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            return _read(data)
    except (EOFError, KeyError, zipfile.BadZipFile) as err:
        raise ValueError(f"damaged model archive {str(path)!r}: {err}") from err


def _read(data):
    if "__meta__" not in data:
        raise ValueError("not a model archive: missing header")
    header = json.loads(str(data["__meta__"]))
    if header.get("format") != _FORMAT:
        raise ValueError(f"unexpected archive format {header.get('format')!r}")
    if header.get("version") != _VERSION:
        raise ValueError(
            f"unsupported model version {header.get('version')!r} "
            "(rerun prsim train to refit the model)")
    layout = header.get("layout")
    if not isinstance(layout, dict) or set(layout) != set(LAYOUT_KEYS):
        raise ValueError("model header lacks its feature layout")
    specs = tuple(LayerSpec(d["kind"], int(d["size"])) for d in header["layers"])
    net = RecurrentNet(int(header["input_dim"]), specs,
                       int(header["output_dim"]),
                       seed=int(header.get("seed", 0)), layout=layout)
    for name, arr in net.parameter_items():
        stored = data[name.replace("/", "__")]
        if stored.shape != arr.shape:
            raise ValueError(f"shape mismatch for {name}")
        arr[...] = stored
    return net
