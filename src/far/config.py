"""Line-oriented run configuration: ``key = value`` pairs under
``[section]`` headers. Unknown sections or keys, and a key set twice in
one section, are errors. Each key's ``SCHEMA`` row says all that it
accepts: its type, its default and its least value or the only values it
may take; a float key takes only finite values.
"""

import math
from dataclasses import fields

from .pruner import MODES
from .tensor import DTYPES
from .vit import ModelConfig

# section -> key -> (type, default, accepted); ``accepted`` is the least
# value of a number key (0 epochs train nothing), the tuple of values a
# string key may take, or None where another owner checks the value:
# ``ModelConfig`` the ``[model]`` sizes, ``data.synth_dataset`` ``[data] n``.
SCHEMA = {
    "model": {f.name: (f.type, f.default,
                       tuple(DTYPES) if f.name == "precision" else None)
              for f in fields(ModelConfig)},
    "train": {
        "seed": (int, 0, 0), "batch_size": (int, 32, 1),
        "teacher_epochs": (int, 60, 0), "teacher_lr": (float, 1e-3, 0.0),
        "weight_decay": (float, 0.05, 0.0), "warmup_epochs": (int, 2, 0),
        "warmup_lr": (float, 1e-5, 0.0),
    },
    "distill": {
        "lam": (float, 1.0, 0.0), "lr": (float, 5e-4, 0.0),
        "epochs": (int, 50, 0), "finetune_lr": (float, 5e-5, 0.0),
        "finetune_epochs": (int, 20, 0),
    },
    "prune": {
        "reg_coeff": (float, 1e-4, 0.0), "threshold": (float, 1e-4, 0.0),
        "threshold_mode": (str, "absolute", MODES),
        "reg_epochs": (int, 20, 0), "reg_lr": (float, 5e-5, 0.0),
        "reg_weight_decay": (float, 0.0, 0.0),
        "finetune_epochs": (int, 20, 0), "finetune_lr": (float, 5e-5, 0.0),
    },
    "bench": {"runs": (int, 100, 1), "warmups": (int, 30, 0)},
    "data": {"n": (int, 200, None), "noise": (float, 0.25, 0.0)},
}


class ConfigError(ValueError):
    """Malformed run configuration."""


def coerce(section, key, raw):
    """Text ``raw`` as the value of ``[section] key``, as its ``SCHEMA`` row
    accepts it: one of its listed values, or of its type, finite and no
    less than its least value; else a ConfigError that names the key."""
    label = f"[{section}] {key}"
    typ, _, accepted = SCHEMA[section][key]
    if isinstance(accepted, tuple):
        if raw not in accepted:
            raise ConfigError(f"{label}: expected one of "
                              f"{', '.join(accepted)}, got {raw!r}")
        return raw
    try:
        value = typ(raw)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"{label}: expected a finite number, got {raw!r}")
    if accepted is not None and value < accepted:
        raise ConfigError(f"{label}: expected at least {accepted}, "
                          f"got {raw!r}")
    return value


def default_config():
    return {sec: {k: dv for k, (_, dv, _) in keys.items()}
            for sec, keys in SCHEMA.items()}


def parse_config(text):
    """Parse config text; a fault the module names is a ConfigError."""
    cfg = default_config()
    section, seen = None, set()
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, raw = (s.strip() for s in stripped.split("=", 1))
        if key not in SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if (section, key) in seen:
            raise ConfigError(f"line {lineno}: key {key!r} in [{section}] "
                              f"is already set")
        seen.add((section, key))
        cfg[section][key] = coerce(section, key, raw)
    return cfg


def load_config(path):
    """The config file ``path`` (the defaults when it is None), read as
    UTF-8; a file that is not UTF-8, or a fault ``parse_config`` finds, is
    a ConfigError naming it."""
    if path is None:
        return default_config()
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at "
                              f"byte {exc.start}") from exc
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def model_config(cfg):
    return ModelConfig(**cfg["model"])
