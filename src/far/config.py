"""Line-oriented run configuration: ``key = value`` pairs under
``[section]`` headers. Unknown sections or keys, and a key set twice in
one section, are errors; every key has a documented default, a float key
only finite values, a string key listed in ``CHOICES`` only the values
listed there, and a key listed in ``MINIMUM`` no smaller value.
"""

import math
from dataclasses import fields

from .pruner import MODES
from .tensor import DTYPES
from .vit import ModelConfig

# section -> key -> (type, default); ``[model]`` is ``ModelConfig``'s fields
SCHEMA = {
    "model": {f.name: (f.type, f.default) for f in fields(ModelConfig)},
    "train": {
        "seed": (int, 0), "batch_size": (int, 32),
        "teacher_epochs": (int, 60), "teacher_lr": (float, 1e-3),
        "weight_decay": (float, 0.05), "warmup_epochs": (int, 2),
        "warmup_lr": (float, 1e-5),
    },
    "distill": {
        "lam": (float, 1.0), "lr": (float, 5e-4), "epochs": (int, 50),
        "finetune_lr": (float, 5e-5), "finetune_epochs": (int, 20),
    },
    "prune": {
        "reg_coeff": (float, 1e-4), "threshold": (float, 1e-4),
        "threshold_mode": (str, "absolute"),
        "reg_epochs": (int, 20), "reg_lr": (float, 5e-5),
        "reg_weight_decay": (float, 0.0),
        "finetune_epochs": (int, 20), "finetune_lr": (float, 5e-5),
    },
    "bench": {
        "runs": (int, 100), "warmups": (int, 30),
    },
    "data": {
        "n": (int, 200), "noise": (float, 0.25),
    },
}


# (section, key) -> the only values a string key may take
CHOICES = {("model", "precision"): tuple(DTYPES),
           ("prune", "threshold_mode"): MODES}

# (section, key) -> the least value a numeric key may take, 0 for every
# epoch count, learning rate and weight decay (0 epochs train nothing).
# ``[model]`` sizes are checked by ``ModelConfig``.
MINIMUM = {("train", "seed"): 0, ("train", "batch_size"): 1,
           ("bench", "runs"): 1, ("bench", "warmups"): 0,
           ("data", "noise"): 0.0,
           ("prune", "threshold"): 0.0, ("prune", "reg_coeff"): 0.0,
           ("distill", "lam"): 0.0,
           **{(sec, key): typ(0) for sec, keys in SCHEMA.items()
              for key, (typ, _) in keys.items()
              if key.endswith(("epochs", "lr", "weight_decay"))}}


class ConfigError(ValueError):
    """Malformed run configuration."""


def coerce(section, key, raw):
    """Text ``raw`` as the value of ``[section] key``: of its type, a listed
    choice, finite and no less than its minimum, else a ConfigError that
    names the key."""
    label = f"[{section}] {key}"
    typ, _ = SCHEMA[section][key]
    choices = CHOICES.get((section, key))
    if choices is not None and raw not in choices:
        raise ConfigError(f"{label}: expected one of {', '.join(choices)}, "
                          f"got {raw!r}")
    try:
        value = typ(raw)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"{label}: expected a finite number, got {raw!r}")
    least = MINIMUM.get((section, key))
    if least is not None and value < least:
        raise ConfigError(f"{label}: expected at least {least}, got {raw!r}")
    return value


def default_config():
    return {sec: {k: dv for k, (_, dv) in keys.items()}
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
