"""Line-oriented text persistence for trained models.

Format (UTF-8, one record per line, floats in shortest round-trip decimal):

    BBSVM 2
    kappa <f>
    epsilon <f>
    delta <f>
    C <f|inf>
    dim <int>
    lookahead <int>
    points_seen <int>
    balls <k>
    --- then per ball ---
    ball <radius>
    center <d+1 floats>
    slack <m>
    <id> <coefficient>          (m lines)
    core <s>
    <id> <label> <d+1 floats> <slack_weight>   (s lines)

Saving and loading round-trips every float exactly, so a reloaded model
predicts identically to the original and keeps its training state (not the
buffer, which ``train_stream`` leaves empty).  Version 1 files lack the
delta, lookahead and points_seen records and load with epsilon/2, 10 and 0.
"""

from __future__ import annotations

import math

import numpy as np

from .cover import BlurredBallCover
from .meb import AugPoint, Ball, Center, CoreSet
from .model import Model, ModelParams

__all__ = ["ModelFormatError", "load_model", "save_model"]

MAGIC = "BBSVM"
VERSION = 2


class ModelFormatError(ValueError):
    """Model file is missing, truncated, or of an unsupported version."""


def _f(value: float) -> str:
    return repr(float(value))


def save_model(model: Model, path) -> None:
    params = model.params
    lines = [
        f"{MAGIC} {VERSION}",
        f"kappa {_f(params.kappa)}",
        f"epsilon {_f(params.epsilon)}",
        f"delta {_f(params.delta)}",
        f"C {'inf' if math.isinf(params.C) else _f(params.C)}",
        f"dim {params.dim}",
        f"lookahead {params.lookahead}",
        f"points_seen {model.cover.points_seen}",
        f"balls {len(model.cover.cores)}",
    ]
    for cs in model.cover.cores:
        ball = cs.ball
        lines.append(f"ball {_f(ball.radius)}")
        lines.append("center " + " ".join(_f(v) for v in ball.center.explicit))
        lines.append(f"slack {len(ball.center.slack_coeffs)}")
        for pid, coeff in ball.center.slack_coeffs.items():
            lines.append(f"{pid} {_f(coeff)}")
        lines.append(f"core {len(cs.members)}")
        for p in cs.members:
            label = 0 if p.label is None else p.label
            lines.append(
                f"{p.id} {label} "
                + " ".join(_f(v) for v in p.explicit)
                + f" {_f(p.slack_weight)}"
            )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class _Reader:
    def __init__(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            self.lines = fh.read().splitlines()
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise ModelFormatError("unexpected end of model file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def tagged(self, tag: str) -> list[str]:
        parts = self.next().split()
        if not parts or parts[0] != tag:
            raise ModelFormatError(f"expected '{tag}' record at line {self.pos}")
        return parts[1:]


def _float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ModelFormatError(f"bad {what}: {text!r}") from None


def load_model(path) -> Model:
    reader = _Reader(path)
    header = reader.next().split()
    if len(header) != 2 or header[0] != MAGIC:
        raise ModelFormatError("not a BBSVM model file")
    if header[1] not in ("1", str(VERSION)):
        raise ModelFormatError(f"unsupported model format version {header[1]!r}")
    v2 = header[1] == "2"

    kappa = _float(reader.tagged("kappa")[0], "kappa")
    epsilon = _float(reader.tagged("epsilon")[0], "epsilon")
    delta = _float(reader.tagged("delta")[0], "delta") if v2 else None
    c_text = reader.tagged("C")[0]
    C = math.inf if c_text == "inf" else _float(c_text, "C")
    dim = int(reader.tagged("dim")[0])
    lookahead = int(reader.tagged("lookahead")[0]) if v2 else ModelParams.lookahead
    points_seen = int(reader.tagged("points_seen")[0]) if v2 else 0
    ball_count = int(reader.tagged("balls")[0])

    params = ModelParams(dim, epsilon, C, lookahead, delta)
    if abs(kappa - params.kappa) > 1e-9 * params.kappa:
        raise ModelFormatError("kappa is inconsistent with C")

    cores = []
    max_id = -1
    for _ in range(ball_count):
        radius = _float(reader.tagged("ball")[0], "radius")
        explicit = np.array(
            [_float(v, "center coordinate") for v in reader.tagged("center")]
        )
        if explicit.size != dim + 1:
            raise ModelFormatError("center has the wrong dimension")
        coeffs: dict[int, float] = {}
        for _ in range(int(reader.tagged("slack")[0])):
            pid_text, coeff_text = reader.next().split()
            coeffs[int(pid_text)] = _float(coeff_text, "slack coefficient")
        members = []
        for _ in range(int(reader.tagged("core")[0])):
            parts = reader.next().split()
            if len(parts) != dim + 4:
                raise ModelFormatError("core member has the wrong field count")
            pid = int(parts[0])
            label_value = int(parts[1])
            vec = np.array([_float(v, "member coordinate") for v in parts[2:-1]])
            slack_weight = _float(parts[-1], "member slack weight")
            members.append(
                AugPoint(
                    vec,
                    slack_weight,
                    pid,
                    label=None if label_value == 0 else label_value,
                )
            )
            max_id = max(max_id, pid)
        ball = Ball(Center(explicit, coeffs), radius)
        cores.append(CoreSet(members, ball))

    cover = BlurredBallCover(epsilon, params.delta)
    cover.cores = cores
    cover.points_seen = points_seen
    cover._refresh_cache()
    model = Model(params)
    model.cover = cover
    model.next_id = max_id + 1
    return model
