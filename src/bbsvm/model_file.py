"""Line-oriented text persistence for trained models.

Format (UTF-8, one record per line, floats in shortest round-trip decimal):

    BBSVM 3
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
    <id> <label> <d+1 floats> <slack_weight>   or   <id>   (s lines)

A core point is written in full once, where it first appears, and as its
bare id in later balls, which load it as the same shared point.  Its
``<label>`` is the sign of its bias coordinate (the last float; 0 when that
is not +-1), kept for older readers: loading checks that it is that sign
and reads nothing else from it.  Every float round-trips exactly, so a reloaded
model predicts identically and continues the stream as the saved model
would: ``points_seen`` numbers the next training point and exceeds every
member id, and each slack id is a member of its ball, listed once.
Versions 1 and 2 write every member in full; version 1 lacks the delta,
lookahead and points_seen records (epsilon/2, 10, largest member id + 1).
"""

from __future__ import annotations

import numpy as np

from .meb import AugPoint, Ball, Center, CoreSet
from .model import Model, ModelParams

__all__ = ["ModelFormatError", "load_model", "save_model"]

MAGIC = "BBSVM"
VERSION = 3


class ModelFormatError(ValueError):
    """Model file is missing, truncated, malformed, or of an unsupported version."""


def _f(value: float) -> str:
    return repr(float(value))


def save_model(model: Model, path) -> None:
    params = model.params
    lines = [
        f"{MAGIC} {VERSION}",
        f"kappa {_f(params.kappa)}",
        f"epsilon {_f(params.epsilon)}",
        f"delta {_f(params.delta)}",
        f"C {_f(params.C)}",
        f"dim {params.dim}",
        f"lookahead {params.lookahead}",
        f"points_seen {model.cover.points_seen}",
        f"balls {len(model.cover.cores)}",
    ]
    written: set[int] = set()
    for cs in model.cover.cores:
        ball = cs.ball
        lines.append(f"ball {_f(ball.radius)}")
        lines.append("center " + " ".join(_f(v) for v in ball.center.explicit))
        lines.append(f"slack {len(ball.center.slack_coeffs)}")
        for pid, coeff in ball.center.slack_coeffs.items():
            lines.append(f"{pid} {_f(coeff)}")
        lines.append(f"core {len(cs.members)}")
        for p in cs.members:
            if p.id in written:
                lines.append(str(p.id))
                continue
            written.add(p.id)
            bias = p.explicit[-1]
            label = int(bias) if abs(bias) == 1.0 else 0
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

    def error(self, message: str) -> ModelFormatError:
        return ModelFormatError(f"line {self.pos}: {message}")

    def next(self) -> list[str]:
        if self.pos >= len(self.lines):
            raise ModelFormatError("unexpected end of model file")
        self.pos += 1
        return self.lines[self.pos - 1].split()

    def tagged(self, tag: str) -> list[str]:
        parts = self.next()
        if not parts or parts[0] != tag:
            raise self.error(f"expected '{tag}' record")
        return parts[1:]

    def number(self, text: str, what: str, kind=float):
        """``kind(text)``; a malformed value names its record and line."""
        try:
            return kind(text)
        except ValueError:
            raise self.error(f"bad {what} {text!r}") from None

    def floats(self, texts: list[str], what: str) -> np.ndarray:
        try:  # a record in one call; value by value only to name the first bad one
            return np.array(list(map(float, texts)))
        except ValueError:
            return np.array([self.number(v, what) for v in texts])

    def record(self, tag: str, kind=float):
        """The value of the one-value record ``tag`` (no value or two are bad)."""
        return self.number(" ".join(self.tagged(tag)), tag, kind)


def load_model(path) -> Model:
    reader = _Reader(path)
    header = reader.next()
    if len(header) != 2 or header[0] != MAGIC:
        raise ModelFormatError("not a BBSVM model file")
    if header[1] not in ("1", "2", str(VERSION)):
        raise ModelFormatError(f"unsupported model format version {header[1]!r}")
    v1 = header[1] == "1"

    kappa = reader.record("kappa")
    epsilon = reader.record("epsilon")
    delta = None if v1 else reader.record("delta")
    C = reader.record("C")
    dim = reader.record("dim", int)
    lookahead = ModelParams.lookahead if v1 else reader.record("lookahead", int)
    points_seen = None if v1 else reader.record("points_seen", int)
    seen_line = reader.pos
    ball_count = reader.record("balls", int)

    params = ModelParams(dim, epsilon, C, lookahead, delta)
    if abs(kappa - params.kappa) > 1e-9 * params.kappa:
        raise ModelFormatError("kappa is inconsistent with C")

    cores = []
    points: dict[int, AugPoint] = {}
    for _ in range(ball_count):
        radius = reader.record("ball")
        explicit = reader.floats(reader.tagged("center"), "center coordinate")
        if explicit.size != dim + 1:
            raise reader.error("center has the wrong dimension")
        coeffs: dict[int, float] = {}
        slack_lines = []
        for _ in range(reader.record("slack", int)):
            parts = reader.next()
            if len(parts) != 2:
                raise reader.error("slack coefficient needs an id and a value")
            pid = reader.number(parts[0], "slack id", int)
            if pid in coeffs:
                raise reader.error(f"slack id {pid} repeats")
            coeffs[pid] = reader.number(parts[1], "slack coefficient")
            slack_lines.append((reader.pos, pid))
        members = []
        for _ in range(reader.record("core", int)):
            parts = reader.next()
            if len(parts) not in (1, dim + 4):
                raise reader.error("core member has the wrong field count")
            pid = reader.number(parts[0], "member id", int)
            if len(parts) > 1:
                label = reader.number(parts[1], "member label", int)  # checked, not kept
                coords = reader.floats(parts[2:-1], "member coordinate")
                weight = reader.number(parts[-1], "member slack weight")
                if label != (int(coords[-1]) if abs(coords[-1]) == 1.0 else 0):
                    raise reader.error(f"member label {label} is not the sign of "
                                       f"its bias coordinate {coords[-1]}")
                points[pid] = AugPoint(coords, weight, pid)
            elif pid not in points:
                raise reader.error(f"member {pid} was not written earlier")
            members.append(points[pid])
        ids = {p.id for p in members}  # ids below points_seen, checked below
        for line, pid in slack_lines:
            if pid not in ids:
                raise ModelFormatError(f"line {line}: slack id {pid} is no core member")
        cores.append(CoreSet(members, Ball(Center(explicit, coeffs), radius)))
    if reader.pos < len(reader.lines):
        raise ModelFormatError(f"line {reader.pos + 1}: record after the last ball")

    if v1:
        points_seen = max(points, default=-1) + 1
    elif points_seen <= max(points, default=-1):
        raise ModelFormatError(
            f"line {seen_line}: points_seen {points_seen} is not above every member id"
        )
    model = Model(params)
    model.cover.cores = cores
    model.cover.points_seen = points_seen
    model.cover._refresh_cache()
    return model
