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

A core point is written in full once, where it first appears, and as its bare
id in later balls, which load it as the same shared point.  Its ``<label>`` is
the sign of its bias coordinate (the last float; 0 when that is not +-1) and
its ``<slack_weight>`` the model's (1/sqrt(C), 0 for C=inf), both kept for
older readers: loading checks them and keeps neither.  Every float round-trips
exactly, so a reloaded model predicts identically and continues the stream as
the saved model would: ``points_seen`` numbers the next training point and
exceeds every member id, and each slack id is a member of its ball, listed
once.  Versions 1 and 2 write every member in full; version 1 lacks the delta,
lookahead and points_seen records (epsilon/2, 10, largest member id + 1).
A slack block loads in one pass and a bare member id without a full row's
checks; a slack block that fails is read again line by line, so every error
still names its line.
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
    if pending := len(model.buffer.pending):
        raise ValueError(f"{pending} points are pending; call finish() first")
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
    weight = _f(params.slack_weight)  # every member's
    for cs in model.cover.cores:
        ball = cs.ball
        lines.append(f"ball {_f(ball.radius)}")
        # tolist() gives Python floats, whose repr is _f's text
        lines.append("center " + " ".join(map(repr, ball.center.explicit.tolist())))
        lines.append(f"slack {len(ball.center.slack_coeffs)}")
        lines.extend(f"{pid} {c!r}" for pid, c in ball.center.slack_coeffs.items())
        lines.append(f"core {len(cs.members)}")
        for p in cs.members:
            if p.id in written:
                lines.append(str(p.id))
                continue
            written.add(p.id)
            row = p.explicit.tolist()
            label = int(row[-1]) if abs(row[-1]) == 1.0 else 0
            lines.append(f"{p.id} {label} {' '.join(map(repr, row))} {weight}")
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
            raise ModelFormatError(f"line {self.pos + 1}: unexpected end of model file")
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
        """The value of the one-value record ``tag`` (no value or two are bad);
        an int record counts something, so it is never negative."""
        value = self.number(" ".join(self.tagged(tag)), tag, kind)
        if kind is int and value < 0:
            raise self.error(f"{tag} {value} is negative")
        return value


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
        raise ModelFormatError(f"line 2: kappa {kappa} is inconsistent with C")

    cores = []
    points: dict[int, AugPoint] = {}
    for _ in range(ball_count):
        radius = reader.record("ball")
        explicit = reader.floats(reader.tagged("center"), "center coordinate")
        if explicit.size != dim + 1:
            raise reader.error("center has the wrong dimension")
        count = reader.record("slack", int)
        first = reader.pos  # the block's k-th entry is on line first + k + 1
        try:  # the block in one pass; line by line only to name the first bad one
            block = reader.lines[first : first + count]
            coeffs = {int(a): float(b) for a, b in map(str.split, block)}
        except ValueError:
            coeffs = {}
        if len(coeffs) == count:  # else a bad line, a repeated id or a cut
            reader.pos += count
        else:
            coeffs = {}
            for _ in range(count):
                parts = reader.next()
                if len(parts) != 2:
                    raise reader.error("slack coefficient needs an id and a value")
                pid = reader.number(parts[0], "slack id", int)
                if pid in coeffs:
                    raise reader.error(f"slack id {pid} repeats")
                coeffs[pid] = reader.number(parts[1], "slack coefficient")
        members = []
        count = reader.record("core", int)
        for line in reader.lines[reader.pos : reader.pos + count]:
            reader.pos += 1
            pid = int(line) if line.isdecimal() else None  # a bare id: no checks
            if pid not in points:
                parts = line.split()
                if len(parts) not in (1, dim + 4):
                    raise reader.error("core member has the wrong field count")
                pid = reader.number(parts[0], "member id", int)
                if len(parts) > 1:
                    # label and weight are checked, not kept
                    label = reader.number(parts[1], "member label", int)
                    coords = reader.floats(parts[2:-1], "member coordinate")
                    weight = reader.number(parts[-1], "member slack weight")
                    if label != (int(coords[-1]) if abs(coords[-1]) == 1.0 else 0):
                        raise reader.error(f"member label {label} is not the sign of "
                                           f"its bias coordinate {coords[-1]}")
                    if weight != params.slack_weight:
                        raise reader.error(f"member slack weight {weight} is not "
                                           f"the model's {params.slack_weight}")
                    points[pid] = AugPoint(coords, pid)
                elif pid not in points:
                    raise reader.error(f"member {pid} was not written earlier")
            members.append(points[pid])
        for _ in range(count - len(members)):
            reader.next()  # raises: the block runs past the end of the file
        ids = {p.id for p in members}  # ids below points_seen, checked below
        if not ids.issuperset(coeffs):
            k, pid = next((k, pid) for k, pid in enumerate(coeffs) if pid not in ids)
            raise ModelFormatError(
                f"line {first + k + 1}: slack id {pid} is no core member")
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
    return model
