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
its ``<slack_weight>`` the model's (1/sqrt(C), 0 for C=inf).  Both are checks,
not data: loading keeps neither.  Every float round-trips exactly, so a
reloaded model predicts identically and continues the stream as the saved
model would: ``points_seen`` numbers the next training point and exceeds
every member id, and each slack id is a member of its ball, listed once.

Loading refuses, naming the line: a radius that is negative or not finite; a
center value, slack coefficient or member coordinate that is not finite (C is
the one record that may be inf); what training cannot produce, since mapped
points lie on the sphere of radius kappa with explicit blocks of squared norm
2: a radius above 2 kappa, a center (on its ``center`` line) whose squared
norm with the slack part is above kappa^2, and a full row whose squared norm
is not 2 (each bound 1e-9 wider for rounding; an overflow to inf exceeds
it); a core block that lists one point twice; and a full row for an id
written earlier, so a loaded cover holds one point an id, as a trained one
does.  One ``math.hypot`` a center and a full row gives the norm that shows
a non-finite value (then looked for) and that the bounds test, squared.  A
slack block loads in one pass and a bare member id without a full row's
checks; a slack block that fails is read again line by line, so every error
still names its line.
"""

from __future__ import annotations

import math

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
        self.at: dict[str, int] = {}  # a one-value record's tag -> its line

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

    def floats(self, texts: list[str], what: str) -> tuple[np.ndarray, float]:
        """A record's values, all finite (float() also parses nan and inf),
        and their squared norm, which is inf when it overflows."""
        try:  # a record in one call; value by value only to name the first bad one
            values = list(map(float, texts))
        except ValueError:
            values = [self.number(v, what) for v in texts]
        norm = math.hypot(*values)  # inf only when a value or the norm itself is
        if not math.isfinite(norm):  # one test a record; then look for the value
            for v in values:
                if not math.isfinite(v):
                    raise self.error(f"{what} {v} is not finite")
        return np.array(values), norm * norm

    def record(self, tag: str, kind=float):
        """The value of the one-value record ``tag`` (no value or two are bad);
        an int record counts something, so it is never negative."""
        value = self.number(" ".join(self.tagged(tag)), tag, kind)
        self.at[tag] = self.pos
        if kind is int and value < 0:
            raise self.error(f"{tag} {value} is negative")
        return value


def load_model(path) -> Model:
    reader = _Reader(path)
    header = reader.next()
    if len(header) != 2 or header[0] != MAGIC:
        raise ModelFormatError("not a BBSVM model file")
    if header[1] != str(VERSION):
        raise ModelFormatError(f"unsupported model format version {header[1]!r}")

    kappa = reader.record("kappa")
    epsilon = reader.record("epsilon")
    delta = reader.record("delta")
    C = reader.record("C")
    dim = reader.record("dim", int)
    lookahead = reader.record("lookahead", int)
    points_seen = reader.record("points_seen", int)
    ball_count = reader.record("balls", int)

    try:
        params = ModelParams(dim, epsilon, C, lookahead, delta)
    except ValueError as err:  # the message opens with its field ("feature index": dim)
        field = "dim" if str(err).startswith("feature index") else str(err).split()[0]
        raise ModelFormatError(f"line {reader.at[field]}: {err}") from None
    if not abs(kappa - params.kappa) <= 1e-9 * params.kappa:  # NaN too
        raise ModelFormatError(f"line 2: kappa {kappa} is inconsistent with C")

    kappa2 = params.kappa * params.kappa * (1.0 + 1e-9)  # a trained center's bound
    cores = []
    points: dict[int, AugPoint] = {}
    for _ in range(ball_count):
        radius = reader.record("ball")
        if not 0.0 <= radius < math.inf:  # NaN too
            raise reader.error(f"ball radius {radius} is negative or not finite")
        if radius > 2.0 * params.kappa * (1.0 + 1e-9):
            raise reader.error(f"ball radius {radius} exceeds 2 kappa")
        explicit, norm2 = reader.floats(reader.tagged("center"), "center coordinate")
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
        center = Center(explicit, coeffs)  # sums the squared coefficients once
        if not math.isfinite(center.slack_norm2):  # then look for the value
            for k, c in enumerate(coeffs.values()):
                if not math.isfinite(c):
                    raise ModelFormatError(
                        f"line {first + k + 1}: slack coefficient {c} is not finite")
        if (norm2 := norm2 + center.slack_norm2) > kappa2:
            raise ModelFormatError(  # an overflow (inf) too; line first - 1 is the center
                f"line {first - 1}: center squared norm {norm2} exceeds kappa^2")
        members = []
        count = reader.record("core", int)
        start = reader.pos  # the block's k-th member is on line start + k + 1
        for line in reader.lines[reader.pos : reader.pos + count]:
            reader.pos += 1
            pid = int(line) if line.isdecimal() else None  # a bare id: no checks
            if pid not in points:
                parts = line.split()
                if len(parts) not in (1, dim + 4):
                    raise reader.error("core member has the wrong field count")
                pid = reader.number(parts[0], "member id", int)
                if len(parts) > 1:
                    if pid in points:
                        raise reader.error(f"member {pid} was written earlier")
                    # label and weight are checked, not kept
                    label = reader.number(parts[1], "member label", int)
                    coords, norm2 = reader.floats(parts[2:-1], "member coordinate")
                    weight = reader.number(parts[-1], "member slack weight")
                    if label != (int(coords[-1]) if abs(coords[-1]) == 1.0 else 0):
                        raise reader.error(f"member label {label} is not the sign of "
                                           f"its bias coordinate {coords[-1]}")
                    if weight != params.slack_weight:
                        raise reader.error(f"member slack weight {weight} is not "
                                           f"the model's {params.slack_weight}")
                    if norm2 > 2.0 * (1.0 + 1e-9):
                        raise reader.error(f"member squared norm {norm2} exceeds 2")
                    if norm2 < 2.0 * (1.0 - 1e-9):
                        raise reader.error(f"member squared norm {norm2} is below 2")
                    points[pid] = AugPoint(coords, pid)
                elif pid not in points:
                    raise reader.error(f"member {pid} was not written earlier")
            members.append(points[pid])
        for _ in range(count - len(members)):
            reader.next()  # raises: the block runs past the end of the file
        ids = {p.id for p in members}  # ids below points_seen, checked below
        if len(ids) < count:  # a trained core lists each point once
            k = next(k for k, p in enumerate(members) if p in members[:k])
            raise ModelFormatError(
                f"line {start + k + 1}: member {members[k].id} repeats in its core")
        if not ids.issuperset(coeffs):
            k, pid = next((k, pid) for k, pid in enumerate(coeffs) if pid not in ids)
            raise ModelFormatError(
                f"line {first + k + 1}: slack id {pid} is no core member")
        cores.append(CoreSet(members, Ball(center, radius)))
    if reader.pos < len(reader.lines):
        raise ModelFormatError(f"line {reader.pos + 1}: record after the last ball")

    if points_seen <= max(points, default=-1):
        raise ModelFormatError(f"line {reader.at['points_seen']}: points_seen "
                               f"{points_seen} is not above every member id")
    model = Model(params)
    model.cover.cores = cores
    model.cover.points_seen = points_seen
    return model
