"""Declared options: one dataclass field drives its flag and its checks.

A field declared with :func:`option` carries its rule (a :class:`Bound`
or a :class:`Choice`) and help text as metadata, beside its type (the
annotation) and default.  :func:`add_flags` builds argparse flags from
the declarations and :func:`check_fields` validates an instance against
them, so a command line and a JSON document meet the same rules.
"""

from __future__ import annotations

import argparse
import functools
import typing
from dataclasses import MISSING, dataclass, field, fields
from typing import Collection, Optional, Sequence, Union

_NOUNS = {bool: "a boolean", int: "an integer", float: "a number",
          str: "a string"}


@dataclass(frozen=True)
class Bound:
    """A lower bound on an ``int`` or ``float``; an argparse ``type``."""

    kind: type
    low: float
    strict: bool = False  # > low rather than >= low
    why: str = ""  # appended to the complaint

    def complaint(self, value, name: str = "") -> Optional[str]:
        if value > self.low if self.strict else value >= self.low:
            return None  # NaN fails every bound
        op = ">" if self.strict else ">="
        return (f"{name} must be {op} {self.low}{self.why}, "
                f"got {value}").lstrip()

    def __call__(self, text: str):
        try:
            value = self.kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {_NOUNS[self.kind]}, got {text!r}") from None
        problem = self.complaint(value)
        if problem is not None:
            raise argparse.ArgumentTypeError(problem)
        return value


POSITIVE_INT = Bound(int, 1)
NONNEGATIVE_INT = Bound(int, 0)
POSITIVE_FLOAT = Bound(float, 0, strict=True)


@dataclass(frozen=True)
class Choice:
    """A closed set of names: a tuple, or a live registry mapping."""

    noun: str
    names: Collection[str]
    #: Offered to argparse as ``choices``, so listed in ``--help``; an
    #: unlisted registry is checked by :func:`check_fields` alone.
    listed: bool = True

    def complaint(self, value, name: str = "") -> Optional[str]:
        if value in self.names:
            return None
        return (f"unknown {self.noun} {value!r}; known: "
                + ", ".join(sorted(self.names)))


def option(default=MISSING, rule: Union[Bound, Choice, None] = None,
           help: Optional[str] = None, flag: Optional[str] = None,
           metavar: Optional[str] = None):
    """A declared dataclass field.  Without a default it is a positional
    argument, else the flag ``flag`` (default: ``--field-name``)."""
    return field(default=default, metadata={
        "rule": rule, "help": help, "flag": flag, "metavar": metavar})


@functools.lru_cache(maxsize=None)
def _declared(cls):
    """``(field, type, optional)`` per declared field of ``cls``; an
    ``Optional[T]`` annotation gives ``T`` and ``optional=True``."""
    hints, declared = typing.get_type_hints(cls), []
    for f in fields(cls):
        if "rule" in f.metadata:
            hint = hints[f.name]
            optional = type(None) in typing.get_args(hint)
            kind = typing.get_args(hint)[0] if optional else hint
            declared.append((f, kind, optional))
    return tuple(declared)


def check_fields(obj) -> None:
    """Raise ``ValueError`` on the first declared field of ``obj`` whose
    value is not of its type, or breaks its bound or choice set."""
    for f, kind, optional in _declared(type(obj)):
        value = getattr(obj, f.name)
        if value is None and optional:
            continue
        # A bool is not a number, and an int is a valid float.
        if isinstance(value, bool) != (kind is bool) or not isinstance(
                value, (int, float) if kind is float else kind):
            raise ValueError(
                f"{f.name} must be {_NOUNS[kind]}, got {value!r}")
        rule = f.metadata["rule"]
        problem = rule and rule.complaint(value, f.name)
        if problem:
            raise ValueError(problem)


def add_flags(cmd: argparse.ArgumentParser, cls, names: Sequence[str],
              default=MISSING) -> None:
    """Add the flags of ``cls``'s declared fields in ``names`` to ``cmd``,
    in declaration order, each with its field as dest.  ``default``
    overrides the fields' defaults (``argparse.SUPPRESS`` leaves an
    absent flag's field unset).  A ``bool`` field is a switch."""
    for f, kind, _ in _declared(cls):
        if f.name not in names:
            continue
        meta = f.metadata
        rule = meta["rule"]
        kwargs = {"help": meta["help"]}
        if kind is bool:
            kwargs["action"] = "store_true"
        else:
            kwargs["metavar"] = meta["metavar"]
            if isinstance(rule, Bound):
                kwargs["type"] = rule
            elif isinstance(rule, Choice) and rule.listed:
                kwargs["choices"] = rule.names
        if f.default is MISSING:
            cmd.add_argument(f.name, **kwargs)
        else:
            cmd.add_argument(
                meta["flag"] or "--" + f.name.replace("_", "-"),
                dest=f.name, **kwargs,
                default=f.default if default is MISSING else default)
