"""One rule for turning a record dataclass into a JSON-ready dict and back.

to_dict writes the fields in declaration order, a tuple as a list, and
leaves out a None field whose default is None; a field without a default
is always written.  from_dict reads the declared keys back, a list as a
tuple, ignores other keys and lets an absent key take the field's default.
Values are not coerced: the record's own checks see what the dict held.
"""

from dataclasses import fields


def to_dict(record) -> dict:
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if value is not None or f.default is not None:
            out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def from_dict(cls, d: dict):
    values = {f.name: d[f.name] for f in fields(cls) if f.name in d}
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})
