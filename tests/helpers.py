"""Helpers shared by the test modules."""


def replace(record, **changes):
    """A copy of a cobarext record with some fields changed, as
    dataclasses.replace gives for a dataclass."""
    fields = record.as_dict()
    unknown = changes.keys() - fields.keys()
    if unknown:
        raise TypeError(f"{type(record).__name__} has no fields {sorted(unknown)}")
    return type(record)(*{**fields, **changes}.values())
