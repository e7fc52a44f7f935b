"""Exception types shared across the package."""

from contextlib import contextmanager


class LocatedError(ValueError):
    """A ValueError that may say where in a file it arose, as fields: ``path``,
    1-based ``line`` and ``column``, and ``key``, the named thing there (a CSV
    column, a config option, a model ``[section] key``). ``str`` renders them
    in this one place, GNU style: ``path[:line[:column]]: [key: ]message``."""

    def __init__(self, message: str, *, path=None, line=None, column=None, key=None):
        super().__init__(message)
        self.message, self.path, self.line, self.column, self.key = message, path, line, column, key

    def __str__(self) -> str:
        where = ":".join(str(v) for v in (self.path, self.line, self.column) if v is not None)
        return ": ".join(str(v) for v in (where, self.key, self.message) if v not in ("", None))


@contextmanager
def located(path=None, **fields):
    """Give a LocatedError raised in the block ``path`` and the other fields it lacks."""
    try:
        yield
    except LocatedError as err:
        for name, value in {"path": path, **fields}.items():
            if getattr(err, name) is None:
                setattr(err, name, value)
        raise


class ShapeError(ValueError):
    """Dimension mismatch between operands; the message names both shapes."""


class DomainError(LocatedError):
    """A coordinate or argument fell outside its valid domain."""


class SchemaError(LocatedError):
    """A file did not match its declared schema (missing/unknown column, bad header)."""


class ParseError(LocatedError):
    """A cell or line could not be parsed; ``line`` (and ``column`` or ``key``) says where."""


class NumericError(RuntimeError):
    """A computation produced non-finite values (NaN/inf loss, overflowed matrix)."""
