"""Shared error types, and the base of the records that check their fields."""


class WorkLimitExceeded(RuntimeError):
    """An enumeration or iteration hit its node or bit-size cap."""

    def __init__(self, message: str, nodes=None, bits=None):
        super().__init__(message)
        self.nodes = nodes
        self.bits = bits


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class Record:
    """An immutable record with the fields _fields, in constructor order:
    the base of the records whose constructor checks or caches (the others
    are NamedTuples).  As a NamedTuple does, with no generated code, it
    equals and hashes as the tuple of its fields (_key), shows them in its
    repr, pickles through its constructor and names them in _asdict().  A
    subclass's own __init__ sets the fields past __setattr__."""

    __slots__ = ()
    _fields: tuple = ()

    def __init__(self, *values, **named):
        bound = dict(zip(self._fields, values), **named)
        if len(values) > len(self._fields) or bound.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        for name in self._fields:
            object.__setattr__(self, name, bound[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _key(self) -> tuple:
        """The values compared, hashed and shown: all the fields."""
        return self._values()

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = (f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__name__}({', '.join(shown)})"

    def __reduce__(self):
        return type(self), self._values()
