"""Exception types, the integer check and the checked-tuple base shared across the package."""

from operator import index


class InconsistencyError(RuntimeError):
    """Two routes that must agree produced different answers.

    Raised when a cross-check between independent computations fails
    (e.g. a closed-form construction does not validate against a direct
    trace).  This is never a user-input problem; it signals a broken
    internal convention and should surface loudly.
    """


class CapExceededError(RuntimeError):
    """An enumeration would exceed its configured size cap."""


def check_int(value, low: float, what: str) -> int:
    """`value` as an int; ValueError if it is a bool, `operator.index` refuses it, or < `low`."""
    if type(value) is not int:
        try:
            if type(value) is bool:
                raise TypeError
            value = index(value)
        except TypeError:
            raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if value < low:
        raise ValueError(f"need {what} >= {low}, got {value}")
    return value


class CheckedTuple(tuple):
    """A tuple of ints >= 0; subclasses also derive a `NamedTuple` and set `_label` for errors.

    A subclass without its own `__new__` gets one built as `namedtuple` builds one: it takes
    keywords, and it unrolls the all-ints test, sending each field through `check_int` unless
    all are plain ints >= 0.  `_make` (so `_replace`), copy and pickle rebuild through it.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if "__new__" not in vars(cls):
            fields, namespace = ", ".join(cls._fields), {"_tuple_new": tuple.__new__}
            plain = " and ".join(f"type({f}) is int and {f} >= 0" for f in cls._fields)
            exec(f"def __new__(_cls, {fields}):\n    return _tuple_new(_cls, ({fields},) if {plain}"
                 f" else _cls._checked(({fields},)))", namespace)
            namespace["__new__"].__qualname__ = f"{cls.__qualname__}.__new__"
            cls.__new__ = staticmethod(namespace["__new__"])

    @classmethod
    def _checked(cls, fields):
        return [check_int(v, 0, f"{cls._label} {name}") for name, v in zip(cls._fields, fields)]

    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` checks too

    def __reduce__(self):  # so copy and every pickle protocol check too
        return type(self), tuple(self)

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self)
