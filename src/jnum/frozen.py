"""Frozen value classes from shared methods, with no code generated per class.

@frozen takes a class's own annotations, in order, as its fields, and
installs the functions below: an __init__ that takes the fields
positionally or by keyword (a class attribute of a field's name is its
default) and then runs the class's __post_init__, if it has one, looked up
at every call; __eq__ and __hash__ over the field tuple; a repr in the
dataclasses format; and __setattr__ and __delattr__ that refuse.
object.__setattr__ still sets a field, as __init__ does and as a
__post_init__ may.
"""

from itertools import repeat

_set = object.__setattr__


class FrozenInstanceError(AttributeError):
    """A field of a frozen value was assigned or deleted."""


def _bind(cls, args, kwargs) -> list:
    """The field values of a call that does not pass every field positionally."""
    names = cls._fields
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} positional "
                        f"arguments but {len(args)} were given")
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in vars(cls):
            values.append(vars(cls)[name])
        else:
            raise TypeError(f"{cls.__name__}() missing argument {name!r}")
    if kwargs:
        name = next(iter(kwargs))
        problem = "multiple values for" if name in names else "an unexpected keyword"
        raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
    return values


def _init(self, *args, **kwargs):
    cls = type(self)
    names = cls._fields
    if kwargs or len(args) != len(names):
        args = _bind(cls, args, kwargs)
    for name, value in zip(names, args):
        _set(self, name, value)
    post_init = getattr(cls, "__post_init__", None)
    if post_init is not None:
        post_init(self)


def _values(obj) -> tuple:
    return tuple(map(getattr, repeat(obj), type(obj)._fields))


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _values(self) == _values(other)


def _hash(self):
    return hash(_values(self))


def _repr(self):
    body = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self)._fields)
    return f"{type(self).__qualname__}({body})"


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def frozen(cls):
    """Make cls a frozen value class over the fields it annotates."""
    cls._fields = tuple(cls.__annotations__)
    cls.__init__ = _init
    cls.__eq__ = _eq
    cls.__hash__ = _hash
    cls.__repr__ = _repr
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    return cls
