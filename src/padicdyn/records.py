"""Plain value records with ``__slots__`` fields."""


class Record:
    """A record whose fields are its class's ``__slots__``, set by position
    or keyword, with defaults from ``_defaults``. Two records of one class
    are equal, and hash alike, when the fields named in ``_compared`` are
    (every field when it is None); ``replace`` copies a record with some
    fields changed."""

    __slots__ = ()
    _defaults = {}
    _compared = None

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)}"
                            f" fields, got {len(args)}")
        values = dict(self._defaults)
        values.update(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in names[:len(args)]:
                raise TypeError(f"{type(self).__name__} got an unexpected"
                                f" or repeated field {name!r}")
            values[name] = value
        for name in names:
            if name not in values:
                raise TypeError(f"{type(self).__name__} is missing the"
                                f" field {name!r}")
            setattr(self, name, values[name])

    def _key(self):
        return tuple(getattr(self, name)
                     for name in self._compared or self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def replace(self, **changes):
        values = {name: getattr(self, name) for name in self.__slots__}
        values.update(changes)
        return type(self)(**values)
