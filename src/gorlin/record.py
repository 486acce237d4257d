"""Records whose attributes are set once, when the record is made, and are read-only after."""


class Record:
    """A slotted record: __init__ sets each slot once with _set, and any later set or delete raises AttributeError.

    It generates no code at import, where a dataclass would, so importing
    gorlin loads no dataclasses module.
    """

    __slots__ = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name}")

    __delattr__ = __setattr__

    def __setstate__(self, state) -> None:  # copy and pickle restore the slots from (None, {name: value})
        self._set(**state[1])
