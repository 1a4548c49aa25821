"""Entity profiles: attribute-value descriptions with stable identifiers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping


@dataclass(frozen=True)
class EntityProfile:
    """One entity as a bag of attribute-value pairs.

    ``attributes`` maps an attribute name to its (possibly multi-valued)
    raw string values.  Missing attributes are simply absent -- an empty
    string is a value, absence is not.
    """

    id: str
    attributes: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        normalized = {
            name: tuple(values) for name, values in dict(self.attributes).items()
        }
        object.__setattr__(self, "attributes", normalized)

    def values(self, attribute: str | None = None) -> list[str]:
        """All values, or only the named attribute's (empty when absent)."""
        if attribute is None:
            return [v for vals in self.attributes.values() for v in vals]
        return list(self.attributes.get(attribute, ()))


class ProfileCollection:
    """An ordered, duplicate-free collection of entity profiles."""

    def __init__(self, profiles: Iterable[EntityProfile]):
        self.profiles: list[EntityProfile] = list(profiles)
        self.by_id: dict[str, EntityProfile] = {}
        for p in self.profiles:
            if p.id in self.by_id:
                raise ValueError(f"duplicate profile id {p.id!r}")
            self.by_id[p.id] = p

    def __len__(self) -> int:
        return len(self.profiles)

    def __iter__(self) -> Iterator[EntityProfile]:
        return iter(self.profiles)

    def __getitem__(self, index: int) -> EntityProfile:
        return self.profiles[index]

    @property
    def ids(self) -> list[str]:
        return [p.id for p in self.profiles]

    def __repr__(self):
        return f"ProfileCollection({len(self.profiles)} profiles)"

