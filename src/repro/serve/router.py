"""Block-range → shard routing.

The logical address space is divided into equal contiguous bands, one
per shard (shard ``i`` owns ``[i * cap, (i + 1) * cap)`` elements).
Contiguous bands — rather than element-level striping — keep a client's
sequential run on one shard, so the coalescer can feed it to the
volume's planned paths as a single extent instead of a comb of
single elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.exceptions import AddressError
from repro.util.validation import require_positive

#: One routed extent: (shard, local_start, count, payload_offset) —
#: ``payload_offset`` is the element offset of this extent inside the
#: original request, used to slice write payloads and to reassemble
#: read results in request order.
Extent = Tuple[int, int, int, int]


@dataclass(frozen=True)
class ShardRouter:
    """Maps logical element ranges onto shard-local ranges."""

    num_shards: int
    elements_per_shard: int

    def __post_init__(self) -> None:
        require_positive(self.num_shards, "num_shards")
        require_positive(self.elements_per_shard, "elements_per_shard")

    @property
    def num_elements(self) -> int:
        """Total logical elements across all shards."""
        return self.num_shards * self.elements_per_shard

    def shard_of(self, element: int) -> int:
        """The shard owning logical ``element``."""
        if not 0 <= element < self.num_elements:
            raise AddressError(
                f"element {element} outside volume of {self.num_elements}"
            )
        return element // self.elements_per_shard

    def split(self, start: int, count: int) -> List[Extent]:
        """Split ``[start, start + count)`` into per-shard extents.

        Extents come back in address order, cover the range exactly,
        and never cross a shard boundary.  A range touching ``k`` shard
        bands yields exactly ``k`` extents.
        """
        if count <= 0:
            raise AddressError(f"count must be positive, got {count}")
        if start < 0 or start + count > self.num_elements:
            raise AddressError(
                f"range [{start}, {start + count}) outside volume of "
                f"{self.num_elements} elements"
            )
        cap = self.elements_per_shard
        extents: List[Extent] = []
        offset = 0
        pos = start
        remaining = count
        while remaining > 0:
            shard = pos // cap
            local = pos - shard * cap
            take = min(remaining, cap - local)
            extents.append((shard, local, take, offset))
            pos += take
            offset += take
            remaining -= take
        return extents
