"""Integer partitions clipped to a k x w rectangle.

Partitions are plain tuples of weakly decreasing positive integers with
trailing zeros stripped, so they can be used directly as dict keys in the
ring code. All functions validate their input through normalize().
"""

from __future__ import annotations

from itertools import combinations


def normalize(parts) -> tuple[int, ...]:
    """Return the canonical tuple form, dropping trailing zeros.

    Raises ValueError on negative or increasing entries.
    """
    parts = tuple(int(p) for p in parts)
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise ValueError(f"partition entries must be weakly decreasing: {parts}")
    if parts and parts[-1] < 0:
        raise ValueError(f"partition entries must be non-negative: {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse "3,2,0" (or "3, 2") into (3, 2); "" and "0" give the empty partition."""
    text = text.strip()
    if not text or text == "0":
        return ()
    return normalize(int(piece) for piece in text.split(","))


def format_partition(lam) -> str:
    lam = normalize(lam)
    if not lam:
        return "0"
    return ",".join(str(p) for p in lam)


def fits_box(lam, rows: int, width: int | None) -> bool:
    """True if lam has at most `rows` parts, each at most `width` (None = unbounded)."""
    if len(lam) > rows:
        return False
    return width is None or not lam or lam[0] <= width


def contains(lam, mu) -> bool:
    """Componentwise lam_i >= mu_i (mu padded with zeros)."""
    if len(mu) > len(lam):
        return all(m == 0 for m in mu[len(lam):]) and contains(lam, mu[: len(lam)])
    return all(a >= b for a, b in zip(lam, mu))


def conjugate(lam) -> tuple[int, ...]:
    lam = normalize(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def box_partitions(rows: int, width: int, min_size: int = 0, max_size: int | None = None):
    """Yield every partition inside the rows x width box, by rows.

    Yields tuples in a deterministic order (lexicographically decreasing
    first rows). max_size/min_size filter on |lam|.
    """
    if max_size is None:
        max_size = rows * width

    def rec(prefix, row, bound, total):
        if total >= min_size:
            yield normalize(prefix)
        if row == rows:
            return
        for part in range(bound, 0, -1):
            if total + part > max_size:
                continue
            yield from rec(prefix + (part,), row + 1, part, total + part)

    # rec with empty prefix yields () once, then everything non-empty
    yield from rec((), 0, width, 0)


def horizontal_strips(lam, m: int, rows: int, width: int | None):
    """Yield nu with nu/lam a horizontal m-strip inside the rows x width box.

    Horizontal strip: nu_i >= lam_i >= nu_{i+1} and |nu| = |lam| + m.
    """
    lam = normalize(lam)
    if m < 0 or len(lam) > rows:
        return
    padded = lam + (0,) * (rows - len(lam))

    def rec(i, remaining, out):
        if remaining == 0:
            yield normalize(tuple(out) + padded[i:])
            return
        if i == rows:
            return
        low = padded[i]
        high = padded[i - 1] if i > 0 else (width if width is not None else low + remaining)
        if width is not None:
            high = min(high, width)
        high = min(high, low + remaining)
        for v in range(high, low - 1, -1):
            yield from rec(i + 1, remaining - (v - low), out + [v])

    yield from rec(0, m, [])


def vertical_strips(lam, c: int, rows: int, width: int | None):
    """Yield nu with nu/lam a vertical c-strip (at most one box per row) in the box."""
    lam = normalize(lam)
    if c < 0 or len(lam) > rows:
        return
    if c == 0:
        yield lam
        return
    padded = lam + (0,) * (rows - len(lam))
    for pick in combinations(range(rows), c):
        nu = list(padded)
        ok = True
        for i in pick:
            nu[i] += 1
            if width is not None and nu[i] > width:
                ok = False
                break
        if not ok:
            continue
        if all(nu[i] >= nu[i + 1] for i in range(rows - 1)):
            yield normalize(tuple(nu))


def partitions_with_max_length(n: int, max_len: int):
    """Yield partitions of n with at most max_len parts (stable-mode degree slice)."""

    def rec(remaining, bound, slots, prefix):
        if remaining == 0:
            yield prefix
            return
        if slots == 0:
            return
        for part in range(min(bound, remaining), 0, -1):
            yield from rec(remaining - part, part, slots - 1, prefix + (part,))

    yield from rec(n, n, max_len, ())
