"""Integer partitions clipped to a k x w rectangle.

Partitions are plain tuples of weakly decreasing positive integers with
trailing zeros stripped, so they can be used directly as dict keys in the
ring code. All functions validate their input through normalize().
"""

from __future__ import annotations


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

    Horizontal strip: nu_i >= lam_i >= nu_{i+1} and |nu| = |lam| + m. Rows are
    filled top down, largest first, skipping counts the rows below cannot finish.
    """
    lam = normalize(lam)
    if m < 0 or len(lam) > rows:
        return
    padded = lam + (0,) * (rows - len(lam))
    first = (lam[0] if lam else 0) + m if width is None else width
    room = [min(top, first) - low for top, low in zip((first,) + padded, padded)]
    spare = [0] * (rows + 1)  # spare[i]: boxes rows i.. can take
    for i in range(rows - 1, -1, -1):
        spare[i] = spare[i + 1] + room[i]

    def rec(i, remaining, out):
        if remaining == 0:
            yield out + lam[i:]  # canonical: out ends with a box added
            return
        if i == rows:
            return
        for b in range(min(room[i], remaining), max(0, remaining - spare[i + 1]) - 1, -1):
            yield from rec(i + 1, remaining - b, out + (padded[i] + b,))

    yield from rec(0, m, ())


def vertical_strips(lam, c: int, rows: int, width: int | None):
    """Yield nu with nu/lam a vertical c-strip (at most one box per row) in the box,
    in the lexicographic order of the rows that take a box. Row i can take one
    within the width when lam_{i-1} > lam_i or row i - 1 took one too.
    """
    lam = normalize(lam)
    if c < 0 or len(lam) > rows:
        return
    padded, n = lam + (0,) * (rows - len(lam)), len(lam)

    def rec(start, remaining, nu):
        # row start - 1 took the last box
        if remaining == 0:
            yield nu[:max(n, start)]
            return
        for i in range(start, rows - remaining + 1):
            if (i == start or padded[i - 1] > padded[i]) and (width is None or padded[i] < width):
                yield from rec(i + 1, remaining - 1, nu[:i] + (padded[i] + 1,) + padded[i + 1:])

    yield from rec(0, c, padded)


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
