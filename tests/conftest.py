import math
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"


def coprime_signatures(max_s: int):
    """All (r, s) with 1 < r < s <= max_s and gcd(r, s) = 1."""
    return [
        (r, s)
        for s in range(3, max_s + 1)
        for r in range(2, s)
        if math.gcd(r, s) == 1
    ]


def read_golden(name: str) -> str:
    # Bytes as written: the CSV goldens end their lines in \r\n.
    return (GOLDEN / name).read_bytes().decode("utf-8")
