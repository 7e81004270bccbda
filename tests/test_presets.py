"""Built-in arrangements: the generic preset's output is pinned."""

import hashlib

import pytest

from milnorfiber import geometry, presets

# generic_text(n, seed) for seeds 1, 2, 3: the first 16 hex digits of the
# SHA-256 of its text, or None where the search fails with an InputError.
GENERIC_DIGESTS = {
    3: ("4df2091bfbe835aa", "caedf7debaf51913", "2b394999108cfb34"),
    4: ("1ab96645fded4077", "9ae10fcdf3de345c", "243b0acf7f05e093"),
    5: ("0875e4e08ba6b232", "8fe82284378cd29d", "f650e0efdd320f79"),
    6: ("dfa68ceb650ee2b0", "a39d099f4c3045f1", "7c6143c8e0c84d8a"),
    7: ("5f53e8a7de22a5f1", "0c2c3ffe8cddd38c", "b57944ccbea947db"),
    8: ("fbc10e047f2a1cc7", "45debe79fe564f36", "3e4b8dfafbea1c51"),
    9: ("ded9ff9b7990c48b", "30aa2e814151dec9", "eb42b793dd761289"),
    10: ("fbe545ce14ba2d16", "a6bccd79d348fb48", "b9a144744b92d76c"),
    11: ("e023dc8289cc96f8", "8612d2bd3628c9e5", "cb45a9742e381cfc"),
    12: ("6459c032153165d0", "fd5df9fb0f206af1", "c5e07adabc7070db"),
    13: ("7c54d6068c5982a8", "436ab248fd3c1a04", "36fe3765ebe247f1"),
    14: ("22b96edc428d7759", "c9af4690fd7823ae", "b4ecaf35a075b40d"),
    15: ("d29f0a91de10279b", "cd9d998006451b66", "d717859c8d4b0fa8"),
    16: ("4cf9c123e2b8759a", "e7cbd27f908096a7", "47170556704e5a7b"),
    17: ("34e5ca93abb110cf", "690565188e48032f", "fa7e65bb308ceec7"),
    18: ("e45292a387838801", "58571905a55554ab", "d16eb0d08a181e0f"),
    19: ("0d8cbf4104f5fe3c", "ce3da4b81f4d207c", "7abd694223866670"),
    20: ("86ffaef9e334e169", "2d992e8f16efbff2", "bb0644d1267d27a2"),
    21: ("f3fe96c48d562fdd", "1156daf71a940747", "83ad33f7e5ad6e7c"),
    22: ("dfd471344adba693", "6ba4e104cc6f7fff", "c4522dbdfa15af4e"),
    23: ("faea360e747f7bfa", "30225e91a25ffa0b", "14d5a54db04c8863"),
    24: ("1210f5b037e338f9", "ea61ea424e693510", None),
    25: ("d2f0a4110d0230eb", "ca695b4c0053e351", None),
}


@pytest.mark.parametrize("n", sorted(GENERIC_DIGESTS))
def test_generic_text_is_pinned(n):
    for seed, digest in enumerate(GENERIC_DIGESTS[n], start=1):
        if digest is None:
            with pytest.raises(geometry.InputError, match=f"no generic arrangement of {n} lines"):
                presets.generic_text(n, seed)
            continue
        text = presets.generic_text(n, seed)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, (n, seed)
        census = geometry.parse_arrangement(text).incidence.multiplicity_census()
        assert census == {2: n * (n - 1) // 2}, (n, seed)


@pytest.mark.parametrize("n", [26, 30, 40, 50])
def test_generic_text_above_25_lines(n):
    # past 25 lines the search draws from a wider coefficient range
    census = geometry.parse_arrangement(presets.generic_text(n, 1)).incidence.multiplicity_census()
    assert census == {2: n * (n - 1) // 2}
