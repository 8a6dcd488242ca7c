"""The dense modes that tests compare the package's products against."""


def all_modes(basis):
    """Every mode of basis as one (n, m) array, in the modes' own dtype: a
    builder's table gathered (mode_rows), a hand-built basis's own array."""
    return basis.mode_rows(slice(None))
