import strip_solver


def test_every_public_name_resolves():
    # the lazy export table must not name anything its module lacks
    missing = [name for name in strip_solver.__all__ if not hasattr(strip_solver, name)]
    assert missing == []
