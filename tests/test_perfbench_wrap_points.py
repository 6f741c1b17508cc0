"""perfbench's traced runs wrap the attributes ``perfbench.ledger`` names;
a renamed or moved one would make every traced run die, so it fails here."""

from perfbench.ledger import LAYERS, wrap_points


def test_every_wrap_point_is_an_attribute_its_owner_defines():
    points = wrap_points()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in points
        if attr not in vars(owner)
    ]
    assert not missing, f"wrap points with no such attribute: {missing}"
    assert {layer for _, _, layer in points} <= set(LAYERS)
