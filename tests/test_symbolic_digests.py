"""Bit-for-bit pins of the symbolic analysis of every collection matrix.

Every paper table is built on these assembly trees, so a rewrite of the
ordering, elimination-tree or column-count code must reproduce them
exactly.  Each matrix is analysed once through ``analyze_matrix`` with its
stage functions spied on, and three sha256 digests are compared: the
nested-dissection permutation, the column counts, and the assembly tree
(npiv, nfront and parent of every front).
"""

import hashlib

import numpy as np
import pytest

from repro.matrices import collection
from repro.symbolic import driver
from repro.symbolic.etree import elimination_tree

#: name -> (ND permutation, column counts, assembly tree) sha256 digests.
DIGESTS = {
    "BMWCRA_1": (
        "c8c09322bc8527725dd802691eb4c6f1c3698e98c961398681b5b22090214eb4",
        "d6658c134033a86e89256a7bb61617a2de835458706c4a4b5c53a4fe1af76e93",
        "a39721067c6a462024c0c0ea917eb68c22fa06ee12142f853a13cf68bba4dc2b",
    ),
    "GUPTA3": (
        "09de385bf37094b5424944692e6887f1abda792e9368367ae0ef3f9b9c12be51",
        "db000a88b68c87ccc1f115cedda2cdafb9a13c2ab7ee2c435b837ca268da3f26",
        "154d07338afe0b8013e0f3ea393b32953cda4478998f6005f48c2d6191ad85a9",
    ),
    "MSDOOR": (
        "0ffb1bcd1dfb8d4f93927c05fc4374f3afdb8a0b99f817052c433ff54c31dfee",
        "dafdd4271b2933d7c7405ad262e25b0b9e2615f8f99cb70ade98f6a9efc6fd45",
        "1600f3fec73a5b20f97e81c7555744e3d4417be3fc71b2619bf7ffdd470e85db",
    ),
    "SHIP_003": (
        "4e730db542620fd53d967e155c660d05f698a239fb463aa7d5765f9364aea1d9",
        "3ebdd5c1d9edc2c50dca81dd676ede35c2558d0405072de9b06ffefa5d808a0c",
        "204731f09b0dce39c25c3ad3a514c6a1eccd468b56789c49cd382f76a8f6133e",
    ),
    "PRE2": (
        "a57d0efaefb16bdcd370741c52574e128dda3f61d9cdb70e7b277d2dbc52007f",
        "da32b47b7db9ae95ae761217975e9ce7ed49809dc9dcd5a9be4cec5ab03db82b",
        "64e1ea7e0e2c8a70b5a0795bb476700a3a9db668e726c963439d89b2dc08b8c7",
    ),
    "TWOTONE": (
        "c14221c191c1714b077c488cbb5075b6c0b2ea74784e26bf35d7b4620bd1cb69",
        "cf9496eea68fe82d2b2f7180436537d9c52178f9e01fb31bf0b4edd1b058cbf4",
        "f171096f92119440db177d0de2efcac48722ef67bae3343693c7b2c6f8ff4ec1",
    ),
    "ULTRASOUND3": (
        "19cd9577bded76323885ad4ea4141fe16f2ee0ebb29722330dc9614b0f6fe3e9",
        "9848ec69a5f6d934476e050ac5d72a6adb2fe0cc5d2f28255885706efa3a3c07",
        "f1e9fee38ce7b2de8320658e0b9ab12d6acf5b7f3847de2b8623f959fa20f708",
    ),
    "XENON2": (
        "794b87a506b21f4fdf8f052e85de2e8e6a07bbb90abc0329b399a4a143273b20",
        "ebb59f039422527cc367b419785e32558e11dcfa9847bf31f39515bea8eb1250",
        "b48147ebaf37307fd78bb391e1f62f51eb2dd72c44b83477f1da4c165d0f4fad",
    ),
    "AUDIKW_1": (
        "c6c99878c82446fe9b1cf89114055cf64656441e829ad2aee10a2c23cdfaea4e",
        "f939e677746af1fd2e14e2b0c9f734edc0e5ebb041b7811e1eeb7b895862d152",
        "1b1a5d80ef3335fd9eec16da4d76b16ed842f33ea3b008d7eceba9ea4aa122c5",
    ),
    "CONV3D64": (
        "d39d7ed7142f6e54ac915f6cc8be06be7c821bcaae51646dc995a173d04b225e",
        "b68f70a95ad659ee126253f3f1d4f4eeae94b20d6429e61bfc5dd9ff5bc68da5",
        "6a99bc4375c0608f6b8905f96fe88c1b9765f032901d07295411349a6b43b49d",
    ),
    "ULTRASOUND80": (
        "f0ea23956be4e9c9a5eedd7dbed2641c9ed774ab9d32372c5df529eec7582dee",
        "beac48c815f1a1519f21a998089429d7327c5cb5874a31ccc1142109fe760108",
        "4c77e72109f1fc1b30161f2a5091144f66768985618e3989acc454fa0cb22415",
    ),
}


def _digest(values) -> str:
    data = np.ascontiguousarray(np.asarray(values, dtype="<i8"))
    return hashlib.sha256(data.tobytes()).hexdigest()


def _spy(monkeypatch, name, calls):
    fn = getattr(driver, name)

    def spy(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(driver, name, spy)


@pytest.mark.parametrize("name", collection.ALL_NAMES)
def test_analysis_digests(name, monkeypatch):
    orderings, counts = [], []
    _spy(monkeypatch, "compute_ordering", orderings)
    _spy(monkeypatch, "column_counts", counts)
    problem = collection.get(name)
    tree = driver.analyze_matrix(problem.matrix, sym=problem.sym, name=name)

    (_, perm), = orderings
    ((Bp2, parent2), cc), = counts
    # The etree handed to column_counts is the etree of the postordered
    # matrix, however the driver obtained it.
    assert np.array_equal(parent2, elimination_tree(Bp2))
    fronts = [(f.npiv, f.nfront, f.parent) for f in tree]
    assert (_digest(perm), _digest(cc), _digest(fronts)) == DIGESTS[name]
