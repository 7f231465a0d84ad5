"""`hamdec decompose` output is pinned byte for byte.

The Monte Carlo CSV only records success/failure bits, so it cannot see a
change in which cycles realization picks.  These digests cover the full
stdout, stderr and exit code of `decompose` on two graphons, four sizes
(odd sizes need a long cycle, so they reach the cycle embedding), two
seeds, with and without `--saturated`.  Regenerate them (only for a
deliberate change of the realized decomposition) with

    PYTHONPATH=src python tests/test_decompose_digests.py
"""

import hashlib
import io as stdio
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest

from hamdec import cli, io
from hamdec.model import step_graphon

GRAPHONS = {
    "triangle-half": step_graphon(
        [0, F(1, 3), F(2, 3), 1],
        [[0, F(1, 2), F(1, 2)], [F(1, 2), 0, F(1, 2)], [F(1, 2), F(1, 2), 0]],
    ),
    "er-half": step_graphon([0, 1], [[F(1, 2)]]),
}
CASES = [
    (name, n, seed, saturated)
    for name in GRAPHONS
    for n in (60, 61, 200, 201)
    for seed in (3, 11)
    for saturated in (False, True)
]

DIGESTS = {
    ("triangle-half", 60, 3, False): "5bd51288deb58a337a6fdc722d98edad92b92ebb56e0a32f0242331c8f61c1b7",
    ("triangle-half", 60, 3, True): "42282ff23989f95942ea3a5b6216e19e848ce75322ba5de61a232c11afa078ee",
    ("triangle-half", 60, 11, False): "4154fae65abd46528fdb0007744714d10b83441cded6d7544c001925a6b31991",
    ("triangle-half", 60, 11, True): "fc8b14aa77b81d67f6ce5cfb34ed07e1b830ec507fc0237dfb07d4e8e8d1af23",
    ("triangle-half", 61, 3, False): "0113c54ec42caa7d6082f80c544c01ee258107ec13d5bbc9d5ae491c5cf867fa",
    ("triangle-half", 61, 3, True): "70da786d3250a4b6a64f96a9821e423d40e632b561b82daae000aa5d3fc7605f",
    ("triangle-half", 61, 11, False): "59ab0ce834c6ac4206bb37b79c6ebc1fab236e556e48b5a077bde80d59132ed2",
    ("triangle-half", 61, 11, True): "9f788fe6a213be7949c86ff6f3dca30ad8ffa0866efcaebb2f9cb0f443a6ed01",
    ("triangle-half", 200, 3, False): "2206ca67e606019e6e54bf70d30a8554179c2d0978364f3fe153ea4cf4fa45ad",
    ("triangle-half", 200, 3, True): "0dfeeb4a98bc544351a721654d4261112f561b6e84cc46ac18319deba97c181d",
    ("triangle-half", 200, 11, False): "ad4b401ec73f3b44a8413d2bd4702ab2c9318deafbd0d4a73fa7880aec27a2a1",
    ("triangle-half", 200, 11, True): "f6d2def93f32c4ecd1734f62fd940e02ec8d32531e39ffafc1fcecf9fe91dabb",
    ("triangle-half", 201, 3, False): "c3298b3374f74e4aa7bcd3a263796ed5208f804c279ea8bd3534f35e119261c4",
    ("triangle-half", 201, 3, True): "808c74b15d35cbb6744ceb05253052010b40b9ca464f8b529fbfd4801723410d",
    ("triangle-half", 201, 11, False): "d0f16dcb658fe449473da6329338bde797370f3ceb031a8db7f2fc212c7af110",
    ("triangle-half", 201, 11, True): "488b65ceac2eb740d938adf3f72ecc3686c39a4ba1c442cf45bbd94adec5635f",
    ("er-half", 60, 3, False): "d68f8cee174bf160d4ada8be74a4b8df1c4155abf244e7c82e4100f23e3ed3d8",
    ("er-half", 60, 3, True): "94cb5f44a617f0cb56411549c87bed159739b42d018f47e2641a6a1734c33733",
    ("er-half", 60, 11, False): "fa0d18d7dcafda121c50d42632040b39e54b65b7c66c615e2d16f47b32bc3e80",
    ("er-half", 60, 11, True): "f732fbeb754f93870a65557bea9f606336620ab9a19fa2d7305bccc33882b6d7",
    ("er-half", 61, 3, False): "4da179e7f936a5216648e93172eedfeef3875b862693b3417371a60402867140",
    ("er-half", 61, 3, True): "03c945b2cdaad8ebb0a1432594f88bf5ef676891f491ba3447b33266d737e138",
    ("er-half", 61, 11, False): "1af9de9e4f3eba639aee422b1e52c11fdf1af2cbf84428a4f2135acaec38f6fe",
    ("er-half", 61, 11, True): "dc2fe0507340d6270bef990473af6a6be371e3e0abb03f622a8575958abd96f2",
    ("er-half", 200, 3, False): "39cc8c53c7528dcb32dca65dc7c879c7b42b25dbc5498fd616e70f691667c294",
    ("er-half", 200, 3, True): "59c426251a73faf0c670b6767a294838991a47007edf9592a7facc5da65cdcc8",
    ("er-half", 200, 11, False): "8147e7c66512ab35e1bb5c6eb58507953b6427f02cb1b130b318e9f460f1e637",
    ("er-half", 200, 11, True): "9dd0861fd6b776c1b4c55bd2d40419363ac88f721af16a4e8a4cc18f18728551",
    ("er-half", 201, 3, False): "d6fd62fba743921750ce54787be4cdfa57b1edcd45e86f0def21923598023e47",
    ("er-half", 201, 3, True): "d9ae6125be0babc026c00d4faf098f066e7099f82f21e9a8cbec38ae5f395994",
    ("er-half", 201, 11, False): "87fed27c12ac646b9c76f575ff0d24bfd17e1c57060431f14e094cdbfd0849da",
    ("er-half", 201, 11, True): "eba6b9a2c36939f93152b2c5a9fb2b30236cb302d53e9ed61d3acb3a7b4d32f1",
}


def decompose_digest(path, n, seed, saturated) -> str:
    args = ["decompose", str(path), "--n", str(n), "--seed", str(seed)]
    if saturated:
        args.append("--saturated")
    out, err = stdio.StringIO(), stdio.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(args)
    blob = f"{out.getvalue()}\0{err.getvalue()}\0{code}".encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("name,n,seed,saturated", CASES)
def test_decompose_output_pinned(tmp_path, name, n, seed, saturated):
    path = tmp_path / f"{name}.json"
    io.dump_graphon(GRAPHONS[name], path)
    assert decompose_digest(path, n, seed, saturated) == DIGESTS[(name, n, seed, saturated)]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for name, w in GRAPHONS.items():
            io.dump_graphon(w, Path(tmp) / f"{name}.json")
        for name, n, seed, saturated in CASES:
            digest = decompose_digest(Path(tmp) / f"{name}.json", n, seed, saturated)
            print(f'    ("{name}", {n}, {seed}, {saturated}): "{digest}",')
