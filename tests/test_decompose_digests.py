"""`hamdec decompose` output is pinned byte for byte.

The Monte Carlo CSV only records success/failure bits, so it cannot see a
change in which cycles realization picks.  These digests cover the full
stdout, stderr and exit code of `decompose` on two graphons, four sizes
(odd sizes need a long cycle, so they reach the cycle embedding), two
seeds, with and without `--saturated`; and at n = 1000, 1001 for one seed,
where the 2-cycle groups are dense enough for the row-scanned matching;
and at n = 2..7 for three seeds, where every stage fails somewhere: the
membership check (boundary and exterior, with and without refinement), the
tally's postconditions, the loopless membership and both realization phases.
Regenerate them (only for a deliberate change of the realized
decomposition) with

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
] + [
    (name, n, 3, saturated)
    for name in GRAPHONS
    for n in (1000, 1001)
    for saturated in (False, True)
] + [
    (name, n, seed, saturated)
    for name in GRAPHONS
    for n in range(2, 8)
    for seed in (1, 2, 3)
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
    ("er-half", 60, 3, False): "cb2cedb6fa7a4bbf46816be164c043dc1d2d37e98ebd2cb2ec58e3098f9a9892",
    ("er-half", 60, 3, True): "94cb5f44a617f0cb56411549c87bed159739b42d018f47e2641a6a1734c33733",
    ("er-half", 60, 11, False): "fa0d18d7dcafda121c50d42632040b39e54b65b7c66c615e2d16f47b32bc3e80",
    ("er-half", 60, 11, True): "f732fbeb754f93870a65557bea9f606336620ab9a19fa2d7305bccc33882b6d7",
    ("er-half", 61, 3, False): "4da179e7f936a5216648e93172eedfeef3875b862693b3417371a60402867140",
    ("er-half", 61, 3, True): "03c945b2cdaad8ebb0a1432594f88bf5ef676891f491ba3447b33266d737e138",
    ("er-half", 61, 11, False): "9571d3bc572acb7f6d70267ff1c4724f0c8f2f33bd38fb16627c16d2e7cb874f",
    ("er-half", 61, 11, True): "dc2fe0507340d6270bef990473af6a6be371e3e0abb03f622a8575958abd96f2",
    ("er-half", 200, 3, False): "39cc8c53c7528dcb32dca65dc7c879c7b42b25dbc5498fd616e70f691667c294",
    ("er-half", 200, 3, True): "59c426251a73faf0c670b6767a294838991a47007edf9592a7facc5da65cdcc8",
    ("er-half", 200, 11, False): "8147e7c66512ab35e1bb5c6eb58507953b6427f02cb1b130b318e9f460f1e637",
    ("er-half", 200, 11, True): "9dd0861fd6b776c1b4c55bd2d40419363ac88f721af16a4e8a4cc18f18728551",
    ("er-half", 201, 3, False): "d6fd62fba743921750ce54787be4cdfa57b1edcd45e86f0def21923598023e47",
    ("er-half", 201, 3, True): "d9ae6125be0babc026c00d4faf098f066e7099f82f21e9a8cbec38ae5f395994",
    ("er-half", 201, 11, False): "87fed27c12ac646b9c76f575ff0d24bfd17e1c57060431f14e094cdbfd0849da",
    ("er-half", 201, 11, True): "eba6b9a2c36939f93152b2c5a9fb2b30236cb302d53e9ed61d3acb3a7b4d32f1",
    ("triangle-half", 1000, 3, False): "ee9c23c9f3225b4a5d4e78c6bb41093b6fea8d4da0b55f92af8e12f8a7f1ac0a",
    ("triangle-half", 1000, 3, True): "f0966059e9cc18bbbda736399ddff3a06874ab6cf4d336825d4e4472d147686e",
    ("triangle-half", 1001, 3, False): "be73351bc42b2e796b006b0fb770fd60687917e6bc0a1093d8cffada0aac14e3",
    ("triangle-half", 1001, 3, True): "8893e82d8a9ff411cf6cb39640d8f8926dbcc799d8c01020bed7a3d8474c51a1",
    ("er-half", 1000, 3, False): "d145c10e01512023caec30e56f8be76cce0472527b6eaa3a86891e4cb1ddeb20",
    ("er-half", 1000, 3, True): "fd15dc56734ec149bc3973a540d18840bd3d639e67dcc523e57c5a3d1e6887b9",
    ("er-half", 1001, 3, False): "f7b8ddb28bd2882e3746f8ff2dcbb58925db972ebc6ad06a9304fc1a8f4a7865",
    ("er-half", 1001, 3, True): "d28723f72f2de1e42831b15fbd88dcef6b9269a558de53b56d49b2e85b5749f1",
    ("triangle-half", 2, 1, False): "7e28e4b4866e87b7542dffeff97b69bcaccce1e973b4abfbd3845e8074aa9486",
    ("triangle-half", 2, 1, True): "7e28e4b4866e87b7542dffeff97b69bcaccce1e973b4abfbd3845e8074aa9486",
    ("triangle-half", 2, 2, False): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("triangle-half", 2, 2, True): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("triangle-half", 2, 3, False): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("triangle-half", 2, 3, True): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("triangle-half", 3, 1, False): "7e28e4b4866e87b7542dffeff97b69bcaccce1e973b4abfbd3845e8074aa9486",
    ("triangle-half", 3, 1, True): "7e28e4b4866e87b7542dffeff97b69bcaccce1e973b4abfbd3845e8074aa9486",
    ("triangle-half", 3, 2, False): "7e28e4b4866e87b7542dffeff97b69bcaccce1e973b4abfbd3845e8074aa9486",
    ("triangle-half", 3, 2, True): "7e28e4b4866e87b7542dffeff97b69bcaccce1e973b4abfbd3845e8074aa9486",
    ("triangle-half", 3, 3, False): "7e28e4b4866e87b7542dffeff97b69bcaccce1e973b4abfbd3845e8074aa9486",
    ("triangle-half", 3, 3, True): "7e28e4b4866e87b7542dffeff97b69bcaccce1e973b4abfbd3845e8074aa9486",
    ("triangle-half", 4, 1, False): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("triangle-half", 4, 1, True): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("triangle-half", 4, 2, False): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("triangle-half", 4, 2, True): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("triangle-half", 4, 3, False): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("triangle-half", 4, 3, True): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("triangle-half", 5, 1, False): "7e28e4b4866e87b7542dffeff97b69bcaccce1e973b4abfbd3845e8074aa9486",
    ("triangle-half", 5, 1, True): "7e28e4b4866e87b7542dffeff97b69bcaccce1e973b4abfbd3845e8074aa9486",
    ("triangle-half", 5, 2, False): "162d28311740c2ff06ef6ee97268433c4cbc8a2f050e1046a9eb785ccf8a550d",
    ("triangle-half", 5, 2, True): "120c5c11e558ed12fa3355e8612ae90d088def676748a3094fdfd9891495934b",
    ("triangle-half", 5, 3, False): "323089caed3fc7e267139d4f630d62c313e5c834b2575cf1a5050ff87c06d8df",
    ("triangle-half", 5, 3, True): "ef393daecd0badc0f72c7936e0bc99e39b1cc739cddc03d3ffd043b75168ecac",
    ("triangle-half", 6, 1, False): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("triangle-half", 6, 1, True): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("triangle-half", 6, 2, False): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("triangle-half", 6, 2, True): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("triangle-half", 6, 3, False): "a0f93c7eabd97f91d382e90a34424e7593f99a79d0a27cf3aab1ea29ab1bd9d8",
    ("triangle-half", 6, 3, True): "efbcafa6431577b075a31cd5007b2a7f0681f45e1243a2feebd5d9a6f2877a93",
    ("triangle-half", 7, 1, False): "7e28e4b4866e87b7542dffeff97b69bcaccce1e973b4abfbd3845e8074aa9486",
    ("triangle-half", 7, 1, True): "7e28e4b4866e87b7542dffeff97b69bcaccce1e973b4abfbd3845e8074aa9486",
    ("triangle-half", 7, 2, False): "162d28311740c2ff06ef6ee97268433c4cbc8a2f050e1046a9eb785ccf8a550d",
    ("triangle-half", 7, 2, True): "4bbde0e74a31f666ca444bf71c1ecad3c5a04b7757420c9aeb8c71562f1c2067",
    ("triangle-half", 7, 3, False): "727f1a27fd56c8bcbabf573624b35207e8c7d007ea5e74962b4c8770db1e9c77",
    ("triangle-half", 7, 3, True): "8d28b60891f2d397342a85522a2ad984d5e7c693a44f9f787de49b0ebcdd47e8",
    ("er-half", 2, 1, False): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("er-half", 2, 1, True): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("er-half", 2, 2, False): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("er-half", 2, 2, True): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("er-half", 2, 3, False): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("er-half", 2, 3, True): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("er-half", 3, 1, False): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("er-half", 3, 1, True): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("er-half", 3, 2, False): "56ab82ed3248cbb679fc0d352a90aea8a4fed49b52e32733d856d1010b836977",
    ("er-half", 3, 2, True): "56ab82ed3248cbb679fc0d352a90aea8a4fed49b52e32733d856d1010b836977",
    ("er-half", 3, 3, False): "56ab82ed3248cbb679fc0d352a90aea8a4fed49b52e32733d856d1010b836977",
    ("er-half", 3, 3, True): "56ab82ed3248cbb679fc0d352a90aea8a4fed49b52e32733d856d1010b836977",
    ("er-half", 4, 1, False): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("er-half", 4, 1, True): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("er-half", 4, 2, False): "d5580e96c99f8178d9482a06ddcf7cca50121e13a69f0f2e587b77d2c2e74f0c",
    ("er-half", 4, 2, True): "d5580e96c99f8178d9482a06ddcf7cca50121e13a69f0f2e587b77d2c2e74f0c",
    ("er-half", 4, 3, False): "d5580e96c99f8178d9482a06ddcf7cca50121e13a69f0f2e587b77d2c2e74f0c",
    ("er-half", 4, 3, True): "d5580e96c99f8178d9482a06ddcf7cca50121e13a69f0f2e587b77d2c2e74f0c",
    ("er-half", 5, 1, False): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("er-half", 5, 1, True): "12e363cb191b5b6f1de7f494ed13be6a511c85b097c06fafea8c8637113a13d8",
    ("er-half", 5, 2, False): "e71e211257595d1a35fa30675abe4f74d00fb44b3872c6f666e8e241853aa736",
    ("er-half", 5, 2, True): "e71e211257595d1a35fa30675abe4f74d00fb44b3872c6f666e8e241853aa736",
    ("er-half", 5, 3, False): "d7cdc5ccee74099af027bc6e16b4955b45a6c1d881c36a6686da51a86c71f885",
    ("er-half", 5, 3, True): "d7cdc5ccee74099af027bc6e16b4955b45a6c1d881c36a6686da51a86c71f885",
    ("er-half", 6, 1, False): "7c4ef18989344a422c56f322aa14bfd3b5228e203dafae035277cc9f1413897a",
    ("er-half", 6, 1, True): "7c4ef18989344a422c56f322aa14bfd3b5228e203dafae035277cc9f1413897a",
    ("er-half", 6, 2, False): "7c4ef18989344a422c56f322aa14bfd3b5228e203dafae035277cc9f1413897a",
    ("er-half", 6, 2, True): "7c4ef18989344a422c56f322aa14bfd3b5228e203dafae035277cc9f1413897a",
    ("er-half", 6, 3, False): "59df51378bcc8b7fc7cdc4b2a274df2743a216f76566d4d9ea73c458641bbb48",
    ("er-half", 6, 3, True): "59df51378bcc8b7fc7cdc4b2a274df2743a216f76566d4d9ea73c458641bbb48",
    ("er-half", 7, 1, False): "75daf5ac33cca3457844cbdd4ecc9e7f37b8714268458f1c62d89e7ec33f41ea",
    ("er-half", 7, 1, True): "75daf5ac33cca3457844cbdd4ecc9e7f37b8714268458f1c62d89e7ec33f41ea",
    ("er-half", 7, 2, False): "d7cdc5ccee74099af027bc6e16b4955b45a6c1d881c36a6686da51a86c71f885",
    ("er-half", 7, 2, True): "d7cdc5ccee74099af027bc6e16b4955b45a6c1d881c36a6686da51a86c71f885",
    ("er-half", 7, 3, False): "d7cdc5ccee74099af027bc6e16b4955b45a6c1d881c36a6686da51a86c71f885",
    ("er-half", 7, 3, True): "d7cdc5ccee74099af027bc6e16b4955b45a6c1d881c36a6686da51a86c71f885",
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
