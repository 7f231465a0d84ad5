"""`hamdec analyze`, `hamdec montecarlo` and `hamdec sample` output is
pinned byte for byte.

Each digest covers stdout, stderr, the exit code and the written file:
the `--json` report of `analyze`, the `--csv` rows of `montecarlo`, the
`--out` graph of `sample` (whose path, echoed on stdout, is replaced by a
placeholder).  The graphons cover
every verdict branch: interior, boundary and exterior membership, no odd
cycle, a disconnected skeleton, and a graphon that needs refinement before
the constructive pipeline (ER-1/2).  Regenerate them (only for a deliberate
change of the output) with

    PYTHONPATH=src python tests/test_cli_digests.py
"""

import hashlib
import io as stdio
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest

from hamdec import cli, io
from hamdec.model import step_graphon

H = F(1, 2)
TRIANGLE = [[0, H, H], [H, 0, H], [H, H, 0]]
GRAPHONS = {
    "interior-triangle": step_graphon([0, F(1, 3), F(2, 3), 1], TRIANGLE),
    "boundary-triangle": step_graphon([0, H, F(3, 4), 1], TRIANGLE),
    "exterior-triangle": step_graphon([0, F(3, 5), F(4, 5), 1], TRIANGLE),
    "bipartite-even": step_graphon([0, H, 1], [[0, F(1, 3)], [F(1, 3), 0]]),
    "bipartite-exterior": step_graphon([0, F(3, 10), 1], [[0, H], [H, 0]]),
    "disconnected": step_graphon(
        [0, F(1, 4), F(1, 2), 1],
        [[H, 0, 0], [0, 0, H], [0, H, 0]],
    ),
    "er-half": step_graphon([0, 1], [[H]]),
}
MC_RUNS = [(40, 6, 1, 1), (61, 4, 7, 1), (30, 5, 3, 2)]  # n, trials, seed, jobs
SAMPLE_RUN = (97, 5)  # n, seed; n is not a multiple of 8
CASES = (
    [(name, "analyze", None) for name in GRAPHONS]
    + [(name, "montecarlo", run) for name in GRAPHONS for run in MC_RUNS]
    + [(name, "sample", SAMPLE_RUN) for name in GRAPHONS]
)

DIGESTS = {
    ("interior-triangle", "analyze", None): "18f6ab0718f31480186b7e64d7471fcb2f5ca18fb7011111cb1993e8f004e1bd",
    ("boundary-triangle", "analyze", None): "45eed962bde02d656ae5fecc120172da7baae1542b33db9f80604be9cf2807e4",
    ("exterior-triangle", "analyze", None): "8d40df6b788b7cb16d0e806ee16401fa54200fdec53e9e77efb2f3a97b4cb225",
    ("bipartite-even", "analyze", None): "812cf9ebbbc991aa2b7663277f632fe988e514d29dcf2feddd97b371ae63bb7c",
    ("bipartite-exterior", "analyze", None): "3f95df319c5fa3c10a304b242620fc47ea656af692b2dc434bc88df2a56e3404",
    ("disconnected", "analyze", None): "9c1f0f4d7280916c7699fa3340049af1a1af37629a1159e8dcf219deb243331d",
    ("er-half", "analyze", None): "8b7944e4fe43643f5d03d917b8380d8d1c971206d0c473bc8b2ab303725b8a13",
    ("interior-triangle", "montecarlo", (40, 6, 1, 1)): "ae1a2c2fd0fccf58fb5eaeec5cdd5ea60238143030c6ab6106a8deed06d2cd2f",
    ("interior-triangle", "montecarlo", (61, 4, 7, 1)): "327786442528cbce049925fe2d9f28076c073677ad5f37273140eb0e17d2487f",
    ("interior-triangle", "montecarlo", (30, 5, 3, 2)): "61d633b0dfab1cab2322c3f05bca5ff4e37839abbd527454b1a7eb0a0d40daed",
    ("boundary-triangle", "montecarlo", (40, 6, 1, 1)): "308f1e7f33e1ac66216503d9f5450a12dd49c8f05442b2d0c32be433da9c504d",
    ("boundary-triangle", "montecarlo", (61, 4, 7, 1)): "c7d0478f748a1752fee243318ab9d42b76db885e84bfa65074f666c42d3d252a",
    ("boundary-triangle", "montecarlo", (30, 5, 3, 2)): "7f80186bb69ae5d00eb8485b918afe874a2c5dfa24106db0f94e8f047e18b55f",
    ("exterior-triangle", "montecarlo", (40, 6, 1, 1)): "76540a3a0e7c66afe67ef8e11757511b761b1e81122bb36b48842fc898c5235c",
    ("exterior-triangle", "montecarlo", (61, 4, 7, 1)): "aeeec6dcd365af6436edffe557c094cb0f1c93eac2964e820d4fee6ff1a4916d",
    ("exterior-triangle", "montecarlo", (30, 5, 3, 2)): "37d861c9dd216f8b5e104a096bb9da3d825f1f04d787ee0f105b3ab8af08a5e9",
    ("bipartite-even", "montecarlo", (40, 6, 1, 1)): "76540a3a0e7c66afe67ef8e11757511b761b1e81122bb36b48842fc898c5235c",
    ("bipartite-even", "montecarlo", (61, 4, 7, 1)): "aeeec6dcd365af6436edffe557c094cb0f1c93eac2964e820d4fee6ff1a4916d",
    ("bipartite-even", "montecarlo", (30, 5, 3, 2)): "6721ceca189c7cceb5c6d2ed72e6ee55197801062b92d2c63fee14afc893cce3",
    ("bipartite-exterior", "montecarlo", (40, 6, 1, 1)): "76540a3a0e7c66afe67ef8e11757511b761b1e81122bb36b48842fc898c5235c",
    ("bipartite-exterior", "montecarlo", (61, 4, 7, 1)): "aeeec6dcd365af6436edffe557c094cb0f1c93eac2964e820d4fee6ff1a4916d",
    ("bipartite-exterior", "montecarlo", (30, 5, 3, 2)): "91072e6fd80685f1ecc5c18d57c53c0a231fa13f1ffc57eb10bac32f8fcde0a0",
    ("disconnected", "montecarlo", (40, 6, 1, 1)): "9972d21042f041e0f8f83d33e5c81acb2288cee160bbfcc43499e151c21643fb",
    ("disconnected", "montecarlo", (61, 4, 7, 1)): "aeeec6dcd365af6436edffe557c094cb0f1c93eac2964e820d4fee6ff1a4916d",
    ("disconnected", "montecarlo", (30, 5, 3, 2)): "91072e6fd80685f1ecc5c18d57c53c0a231fa13f1ffc57eb10bac32f8fcde0a0",
    ("er-half", "montecarlo", (40, 6, 1, 1)): "00241e67af992870dd80fdfc4821fbbfe88f1673bedd07c1e49ef66ea21cf087",
    ("er-half", "montecarlo", (61, 4, 7, 1)): "5a169778c00396f6a3313d551c80390c3cb031a66c9b1c4f097fefe2f4b7cb80",
    ("er-half", "montecarlo", (30, 5, 3, 2)): "eecb01f5f78a7deab4f9ffe2459e3fd2ebe70605879ef54ed91d7912a1cfe326",
    ("interior-triangle", "sample", (97, 5)): "1f5ddeee67338f9122dcc390bd6b0f16688e6edaa0da0847d2692106d7c2d6ec",
    ("boundary-triangle", "sample", (97, 5)): "f05411d3fb365419f26c4f54da76bcaea943835a49588929dbefad52702d9a4c",
    ("exterior-triangle", "sample", (97, 5)): "8fda52e183ebfe6940ab5634d8aa54ccef965c22d1c6c88f74b143abeaf9ee59",
    ("bipartite-even", "sample", (97, 5)): "662bb6537e8589df28eb3b65ec27a0d9b39bc5a9c9d34857e93dd40ecc198546",
    ("bipartite-exterior", "sample", (97, 5)): "79005a63d1633bac9aee174fbfc4b9e4bfdfeaba2d08b99b73973c4c458d5633",
    ("disconnected", "sample", (97, 5)): "4ee427754d82e791a45269f1403b6ad90dd60ba9fdff151c077b1b24105efa10",
    ("er-half", "sample", (97, 5)): "2a6b79b660794544354f1f81b2759eac164a29f50ef83841785854a749c2be72",
}


def cli_digest(tmp: Path, name: str, command: str, run) -> str:
    graphon = tmp / f"{name}.json"
    out_file = tmp / "out"
    if command == "analyze":
        args = ["analyze", str(graphon), "--json", str(out_file)]
    elif command == "sample":
        n, seed = run
        args = ["sample", str(graphon), "--n", str(n), "--seed", str(seed), "--out", str(out_file)]
    else:
        n, trials, seed, jobs = run
        args = [
            "montecarlo", str(graphon), "--n", str(n), "--trials", str(trials),
            "--seed", str(seed), "--jobs", str(jobs), "--csv", str(out_file),
        ]
    out, err = stdio.StringIO(), stdio.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(args)
    written = out_file.read_text(encoding="utf-8") if out_file.exists() else ""
    out_file.unlink(missing_ok=True)
    stdout = out.getvalue().replace(str(out_file), "OUT")
    blob = f"{stdout}\0{err.getvalue()}\0{code}\0{written}".encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("name,command,run", CASES)
def test_cli_output_pinned(tmp_path, name, command, run):
    io.dump_graphon(GRAPHONS[name], tmp_path / f"{name}.json")
    assert cli_digest(tmp_path, name, command, run) == DIGESTS[(name, command, run)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, w in GRAPHONS.items():
            io.dump_graphon(w, Path(tmp) / f"{name}.json")
        for name, command, run in CASES:
            digest = cli_digest(Path(tmp), name, command, run)
            print(f'    ("{name}", "{command}", {run}): "{digest}",')
