"""Golden digests of the files `adaptls train`, `run` and `eval` write.

The SHA-256 of every timeline file was recorded with the earlier
implementation (a pure-Python sparse vector per sentence, and a rescan of
the topic for each selected date) on the mini dataset and on the planted
topics.  The shared CSR representation must reproduce them byte for byte,
with one documented exception (see BETA_OPT_TIE).

The digests of each run's manifest outputs (`l`, `k`, the knee), of its
`report.json` and of every regressor file were recorded later, with the
event ranking that still counted each cluster's dates in its own scan.
The regressor digests were recorded again when the ridge solve moved from
numpy to Python floats added in a fixed order; no weight moved by more
than 1.3e-14.
"""

import hashlib
import json
from pathlib import Path

import pytest

from adaptls.cli import main
from synthdata import planted_topics, save_topic

MINI_DIR = Path(__file__).parent / "data" / "mini"

RUNS = {
    "adprm-d": ["--method", "adprm-d"],
    "adprm-e": ["--method", "adprm-e"],
    "datewise-opt": ["--method", "datewise", "--constraint", "base", "--summarizer", "opt"],
}

# On 2021-03-20 of mini topic beta the four candidates share no token, so
# their rows are orthogonal and, after the first pick, adding any of "Polls
# opened early.", "Turnout was high." or "Results came later." gives the
# same cosine, sqrt(2)/2.  The earlier implementation computed
# 0.7071067811865477 for the second and 0.7071067811865475 for the others,
# so float rounding picked "Turnout was high."; the tie now goes to the
# earliest row, "Polls opened early.".  Earlier digest:
# 49f08f7bf2f91ddee2aa363e5e329e024e5a26c9818c6692c581812a5c6cd1b8
BETA_OPT_TIE = "6b963472202d154538b090419c1c211bab83f20d87aaccf3496af1534336607a"

DIGESTS = {
    "mini/adprm-d/alpha__ref.json": "8708ca3eabe4dd337fb8630572c256f15aa07080b9a90d89f59d6c0726312ee9",
    "mini/adprm-d/beta__ref.json": "294a399cfafe21a3f125286d31544f3930cbdb135a6467603b70a6db26b78cb3",
    "mini/adprm-d/gamma__ref1.json": "7b809f50e57784b31425f7bbbfd5c4ca8cfc22c3d41f6a37188fc0fb248dd8f4",
    "mini/adprm-d/gamma__ref2.json": "7b809f50e57784b31425f7bbbfd5c4ca8cfc22c3d41f6a37188fc0fb248dd8f4",
    "mini/adprm-e/alpha__ref.json": "bbeb04251bfb572dc5416066369450096f0bcb279f3875cdbd321fde6681d210",
    "mini/adprm-e/beta__ref.json": "294a399cfafe21a3f125286d31544f3930cbdb135a6467603b70a6db26b78cb3",
    "mini/adprm-e/gamma__ref1.json": "7b809f50e57784b31425f7bbbfd5c4ca8cfc22c3d41f6a37188fc0fb248dd8f4",
    "mini/adprm-e/gamma__ref2.json": "7b809f50e57784b31425f7bbbfd5c4ca8cfc22c3d41f6a37188fc0fb248dd8f4",
    "mini/datewise-opt/alpha__ref.json": "7863a8eb89873212702445a139fb4636e4cd4c2fbff1169f2b4d15edda169226",
    "mini/datewise-opt/beta__ref.json": BETA_OPT_TIE,
    "mini/datewise-opt/gamma__ref1.json": "7b809f50e57784b31425f7bbbfd5c4ca8cfc22c3d41f6a37188fc0fb248dd8f4",
    "mini/datewise-opt/gamma__ref2.json": "081bc40d83c8b06f3a1045302ebc672054e98def52615ad6d6da3e1e6b3a5a66",
    "planted/adprm-d/synth0__planted.json": "fdaf5057737d00cdf689d5e03fa534a6fcfb38fd589e1c381918bf0a554926c3",
    "planted/adprm-d/synth1__planted.json": "3e813d9ca4e40d0be9e70bd62b9b9e3fed60adfce3137d3befc1311584d4881e",
    "planted/adprm-d/synth2__planted.json": "dc51eb9ad9a3d443f83add1a6ad77c86c3673ef87033d100638800514f0164ad",
    "planted/adprm-e/synth0__planted.json": "c069e4a6b371e5cba5d6538da84ff94b5fa3180342a2b5f6278b1773180bf691",
    "planted/adprm-e/synth1__planted.json": "b4af50e69b9ba8bdbf1114b7093cc23ada567659dbb923f31adf40b9a7cdb889",
    "planted/adprm-e/synth2__planted.json": "6b10d206f9be24ce1d4aefc0965b2dbf15d83d125ad6126fd758372bea69a41e",
    "planted/datewise-opt/synth0__planted.json": "fdaf5057737d00cdf689d5e03fa534a6fcfb38fd589e1c381918bf0a554926c3",
    "planted/datewise-opt/synth1__planted.json": "3e813d9ca4e40d0be9e70bd62b9b9e3fed60adfce3137d3befc1311584d4881e",
    "planted/datewise-opt/synth2__planted.json": "dc51eb9ad9a3d443f83add1a6ad77c86c3673ef87033d100638800514f0164ad",
}

# SHA-256 of each run's `manifest["outputs"]` as canonical JSON (sorted
# keys, no spaces).
MANIFEST_OUTPUT_DIGESTS = {
    "mini/adprm-d": "174c829b7bd3fcb36a982763a4bc28eb60bfaced51e130b0ecfb1e1034697587",
    "mini/adprm-e": "47f8c6b1e515120cf8eef77041b23e93a23731e689247e399a1cd3f7dbd3687e",
    "mini/datewise-opt": "ef0ba328043182ccc3b61d811fda41aa5cae8817db9a5dd1fde95a1f6c1b94da",
    "planted/adprm-d": "1903baf5d4101d51344efbaf7e044c993196fcd1e40f62d5b643c0b2da02314a",
    "planted/adprm-e": "d796e45ddb313721ae8c093fbc560f1dfabfde552bcd87c16d7a492eebdeec98",
    "planted/datewise-opt": "0ab0ba580249b573745e364ab8849168280d294cbe2302774788a0e4947bdc57",
}

REPORT_DIGESTS = {
    "mini/adprm-d": "4c8d826f697d5eba9e14de81327de2b5b4f9c66c24589089699117563968a813",
    "mini/adprm-e": "71c08894febee48dff20b0b2aa883d1a9212fbef2b9041f417e34885be8e770a",
    "mini/datewise-opt": "b09ebed893347aa6b62c3f56e9ec2b87b183b7650be6cb22026914841530b0fa",
    "planted/adprm-d": "33c802282a271bb1def332d8bbec73112da5d26027498edb109b38c4df6333a4",
    "planted/adprm-e": "ba7209735c7956bac0b9f1e5998e6f3556135b233656319ebe1e5434f1332742",
    "planted/datewise-opt": "33c802282a271bb1def332d8bbec73112da5d26027498edb109b38c4df6333a4",
}

REGRESSOR_DIGESTS = {
    "mini/regressor_alpha.json": "bdbc2ba63e96a0338f0bcc184ea9787eaaeeac4e5d123f8f1c1c73ee68dde8fa",
    "mini/regressor_beta.json": "774a5ed6af334e2d3b6c5048468ddbe1f94c55aa23895f5a9b5656aad15e8308",
    "mini/regressor_gamma.json": "2ae50efb183e814ec449fc74d7ed0f73aa87ecc49c60f2cadedef7dd5d113b04",
    "planted/regressor_synth0.json": "1c674556b994806232085ac82cdb66174e676c920325d56337ab2d9d32c57282",
    "planted/regressor_synth1.json": "ac47b7ac6ba3ef0a1f2dc6dc5ee9f1bd492d81b724309d703f9a93a3cd91a3a8",
    "planted/regressor_synth2.json": "5bb02a87369a9c0dcd285c767cf99244b0f973f8324fd85aa5e9e94297b308fd",
}

# `--use-query-filter` on the planted topics, each queried for two of its
# words, recorded with the earlier pipeline, which annotated the filtered
# topic a second time.
QUERY_FILTER_DIGESTS = {
    "adprm-d/synth0__planted.json": "38dececbc658d7f5d739b3f666f1f61968fa67b5ee08240b0b6cc5d8cb6db523",
    "adprm-d/synth1__planted.json": "b90799671a5b29971cac34f8d848e960403a07ad08d3e95901ac6223ee7855bc",
    "adprm-d/synth2__planted.json": "e4a1fbc2afed8bd729f558dbfbcbc47f5ecfcdb9a299da00754728d688e2941a",
    "adprm-e/synth0__planted.json": "b0c3eefb829acd2a93bda9a36c2e667367e25c6a7481919342690c719bfcb877",
    "adprm-e/synth1__planted.json": "99c0ad990d70ddf5ff47b745095e27a97db435160be27a6009e2bf56d325f0c6",
    "adprm-e/synth2__planted.json": "90bd418ff3fc97f2e7493fe87ec55904e3c26513074118899e548099383623d8",
}


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    planted = tmp_path_factory.mktemp("planted")
    queried = tmp_path_factory.mktemp("planted-queries")
    for topic in planted_topics():
        save_topic(topic, planted / topic.name)
        topic.queries = ["flood", "rescue"]
        save_topic(topic, queried / topic.name)
    return {"mini": MINI_DIR, "planted": planted, "planted-queries": queried}


@pytest.fixture(scope="module")
def outputs(datasets, tmp_path_factory):
    """(regressors dir, output dir) of train, run and eval, once per dataset and run."""
    done = {}

    def produce(dataset, run):
        if (dataset, run) not in done:
            base = tmp_path_factory.mktemp(f"{dataset}-{run}")
            regressors, out = base / "regressors", base / "out"
            assert main(["train", str(datasets[dataset]), "--out", str(regressors)]) == 0
            argv = ["run", "--dataset-dir", str(datasets[dataset]), "--output-dir", str(out)]
            assert main(argv + ["--regressors", str(regressors), *RUNS[run]]) == 0
            assert main(["eval", "--pred", str(out), "--dataset", str(datasets[dataset])]) == 0
            done[dataset, run] = regressors, out
        return done[dataset, run]

    return produce


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("dataset", ["mini", "planted"])
@pytest.mark.parametrize("run", sorted(RUNS))
def test_timeline_digests(outputs, dataset, run):
    _, out = outputs(dataset, run)
    got = {
        f"{dataset}/{run}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.glob("*__*.json")
    }
    prefix = f"{dataset}/{run}/"
    assert got == {k: v for k, v in DIGESTS.items() if k.startswith(prefix)}


@pytest.mark.parametrize("dataset", ["mini", "planted"])
@pytest.mark.parametrize("run", sorted(RUNS))
def test_manifest_and_report_digests(outputs, dataset, run):
    _, out = outputs(dataset, run)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    canonical = json.dumps(manifest["outputs"], sort_keys=True, separators=(",", ":"))
    assert _sha256(canonical.encode()) == MANIFEST_OUTPUT_DIGESTS[f"{dataset}/{run}"]
    assert _sha256((out / "report.json").read_bytes()) == REPORT_DIGESTS[f"{dataset}/{run}"]


@pytest.mark.parametrize("dataset", ["mini", "planted"])
def test_regressor_digests(outputs, dataset):
    regressors, _ = outputs(dataset, "adprm-d")
    got = {f"{dataset}/{path.name}": _sha256(path.read_bytes()) for path in regressors.glob("*.json")}
    assert got == {k: v for k, v in REGRESSOR_DIGESTS.items() if k.startswith(f"{dataset}/")}


@pytest.mark.parametrize("run", ["adprm-d", "adprm-e"])
def test_query_filter_digests(datasets, run, tmp_path):
    dataset = datasets["planted-queries"]
    regressors = tmp_path / "regressors"
    out = tmp_path / "out"
    assert main(["train", str(dataset), "--out", str(regressors)]) == 0
    argv = ["run", "--dataset-dir", str(dataset), "--output-dir", str(out), "--use-query-filter"]
    assert main(argv + ["--regressors", str(regressors), *RUNS[run]]) == 0
    got = {
        f"{run}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.glob("*__*.json")
    }
    assert got == {k: v for k, v in QUERY_FILTER_DIGESTS.items() if k.startswith(f"{run}/")}
