"""Byte-level golden contract for the files a run and a sweep write.

Every shipped ``circle24_*`` scenario is run through ``pcosync run`` at its
own horizon for seeds 0-2, and the conventional and quorum_n attacked
scenarios also at 12,345,678 ticks, a horizon off the 1/100-period phase
cadence. The sha256 of ``events.jsonl``, ``phases.csv`` and ``summary.json``
must match the table below, as must ``aggregate.json`` of a 50-run sweep of
``sweep_quorum_n_attacked.json``. A change to these bytes is a declared
output-schema change: re-record the table and say why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from pcosync.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
RUN_FILES = ("events.jsonl", "phases.csv", "summary.json")

# (config, seed, horizon override or None) -> digests of RUN_FILES
RUN_DIGESTS = {
    ('circle24_conventional_clean.json', 0, None): (
        'fff42801033705297a5b19f4fa70df9f388a839fa8a49c5c0b934d186e024d56',
        '92b21de91fe3b89bb622e4c7f43bd9d6d94b59d6bd3af90b13d17bc850abf14c',
        'f4635d9f367e5bddbe44836444d10dfdafa9dce0a7884a48f8b6efe859cd676b',
    ),
    ('circle24_conventional_clean.json', 1, None): (
        '259939863d06cbb6a7fa69e72a49d56b9ae835a801f4743c6874ece47b56d5cb',
        'd48c0f16f87b6c41b7c0e598b350f85c2f7fb0f7da57a337a26f490b1d76f802',
        '5ccf415b5d32f389f67fb9b738d8f17874757bc05d8798e484551449d8cb3e61',
    ),
    ('circle24_conventional_clean.json', 2, None): (
        'c00cd0db908d7f4b8d186d456d65bf76397488adebff3f8451341f767c0cb853',
        'f40091b952725051fdfead2810d72e5d934b9dd6f9cb72d332bdf54b70fd2e49',
        'f7d9adc7ed1234bf1582c5b880ad5441500e8e1d044b9864cce202d58d1196ea',
    ),
    ('circle24_quorum_degree_attacked.json', 0, None): (
        '69b98b8c4fd8480753334a92d2a0f54c3a3d860c3dbe124dd53f569a4b2141de',
        '9968b34170d583cad4d900d31c5cbf007e9bb81e7041c0eeef309f4b0b159e03',
        '60892ad3fbfd56f099db70f786fee2d13067cae687a3c31223a09be6367d9e56',
    ),
    ('circle24_quorum_degree_attacked.json', 1, None): (
        '72f79261943afc0bad587f1d874f09734aacea4ad047ab8b67f53d5497db17b3',
        '54eb8ec1944ae7676be447b315d5761ae86f186380cb5c45960328365b464680',
        'c191bb3f57c4594baedd97465872c8a294537c2dcce769fb2cecb8f4138a953f',
    ),
    ('circle24_quorum_degree_attacked.json', 2, None): (
        '03a49d8917e04d1e2f914c114acfbc727d64b64d42e7d890ea27856c52725aac',
        'a61494771267a60a0820aa846457b5326c219f142e0dab52974450d4b14ba73e',
        'c21687f4fa5328e136f25d427d5f6537a258fc6e84868124f7e059cbff50bf88',
    ),
    ('circle24_quorum_degree_clean.json', 0, None): (
        '6fee88696e8eb5edd83d34f1fa9e6685e5b9799aca25b9dc53574f4826c55eae',
        'c02db680fef00598c00c7ba9e29dd29189e7e4397f07dfa0b7e70d2194d66808',
        'bd324f857b0aea55df3070ff34c32898b1966e9b2ec0f82b808f35c0242d4ee7',
    ),
    ('circle24_quorum_degree_clean.json', 1, None): (
        '1fb3cf91782762b4c9978ca9f857428e80cbfd11754be3b6c2bbe10a8e92372d',
        '034d3184b5a4e68688a01490042bedde364628261d622a150530d710dbb8010e',
        '5f9d42fe45dd7c862e13db137ee8b2cae054675fd4b591c474f04fe22caca6d7',
    ),
    ('circle24_quorum_degree_clean.json', 2, None): (
        '7c738df91aa80ee66ac9549916e32d89a2159643226ab57b9444d77066b9eb90',
        'c67b84464ebfe4adbe29d0ed2cc9d79635e61ad8b70f2dad5ff7f909735cde83',
        '0bf5b6dd8e9cc3dc5ef9d159a4ce8c3dff19abf4c32c2514edbd8644f1c94480',
    ),
    ('circle24_quorum_degree_overbudget.json', 0, None): (
        '4e4d46ca0f36f8833bb55d592851a91efb4bdecc85ff3c33a68ff19360e289a9',
        '2f4719e137924302ddb5551d315db3c05018eb0fe8a6d089c4fd42b50c9a7697',
        'f804460f567ffc05350382666fcb3a0f479774d1ea26e16bf9dcf2e8c46dfd65',
    ),
    ('circle24_quorum_degree_overbudget.json', 1, None): (
        '4cd28fe994ae0c927e3e2c7a005e0a5d1c32ce807a066b3f3e36b0da844aa86a',
        '8d6c5d53318f15b5b7c8a2d7f186c42894ee4efc30a4c93b6f7e4acaf5478208',
        'd4b41d0245592fa30f6398aa60633b31ea6b7fa0bb5ce9ec92a5636872d1a7e4',
    ),
    ('circle24_quorum_degree_overbudget.json', 2, None): (
        'f95a8f3be609cdfeb176b4ef7c6db76cc2fa455e7bce64bfe743e4305dc403fe',
        'd8ee0540f80da388988cd8a9834c5192795aac97102f7a91026880c756ae37e5',
        '033949df3699e42da5c880b0bee552885ca96b1d1d47223327445885fc8fdc97',
    ),
    ('circle24_quorum_n_attacked.json', 0, None): (
        '3f093bfcc9ce3b7d38b829b41819e04fbfe5b9602962b468bb0fb85bb05d2fb6',
        'f8984364d4414f27eedaeaf8009a63b4e2df82ebb8642218fb946d49272348a0',
        '3152da425a92b68f1bc3d7241830b12a5bdc2e9f1a5e3c7501fa257209b6f9ff',
    ),
    ('circle24_quorum_n_attacked.json', 1, None): (
        '34225ccd4937236891e83102fbbbd1b3b2068602cd3b8a2d3224a3cc0fdda16b',
        '74989a36f03d3771a09f137f1ae9a871fa2189999f3917237e5a775c61695777',
        '361434b81d49697a329736ddd18fdb886c18c7cde525a84a1d9d37f80f66bdd6',
    ),
    ('circle24_quorum_n_attacked.json', 2, None): (
        'b9227a87adce94fd74423a293099aa99d4e44a7551cecdfba5261a4263fd5af8',
        '755a34949399946f8937db7d6e3221abf4edc3c49efe86e449f30d12222f5245',
        'fcf0ada0a61cb9ac03787c96e64af663e6ceb48cfccd556f3a2cb3e87b4df941',
    ),
    ('circle24_quorum_n_clean.json', 0, None): (
        '73cc8024bfa2de98af9f0e76ce4fb60eb9883428323493bced7f5a32162593b7',
        'b3a36bd2d69d5427e720ed956c271ee3e58fe41450b28bf7b01d9052af1fceb7',
        '8a076fa1b063544101c0fb5a53ac77e645a6bd73d3609d61f82f033d162cf725',
    ),
    ('circle24_quorum_n_clean.json', 1, None): (
        'ee39fab0457fca5a0dcdddb576452eeef23e1ba1be5234b1cc0b2a7ecee94913',
        '0f27580c73ce55bd503dbf61e1b074c6f198e35ae64bd01628f38d10d1ed30df',
        'cee3a509a4577e6aeabebb0afc7cfee910eda3d916fe351382d6a69b8c2471eb',
    ),
    ('circle24_quorum_n_clean.json', 2, None): (
        'e497d10d53e96150ff4c825b5b83e686990e8e591104aa524555baf4bb320175',
        '1ff22ed1141ac153545e6fa1bb73e6c65ffaa5147db358beaf75edd2a61ff441',
        '94cd2eb4124ada89e642702aa4781886a66d5f384cb58198532fac1c474ab21d',
    ),
    ('circle24_conventional_clean.json', 0, 12345678): (
        'f436f81c29702b07eb2d25b612a1f02564cdee39f5341ed42c6c3fda420c2f88',
        '8de58f885a2b077f370d7e9a84d35180323f08d1f10773e350b46c860b2b78d5',
        'e706111a31fc8cf1c0ea15bb5cd902cb8af838caa2124046527241e54f2e1578',
    ),
    ('circle24_conventional_clean.json', 1, 12345678): (
        '76cd31871db0ab94f2754e7c43b8dbcd23223f61b583ecf258b51cb281cf716f',
        '4a69adbe84b7ddc3ce398da8619644bb516181f090d327b166eb125f6d6d544e',
        '22ea93c04f72d0a3756a4badcc624eb43a82390300575f5084180ea04fb8b0be',
    ),
    ('circle24_conventional_clean.json', 2, 12345678): (
        'd19a86c3393b58e95242cabd04125d24e00ff2be482a5f08a7ca8c4a839404d3',
        'f08dc8622107c7dfb72095e42c413cd652753a5efe95763a4acae22c0a01afe4',
        '37a094e32215e61423ec1e4404c638d3ac56cb7a225e51b681a4da82b0def978',
    ),
    ('circle24_quorum_n_attacked.json', 0, 12345678): (
        '6fd0172d327dbbf384a726df49a07dc05d935bf8588c51273f77fed4476977df',
        'f5ef6a0bd0e49348aa7d06ce4a0a727c3c6c9a292f286d59a14a077c8b734e74',
        'fbadccc2a65b1dd3fb84307f6dd5c58bb3c5fc4e76939d9f167e5ca2bc74f811',
    ),
    ('circle24_quorum_n_attacked.json', 1, 12345678): (
        '6d7ac2c1ed7cd22bc81072bc4bdd64fb64bc904a00a9677ecef8844de9a8df00',
        'f9858b00b0e694bb17ff08b34c7a7b4e6da06c2761c916f3d2775b998c036221',
        '4a04d0a9f5731047cd75ca1750d1be1aedefc5b6cff99ef4ba111d2242852655',
    ),
    ('circle24_quorum_n_attacked.json', 2, 12345678): (
        '204d171d8b2577908cfe342d75e23e74b270205a459a0120a3fb054bcb1659dc',
        '4b32a069965baf335fb6b9ad256f267a750e82c73638f8cf5bf06433bc22c4ad',
        '80dc63106f59fe741c14ae0d7e4d883637c30d9fb642ab84660b19909756c9b2',
    ),
}
SWEEP_AGGREGATE_DIGEST = '54af84edcb4ea00ec41c8e2db42725063c099448d544b4425594aaef3d51aee1'


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name,seed,horizon", sorted(RUN_DIGESTS, key=str))
def test_run_outputs_match_golden_digests(tmp_path, capsys, name, seed, horizon):
    argv = ["run", "--config", str(CONFIG_DIR / name), "--seed", str(seed),
            "--out-dir", str(tmp_path)]
    if horizon is not None:
        argv += ["--horizon", str(horizon)]
    assert main(argv) == 0
    capsys.readouterr()
    got = tuple(_sha256(tmp_path / f) for f in RUN_FILES)
    for f, g, want in zip(RUN_FILES, got, RUN_DIGESTS[(name, seed, horizon)]):
        assert g == want, f"{f} of {name} seed {seed} horizon {horizon} changed"


def test_sweep_aggregate_matches_golden_digest(tmp_path, capsys):
    assert main(["sweep", "--config", str(CONFIG_DIR / "sweep_quorum_n_attacked.json"),
                 "--runs", "50", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _sha256(tmp_path / "aggregate.json") == SWEEP_AGGREGATE_DIGEST
