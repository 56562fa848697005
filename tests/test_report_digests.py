"""Report bytes pinned by digest.

Each case runs cli.main in process with --json and compares the sha256 of
stdout, and the exit code, with values recorded before the Q(sqrt d)
arithmetic moved onto the shared power basis (the Q and finite-field
cases: before Q moved onto it).  A refactor that changes
any report byte (a key, an element string, an order) fails here; a
deliberate change to the report must update the digests and bump SCHEMA.
"""

import hashlib

import pytest

from discarr.cli import main

DIGESTS = {
    "detect gallery:octahedral":
        "b59a520a274174bd42085c519867db6651c4112a219214614f43f9b5004e51af",
    "classify gallery:octahedral":
        "241c00f81da9a310b805c7be71feac1a6e6485ff29d11a60b562282642ffc724",
    "lattice gallery:octahedral":
        "752324bb87fd2d8a694a72889e1099ea6bca92b1f7aa688146b6ce79cb325570",
    "detect gallery:dodecahedral":
        "dbffabff3ae71f0009c6ef0cb2d7786145e8871af9d59e7bf0ed0b87da3b4795",
    "classify gallery:dodecahedral":
        "2e5b1183e53214f311851581c3a55b5fb646c3ec17d0cf517a97059fc491b65b",
    "lattice gallery:dodecahedral":
        "6a77c4325adcb3d502db662364dae04b26f163b9c3bac704506242bbde9c1a9b",
    "classify gallery:witness-1^1,5^1":
        "a6d3963f1b39a05dd08e7295fc03cca4055b1110c7e1732fa42c2bad75dd38a7",
    "classify gallery:witness-3^2":
        "51e63367677a6cd5dac355305df0848f65f2f262bfbd85f27e80ea3d3d4eceed",
    "detect gallery:polygon-7":
        "79a5dd540c49359d156daacb4b0641e4059134abbdad63d821b68114376f586f",
    "lattice gallery:polygon-6 --max-rank 2":
        "f801e3641256e2db1d8cdd6ebbe5a07035cbeb746cbbc28385901a0ece53682f",
    "detect gallery:polygon-8":
        "c8fb440b8d23a24a40bd3940cd9d3b975fc0c72a7bd3a0e41fda44a027c3d1c0",
    "detect gallery:polygon-9":
        "9dd2be6fcd559ebfe565023568e95b3c1c049f81696b139f9ecb8253a0e96727",
    "detect gallery:polygon-10":
        "7a067e16562c86834e4fdac8ddf01f3cfee50e11088a823b49785920567e2cdd",
    "detect gallery:polygon-12":
        "1772dbee49a4b2a9c4d1714f4e8d1e357816cdd409711008100efefb23d1f703",
    "lattice gallery:polygon-6":
        "136edc0f888abd20ce2375399e45de983a48d85e61b8dc2e1ce670a270884df0",
    "lattice gallery:polygon-7 --max-rank 2":
        "92df3d74856b96178949011c451a3b67430ff7d1e4668ea13530b4910f9b38c4",
    "detect gallery:witness-1^1,5^1":
        "187e02d8d8c22b33762c99b1f255ea38607eadb0d0aa3d36e27de693fa6f81ba",
    "table classification":
        "542f3724c734c584f7133a2979c28a6fa2771a2836c9b79d95fa9cbddee93e62",
    "table dependencies":
        "2ea992dbda5ec41ec13c9d6d6c576cc625f4e6c08e4790eebbe984f172c92025",
    "detect gallery:crapo":
        "367dff88d56075398fd01933af0b3e31f737e22550f67eb214f989f2c6ea5dc0",
    "lattice gallery:crapo":
        "9a10f688a4063e97b819c85e51fd49937aa8632711180ad53c4a9421931a32e6",
    "classify gallery:crapo":
        "3276cb4e409e9ece2e6a5650150b6a8b613081a0d3cd1ac305bdd7ae4e523244",
    "classify gallery:witness-1^2,4^1":
        "53d5fe4655d542fe78bf97a90066b3df8505fc6968c20a6df9415967b42601eb",
    "detect gallery:witness-1^6":
        "7c28fb2c8c5b14232bca61bc45f26e5e3e716d6f554fa11718ae6c16413db41e",
    "detect gallery:f5":
        "dc6c9378ae11975d3dfc90e8feabee31ac49ac3c3ba25b7644e94af841b7276e",
    "lattice gallery:f4":
        "079d75093c54603d0f680c0646c898a1c3fa50caec332066fcdab59bff6643f7",
    "lattice gallery:f5":
        "ff870646cdddee0097152ce99ebc8af9dd502dd8dd6b665e9e6d9e3ca9ebb54e",
    "detect gallery:f4":
        "0bde9ae8f3937f0a66e13ce1390ada7d97cfae09747abbe4d6f25295b551182f",
    "classify gallery:f4":
        "36a6f6a7dbeda085f7496f39b25f827c34c904ee2fbd9d5f5757eec7827462dc",
    "classify gallery:f5":
        "8fdb397a051c235ed759d749bd7be7ab1c43f5d642a04b7f9fa330d44f8b2393",
    "table mformula":
        "2541ae7c514bb4ac846284261ccf19ac1b3d48a5d6a0e2bb97a2ed83402d6779",
}

# text mode prints FourSet and QuintFamily reprs; the trailing elapsed
# line is a wall time and stays out of the digest
TEXT_DIGESTS = {
    "detect gallery:crapo":
        "11573e3673cfe9c95d0e131aa6c0ec1eba7966d2369c6791738822995163b7ee",
    "detect gallery:polygon-7":
        "963870eed6cd810b160d37dfec42614d716e3f7a62293d46f20b08315bdb4420",
}


@pytest.mark.parametrize("command", DIGESTS)
def test_report_bytes_match_recorded_digest(command, capsys):
    assert main(command.split() + ["--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]


@pytest.mark.parametrize("command", TEXT_DIGESTS)
def test_text_listing_matches_recorded_digest(command, capsys):
    assert main(command.split()) == 0
    *body, last = capsys.readouterr().out.splitlines(keepends=True)
    assert last.startswith("elapsed ")
    assert hashlib.sha256("".join(body).encode()).hexdigest() == TEXT_DIGESTS[command]
