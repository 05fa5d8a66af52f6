"""Byte-identity of CLI transcripts.

Each row is a README- or benchmark-shaped command, its exit code and the
SHA-256 of its stdout.  Every command runs in-process through
``cli.main``; usage errors exit 2 through argparse with empty stdout.
The help rows also hash stderr and run at a fixed terminal width, so
that every default, choice and help string of the parser stays
byte-identical.
A row whose output changes on purpose gets new recorded values, and the
change is logged in CHANGES.md.
"""

import hashlib
import shlex

import pytest

from descmat.cli import main

TRANSCRIPTS = [
    ("evaluate --insertions 2,2 --degree 3", 0,
     "ee7b0f7b495720e926d1e1144427287a26af545a8b53797a50a76c30175d604c"),
    ("evaluate --insertions 4,3,1 --degree 13", 0,
     "0aac37d89aec732492edccb2572b0091ab940e749a8ba05fd43b95a745506fdd"),
    ("evaluate --insertions 0 --degree 5 --format json", 0,
     "c351fb5df25808add586defba25e34f7ef4c39349a07d542eaca46d26d63983b"),
    ("expand --insertions 2,2 --order 3", 0,
     "fd302348f1189c8ab6727499ddb510654950408772a95272b54da68fb2b4c4b8"),
    ("expand --insertions 2,2", 0,
     "773a39771e7d6758fba31318614707a3b984459074e0245fc39798886219644f"),
    ("expand --insertions 1", 0,
     "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    ("expand --insertions 4,3,1 --format json", 0,
     "64ffbc0b84adbad6027112647e165bbbd67ce33b630a326ee130a41feca34501"),
    ("expand --insertions 2,2 --order 501", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("expand --insertions 2,2 --order -1", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("eisenstein --insertions 2,2", 0,
     "7082c7ed65875daef03f60b1de37d56a144aa1cad87774ae61413f24634b8d43"),
    ("eisenstein --insertions 4,3,1 --format json", 0,
     "7220fbef1ef6abb43013011d895edb5607df6d2e4ada8ca7651920cad48a7d15"),
    ("eisenstein --insertions 4,4,4", 0,
     "2d31cb3875e4ec5ae455b486cf235f1aff23ca3a5a1df47763db4020ac29dd01"),
    ("eisenstein --insertions 17", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("eisenstein --insertions 3", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("evaluate --insertions 30 --degree 500", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("expand --insertions 30 --order 500 --format json", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("matroid matrix --weight 8", 0,
     "ee036556e55911aaacadcdf80815928efc55fa90232045565c9f31a4f70cc5b7"),
    ("matroid matrix --weight 10 --positive --format json", 0,
     "42e36bcf4323bfafaaa0c5e3efa2b57ff98abe7a434cd2b9d209294606706f9f"),
    ("matroid groundset --weight 8", 0,
     "a01fd26deeec11a8c892c6cc521b47ea21d1ecd42e8fa740b96b314689b12719"),
    ("matroid groundset --weight 16 --positive", 0,
     "427a59b464221d4b3e49b6eda963db9bbe8851f42de2150efbcbf1b18cc55f49"),
    ("matroid groundset --weight 20", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("matroid groundset --weight 20 --max-weight 20", 0,
     "652fabd906d560c2fbecac5db0e3e89134a399fab4c1465b05f4bd949639444b"),
    ("matroid groundset --weight 72 --max-weight 72", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("matroid groundset --weight 7", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("matroid rank --weight 12", 0,
     "10159baf262b43a92d95db59dae1f72c645127301661e0a3ce4e38b295a97c58"),
    ("matroid rank --weight 8 --max-weight 6", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("matroid rank --weight 7", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("matroid count --weight 6 --positive", 0,
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("matroid count --weight 8", 0,
     "ea243e5457028e97f9bc93b37a72f8e80ea61ae081911bb037765590ee6aa435"),
    ("matroid count --weight 12 --positive", 0,
     "a4b2c5db15348c29451e18b8307e5ef81625ea638e807935f39ceaa8d9ac7758"),
    ("matroid count --weight 12", 0,
     "53066fa338c7e38b5d54ca1442ed8b49c4f98798c295a3e858b26a66a6fca276"),
    ("matroid count --weight 14", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("matroid bases --weight 2 --positive", 0,
     "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    ("matroid bases --weight 2", 0,
     "3aa8ac761c5a23906d30fb86ca2db09c9b391142a956cdb4263570adb94bfbe6"),
    ("matroid bases --weight 4", 0,
     "e477521b3c8151112ca14dafff653cde91e21ad7c33d758580b808a6f18ed312"),
    ("matroid bases --weight 6", 0,
     "8e0ff22c892e46011a9ba80c99e80871db63d72c091286a6ad484c6992404a74"),
    ("matroid bases --weight 8 --format json", 0,
     "61f75a23214e2320b066bb04bdb59ad1069825cb8cc51de323e3509221c67962"),
    ("matroid bases --weight 10 --format json", 0,
     "8d4fbb20dc8ddca09992ee735997a72928ad86dd291679a599bbf3861c7009f4"),
    ("matroid bases --weight 12", 0,
     "e6dede3ab4636e4a27416c675254f168b955fa8df4bafdff6961396fdda76779"),
    ("matroid bases --weight 14 --positive --format json", 0,
     "305e704a8cdc70e44785a87b318ee9a29be479eca9e50a2825ade4dee99ad3ee"),
    ("matroid tutte --weight 4", 0,
     "2431ec6348e23b79de40af9415112a46e773402c388c1e7356ce98ed30ea231c"),
    ("matroid tutte --weight 8", 0,
     "e9d49faf4f146516203e386a452b81b697d8e09bfd35c1d7d50d443bdc674d3e"),
    ("matroid tutte --weight 10", 0,
     "7ae1ac32b0a519bafaf40b9afecac0348997bba454e4e21ed317658fc19bf166"),
    ("matroid tutte --weight 10 --positive --format json", 0,
     "ad0aa24a081c175d4c0b6ee186f9e8bc262b5cf59a698367153f2252266aa2c2"),
    ("matroid tutte --weight 12 --positive", 0,
     "7a28f28c2beef1344a76b6f618bedff365e617d0ae9555515a86cdf2929207f0"),
    ("matroid tutte --weight 14 --positive --format json", 0,
     "cd8844fd94835342e4d929886c3c2011caa2b6558b0d29ccb9385912ea784a89"),
    ("delta --weight 12 --basis 1,2,3,4,5,6,7 --positive", 0,
     "f63e40e944433f3b9e8534e5445e36654557b25ccd53f2162d628e26f18b8e38"),
    ("delta --basis 2,3,4,5,6,7,8 --positive --format json", 0,
     "e3c37c098e1c007a519eaeae459211086f624a7a69ed4ef505feb8946158200c"),
    ("delta --basis 1,2,3,4,5,6,7", 0,
     "655f1572b19863467a5197ee6719bf3b167a998d327f1a89b93de779d45f6793"),
    ("delta --weight 10 --basis 1,2,3,4,5,6,7 --positive", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("delta-all", 0,
     "e3d0b1ee4c22c5a8d2ccd87f45dc0a41a4dd4b496a6402d81134ca6fba5063d7"),
    ("delta-all --format json", 0,
     "5971dfc931f19bc44eb8947ed2e13812938286544ca63933099ec0758248234f"),
    ("delta-all --weight 12", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("delta-poly --type 1", 0,
     "f15f53b0b67bd974238de01880563e55f27cc21bda9a30d402d8ccdf75ed58fe"),
    ("delta-poly --type 2", 0,
     "3a51973cfea38ebb3c389b549a9c49a677be825469790163696fec9453fe2208"),
    ("delta-poly --type 3 --format json", 0,
     "c6c3b6ef6c7c539fe80a364de1f22a24f8e075e0053d507d6d379f3b488c3c97"),
    ("delta-poly --type 4", 0,
     "306c2a9da1f2bfe019714c67af12b51cb082744abbbdac89452d5508ee0a6401"),
    ("delta-poly --type 5", 0,
     "720149e0bf0cd933ce033def2c8ffbbd96df953d544b43f3886b2ffdf9374fa7"),
    ("delta-poly --type 6 --format json", 0,
     "e0d72ff56613abbca8881ee16893c3216738d1e79850f350485ccc056596373c"),
    ("delta-poly --type 7", 0,
     "9740512847d6beb825aee3c2729e73043be1ce29b98634b20abe67a0d4eb2eec"),
    ("delta-poly --type 8", 0,
     "32db2d9d1732973b15e68c2700e36e545d1067629e4b469070521de1539d0d7e"),
    ("delta-poly --type 1 --weight 12", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("tau --d 6", 0,
     "37a2f42a9dc539ed40f4bbc8350bead456dcfc8fcb8da793259eb52b6f783e98"),
    ("tau --d 25 --basis 2,3,4,5,6,7,8", 0,
     "750b832150b4fee92e3eaa9f61c78aaf8f4dcfb58aa60ed884c69277f24f6fd6"),
    ("tau --d 6 --method niebur", 0,
     "37a2f42a9dc539ed40f4bbc8350bead456dcfc8fcb8da793259eb52b6f783e98"),
    ("tau --d 30 --method niebur --format json", 0,
     "95806c6ad00a34a14f17f365fd1827cb9880d407c25156b5b52babe0d543c93a"),
    ("tau --d 6 --method direct", 0,
     "37a2f42a9dc539ed40f4bbc8350bead456dcfc8fcb8da793259eb52b6f783e98"),
    ("tau --d 5 --basis 1,1,2,3,4,5,6", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("tau-check --max-d 30", 0,
     "09108308e122ee600eff173bc8139c77b6d7490ed5dda478a8c0779dffd08f29"),
    ("tau-check --max-d 12 --format json", 0,
     "3d5131901a9c219651f0c202b5628db132ec093a2bd0156a41d465932094aa2f"),
    ("tau-check --max-d 501", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("conjecture-check --max-weight 14", 0,
     "d50f1c607e53f994f34170120ca42fea1cfab9064b50129047e5f5c11daa35b6"),
    ("conjecture-check --max-weight 27", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("conjecture-check", 0,
     "9859b85464dee91e138ed102f0ad94fd75905a8b8df3f5cf19e7de2dce2e7a6f"),
    ("conjecture-check --format json", 0,
     "da5dba1be6ed9389db1b79383d0a4e2eb6b6692c7244917a6761a50bdda53def"),
]


@pytest.mark.parametrize(
    "command, code, digest", TRANSCRIPTS, ids=[row[0] for row in TRANSCRIPTS]
)
def test_transcript(capsys, command, code, digest):
    try:
        got = main(shlex.split(command))
    except SystemExit as exc:
        got = exc.code
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (code, digest)


HELP_TRANSCRIPTS = [
    ("--help", 0,
     "b456182446fd6282d3fc7d6c36d3cfa7b4e82b0cb5ba8a4bc0af98e367818a14",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("evaluate --help", 0,
     "a93ebca262d41eb8aa77de33a6de2481ec33001c4cc34e7c63c7076f0bd0b0e3",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("expand --help", 0,
     "b31b6c707f59fbb0f2dad01daa223b73f7220347a91709f15c6ea4eb42be8c47",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("eisenstein --help", 0,
     "073c3bb4890d7e0913fbeca5649a3deb95ff70d0f55d137a95898344fd78acd5",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("matroid --help", 0,
     "1590ab422124643e23f6f192f4b513813f91958716265a9bedb3dd93fcfe25bb",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("delta --help", 0,
     "3e944fac17a47e732e375fa660c7315dd2da6bb7b6a78415469e99f7f6f894e3",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("delta-all --help", 0,
     "8765c0a73c854c298418a687c9450f5c3e1ca4ff1929394cb60bb2caee69e6a0",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("delta-poly --help", 0,
     "9161c6dddd2f2319ea21f20bec4650f77c344153c15b91dfec9af2c992e853a6",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("tau --help", 0,
     "22274e13b3b9ef534512df72ee3d25c553e2ab919507417c9b66e2c974daa853",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("tau-check --help", 0,
     "75349234406086b7dcf600df0010aff2a59323216361aea27f4a126449c38992",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("conjecture-check --help", 0,
     "9e6245fe2e31be0066a81e9da057a3fac1244ff45fdbffa912bf40c470d37249",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("delta-poly --type 9", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "0a5749310a31a0351a85300e5a48ff2bd117eda18cc7453db8b6dae8a327e4b7"),
]


@pytest.mark.parametrize(
    "command, code, out_digest, err_digest",
    HELP_TRANSCRIPTS,
    ids=[row[0] for row in HELP_TRANSCRIPTS],
)
def test_help_transcript(capsys, monkeypatch, command, code, out_digest, err_digest):
    # argparse wraps help to the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit) as excinfo:
        main(shlex.split(command))
    captured = capsys.readouterr()
    assert (
        excinfo.value.code,
        hashlib.sha256(captured.out.encode("utf-8")).hexdigest(),
        hashlib.sha256(captured.err.encode("utf-8")).hexdigest(),
    ) == (code, out_digest, err_digest)
