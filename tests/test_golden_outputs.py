"""Golden outputs: sha256 digests of CLI stdout and check_theorem diagnoses.

Every subcommand is run in-process over fixed corpora, and the digest of its
exit code, stdout and stderr is compared against the value pinned below, so
any change in witnesses, certificates, traces or diagnosis text shows up
here. A pin moves only with a declared output change, which CHANGES.md
records with the old and new digest and a comment beside the pin gives the
reason for. A failure names each run whose output diverged.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

from p7c4.cli import cli_main
from p7c4.enumerate import class_members, connected_graphs
from p7c4.families import petersen
from p7c4.graphs import join_with_clique, write_graph6
from p7c4.patterns import class_membership
from p7c4.verify import check_theorem, standard_blowup_corpus

CLASSES = ("diamond", "kite", "gem")

FAMILIES = (
    ("Petersen",),
    ("F",),
    ("G1", "t=2"),
    ("G2", "sizes=2,2,2,2,2,2,2"),
    ("G3",),
    ("G4",),
    ("G5",),
    ("G6", "t=2"),
    ("blowup", "base=Petersen", "sizes=2,1,1,1,1,1,1,1,1,1"),
    ("blowup", "base=C7", "sizes=1,2,1,2,1,1,1"),
    ("C", "k=7"),
    ("P", "k=6"),
    ("K", "k=5"),
)


def _family_argv(family: tuple[str, ...]) -> list[str]:
    argv = ["--family", family[0]]
    for param in family[1:]:
        argv += ["--param", param]
    return argv


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run_cli(argv: list[str], stdin_text: str = "") -> str:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    finally:
        sys.stdin = saved
    return _digest(f"exit {code}\n{out.getvalue()}\nstderr\n{err.getvalue()}")


def _extra_members() -> list:
    """Petersen, K_l + Petersen and the Petersen blowups up to 20 vertices."""
    extra = [join_with_clique(petersen(), ell) for ell in range(4)]
    extra += standard_blowup_corpus("Petersen", 20)
    return extra


def cli_digests() -> dict[str, str]:
    connected = "\n".join(write_graph6(g) for n in range(1, 8) for g in connected_graphs(n))
    extra = _extra_members()
    out: dict[str, str] = {}

    def over_inputs(name: str, argv: list[str], corpus: str) -> None:
        out[f"{name} [corpus]"] = _run_cli([*argv, "--corpus", "-"], corpus)
        for family in FAMILIES:
            out[f"{name} [{' '.join(family)}]"] = _run_cli([*argv, *_family_argv(family)])

    for cls in CLASSES:
        over_inputs(f"classify --class {cls}", ["classify", "--class", cls], connected)
    over_inputs("decompose", ["decompose"], connected)
    over_inputs("oracle-check", ["oracle-check"], connected)
    for mode in ("diamond", "gem"):
        over_inputs(f"analyze-hole --mode {mode}", ["analyze-hole", "--mode", mode], connected)
        over_inputs(f"analyze-hole --mode {mode} --all-holes",
                    ["analyze-hole", "--mode", mode, "--all-holes"], connected)
    for cls in CLASSES:
        members = [g for n in range(1, 8) for g in class_members(cls, n)]
        members += [g for g in extra if class_membership(g, cls).free]
        corpus = "\n".join(write_graph6(g) for g in members)
        out[f"color --class {cls}"] = _run_cli(["color", "--class", cls, "--corpus", "-"], corpus)
        out[f"oracle-check --class {cls}"] = _run_cli(
            ["oracle-check", "--class", cls, "--corpus", "-"], corpus)
    for theorem in ("T1", "T2", "T3", "C1", "C2", "C3"):
        out[f"verify --theorem {theorem} --exhaustive 7"] = _run_cli(
            ["verify", "--theorem", theorem, "--exhaustive", "7"])
    out["verify --theorem T3 --blowups Petersen:20"] = _run_cli(
        ["verify", "--theorem", "T3", "--blowups", "Petersen:20"])
    for family in FAMILIES:
        out[f"generate [{' '.join(family)}]"] = _run_cli(["generate", *_family_argv(family)])
    return out


def theorem_digests() -> dict[str, str]:
    out: dict[str, str] = {}
    extra = _extra_members()
    for theorem, cls in (("T1", "diamond"), ("T2", "kite"), ("T3", "gem")):
        for label, corpus in (("members n=8", class_members(cls, 8)), ("Petersen extras", extra)):
            diags = [check_theorem(g, theorem) for g in corpus]
            out[f"check_theorem {theorem} [{label}]"] = _digest(json.dumps(diags))
    return out


def _diverged(got: dict[str, str], want: dict[str, str]) -> list[str]:
    return sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))


def test_cli_outputs_are_pinned():
    assert _diverged(cli_digests(), CLI_GOLDEN) == []


def test_check_theorem_outputs_are_pinned():
    assert _diverged(theorem_digests(), THEOREM_GOLDEN) == []


CLI_GOLDEN: dict[str, str] = {
    "classify --class diamond [corpus]":
        "48b32d27402b9a5e65897d4fc0247bee05a63854107977286e21b6848b5c0e2c",
    "classify --class diamond [Petersen]":
        "955e94b9b79d3a17c71c29360491300a1eb29a901ad919acb7371b9b7589a591",
    "classify --class diamond [F]":
        "9ebd6b4e0a4e3917e7a187c41c278980d9c7ef212b25260be29a7c9c1232475a",
    "classify --class diamond [G1 t=2]":
        "b946ebf553900c94744bfa7c48ff73681ae398fde68fa419fb3e100b130c8f2c",
    "classify --class diamond [G2 sizes=2,2,2,2,2,2,2]":
        "2f7e2563715eb8d65879e4af6385c315872d8d6f19c7ebd575a69a012bfada16",
    "classify --class diamond [G3]":
        "2df8e222a18cb2482295a0eecc236e9ca76f8ed3fbd42ac7147e94a3610525c9",
    "classify --class diamond [G4]":
        "40013911508619e974129dcd5148543aa43afa3c1c182a3e39a829a0afb98e11",
    "classify --class diamond [G5]":
        "d8bed482d0d6c9ce0f49a7e075996c41d2bfc11258b8bf530d092e1835c21947",
    "classify --class diamond [G6 t=2]":
        "fea2faf6091ed2009d9ab2f1ecdc962199e4546de644da745666ff65b7df284f",
    "classify --class diamond [blowup base=Petersen sizes=2,1,1,1,1,1,1,1,1,1]":
        "03d77493e67b586c74a6d7756e131bc75b5f44cd5d39d5e0882f85228c5dcb04",
    "classify --class diamond [blowup base=C7 sizes=1,2,1,2,1,1,1]":
        "815e88ac6556bbc058ec844c477bf4b9e97de1f1519e5bcaa61471df22e4cc7e",
    "classify --class diamond [C k=7]":
        "4571015e6d20f0a46a1fe489fd7083179c0691f0fc9ed22863608bc0e9c82e75",
    "classify --class diamond [P k=6]":
        "46faf523195511ef33eeb8887b02c916e2918da038df8609199d56437be79672",
    "classify --class diamond [K k=5]":
        "2928e2cf34d95cd548fa584c4d9cfcb2cb15051191cb41b6e3e9dae3fc8010d5",
    "classify --class kite [corpus]":
        "10a8ed9a13e158bf7f06ea9d453736b35ebb3363a2c1c348d0406b0a4f0b09c1",
    "classify --class kite [Petersen]":
        "aa3ed026266a7a264445ae9e51a67bc403603751fc446925f9e215c8a0c54970",
    "classify --class kite [F]":
        "30cb4f0e7f048daa6afe66a9cd02dbb84dfea384c41277b6c65daddbba80ff77",
    "classify --class kite [G1 t=2]":
        "88aab73afcec70d63f02be5ed6553d52b8c791c0f41fb3aad692244bdf540387",
    "classify --class kite [G2 sizes=2,2,2,2,2,2,2]":
        "c4cc19dc1868158b097cd6032984fd07eff67119a91e2c566e8c75a676f54167",
    "classify --class kite [G3]":
        "4723886dd2bb8e4b5eff78e094996578b00305d7652337c15cb5c7563500fefd",
    "classify --class kite [G4]":
        "1deeb5efbfb91c212b16987436d448a42d9eebf14fd01b9f59ea7f7fd865a860",
    "classify --class kite [G5]":
        "cebf8763326525a7eabc20e5fa1c2acc9fa3cd8a3512ad428cac9fc701f0d213",
    "classify --class kite [G6 t=2]":
        "e99a8758b78b4eb2efc96a676f2db268f306ed0599a120fd48a86d977e64ae06",
    "classify --class kite [blowup base=Petersen sizes=2,1,1,1,1,1,1,1,1,1]":
        "31434c867c4c7106b19fd40ad0c6fb9f221cb5130eda85f07748656d3f89adf3",
    "classify --class kite [blowup base=C7 sizes=1,2,1,2,1,1,1]":
        "e590f8eeb910010a98ace5ed7eee13d6b66f4e845c33fd98f6971c4c8dce85d6",
    "classify --class kite [C k=7]":
        "83556e9383b1a58593cb97477e8e7de4346003047aaa5543bd6cae53e5115f68",
    "classify --class kite [P k=6]":
        "dbad66f751cc7450849ee6df54e6cfd5077964bfb700a6db376fb719756aa43d",
    "classify --class kite [K k=5]":
        "fa7f6ea9f2f8ecd28e2634f5761b1a3eecda3ab1345955e66f0c477487ad433f",
    "classify --class gem [corpus]":
        "7474d477b28a74a37a94d1c796ea6781028c55c84a75bf6fb5118ee49faffe60",
    "classify --class gem [Petersen]":
        "e3f476197e321dc5a26786a5f25a4afc7e540407e758540734aef3cfafeb817d",
    "classify --class gem [F]":
        "f60809ec6361b2c8c301c814e9d26bb8885765c09a24785a197dda51574f7e81",
    "classify --class gem [G1 t=2]":
        "67e7bf6852fcd2cb9bb0a53ee3a3d2fffd6ba49abfc267644d788547281986cc",
    "classify --class gem [G2 sizes=2,2,2,2,2,2,2]":
        "f24adaf0a634098975bbf15199cf3b36f650a428352cb244fa7e19f7d16fdb01",
    "classify --class gem [G3]":
        "7adda74d47673c8ad39f4f65fdbece0efeb119cec4285c6474ec4aaff522aafd",
    "classify --class gem [G4]":
        "bd7ca2bd42ad461f6a8e0127f15c9956409a4975dcc79fad89ae1fd817c8e474",
    "classify --class gem [G5]":
        "615efb9c51e5a7c7c34eb1682fcbf6d2fe77e12d9644428adc10770f301d9551",
    "classify --class gem [G6 t=2]":
        "1b4944a4add2b8c456d6e30122f48f06328431a43d6ce88dacdf8fdceb75d398",
    "classify --class gem [blowup base=Petersen sizes=2,1,1,1,1,1,1,1,1,1]":
        "52443677ceb15b67100017a10e385f031326730d550a145956103be24dd9425d",
    "classify --class gem [blowup base=C7 sizes=1,2,1,2,1,1,1]":
        "9e441e8baea1bafecbcf9ad5bfef4286f86d6750a8132d035bb6328e9aa64989",
    "classify --class gem [C k=7]":
        "addf982b5132ce63b2d72afa770c8e25165dcc399f7cdc4329ab8183bf6ad328",
    "classify --class gem [P k=6]":
        "4cb4c43585957afd12eec67854db69c5beab88c65e4b40a788a832f1363da97a",
    "classify --class gem [K k=5]":
        "33d1317c40dd8c1440d11b29357df399cc96c06cb6ac451b21386a6504f4b862",
    "decompose [corpus]":
        "0a1bae78cc753d6500497a5938df1e71bced688d72192fcaa636501532381c98",
    "decompose [Petersen]":
        "a773580b5e1776f44523e3ea5531c29c4b12b68e9cf2f607434a16ba378ce6db",
    "decompose [F]":
        "a0f5c80865367c28b2bafc80082b38bb97ebae735940805f364441d64515d46a",
    "decompose [G1 t=2]":
        "0e6bb758ee27542dbfdf9905ea54b2962f29be5b39f4d6313d3b9fd67ebfb815",
    "decompose [G2 sizes=2,2,2,2,2,2,2]":
        "0bf7240c865aea3c8989fd7effc8c52a6b33ebe3936d8a1188df1061a0a9e60b",
    "decompose [G3]":
        "1473097034bbc37d49b80bc1ac1f1587ec93340d356739d17d78730cd9da73a4",
    "decompose [G4]":
        "bf6a29bebd3b85be211fb3c493e9e364ddd57e42cb2c15f59de8372fbd59e0a8",
    "decompose [G5]":
        "241a59731ddb64181ee7a52334822b4c728813720d18917ee073205c499022f0",
    "decompose [G6 t=2]":
        "5df7432640a185906cad683849448b15d5d20e7ce5627bf894ef835fa407ecf7",
    "decompose [blowup base=Petersen sizes=2,1,1,1,1,1,1,1,1,1]":
        "1c69860c1eb1865ab2a882a1f7c5b00f5ec78fa30e0fd31e64fdc0106b1e738b",
    "decompose [blowup base=C7 sizes=1,2,1,2,1,1,1]":
        "538c5b094374fb1bd5618e8047812ebf72c1398736ab416bc2ff1058de0ae150",
    "decompose [C k=7]":
        "032898052d0380ea06fe9504e5d42ac64fb8e4d65c1304a5291cc76fda1a942f",
    "decompose [P k=6]":
        "93e263f2afa9e9473a03d1a1a9ead84faeee4243c257ed7befdafcdb2a03b96c",
    "decompose [K k=5]":
        "2c545e84aa1dac81db155342d1e6c5400d67f4d6947f44b012f6aad29240e76e",
    "oracle-check [corpus]":
        "962a66a19632d41c7c06d8bb69f51e98e5f51b952a46adc067608caec5e4bd1d",
    "oracle-check [Petersen]":
        "95708e06be3ff188fd02023c1a596fa9d8d9caa643a42a02a70071810c7baa1c",
    "oracle-check [F]":
        "362ae9698df7e41bb7b9f1f3bf1343b6d8cd1ba0dc2351f8223a08348682e64f",
    "oracle-check [G1 t=2]":
        "bc8e67e987b94655cb552d577b6448b41e9da663c2ac30ec50dc672ff9fefc4b",
    "oracle-check [G2 sizes=2,2,2,2,2,2,2]":
        "5a2d25d9f6f0f828645484295f64339bb9dba268efe90e50d3ef2f00572de58e",
    "oracle-check [G3]":
        "05765b33899a2869731c17ac6baed50e11030b07fb31eef0e7552545900df527",
    "oracle-check [G4]":
        "1616f8cadf1914b7b428dd89eae6215dbe8bdab478ae11828f2286f19b5951f2",
    "oracle-check [G5]":
        "a10ddff43279df1cc36fb825923c11afb7a6587afe5139a6f1355f9fe04c6ff7",
    "oracle-check [G6 t=2]":
        "34000c747c11e046455648379e801bcbb97c1667cf3ac47b5163a32521f4478c",
    "oracle-check [blowup base=Petersen sizes=2,1,1,1,1,1,1,1,1,1]":
        "d22bd956c82592364bd9886b4da5bba4b3bf946468d67e7c4fe46d5fce7ae568",
    "oracle-check [blowup base=C7 sizes=1,2,1,2,1,1,1]":
        "2c65d3eb5dbfe05f70abda92579ecac280472784fafa55f63c6bc24b3a60d842",
    "oracle-check [C k=7]":
        "366730138582b919fbe28963314df2ca22c4f2f1aa6a76aabf4538476e77af72",
    "oracle-check [P k=6]":
        "7fa6a7123b88e4fa582548e40651d58323d075e19f47f4f1f9634a73846dc3fd",
    "oracle-check [K k=5]":
        "6cc474e30f0f724cb16f23b5d3fbe40d748e6380a600c374cddcf265529e0857",
    "analyze-hole --mode diamond [corpus]":
        "b1618f0ecc9b4d66b875c0657d4fcbd3276063c9abb85448977627564a29561e",
    "analyze-hole --mode diamond [Petersen]":
        "4ee843c74caa5ea8cd3b04287d962aa34480b28a25990634a5932f066e47b494",
    "analyze-hole --mode diamond [F]":
        "37ac07553588f622ed6a91f31f498e951645b4b42e6e308197eb861272fb73d8",
    "analyze-hole --mode diamond [G1 t=2]":
        "e2a7d0e9bb89f200ca823d38a58d272105625d2520d1ba6bde865fc3d5008bdc",
    "analyze-hole --mode diamond [G2 sizes=2,2,2,2,2,2,2]":
        "16dbadc7bfe11197eb189ff61c6155a8160743e1d013bfa2836d0aec7aa95f1f",
    "analyze-hole --mode diamond [G3]":
        "e4805d7c1211170e30886b8c3568a95244c0cb86ee9ac4570ca0461d9b1c7cb6",
    "analyze-hole --mode diamond [G4]":
        "e687aaa52f4a28cd76e084217449bd9e4fa147630dc3a934b82c67ec5375d9b6",
    "analyze-hole --mode diamond [G5]":
        "5e9d45fdf1d8986fd3f7253b126d5c8a5c732481a3512bc56d649015472709bf",
    "analyze-hole --mode diamond [G6 t=2]":
        "008f1079677a88fad206869e172e0196839a6cff12cd7c08a0f2b1c6ac080966",
    "analyze-hole --mode diamond [blowup base=Petersen sizes=2,1,1,1,1,1,1,1,1,1]":
        "4c23d98326d66110f0bbf2515d941942eee829a3ad64ebe8c2ecb9034ebb5ddd",
    "analyze-hole --mode diamond [blowup base=C7 sizes=1,2,1,2,1,1,1]":
        "0877fa344efb73461562ed2aa0bca7f114a1f758a6ecc4fe159ac793f0c4d901",
    "analyze-hole --mode diamond [C k=7]":
        "325b4205d5e1064d74c70c59be0c27f3bca18121245dda1b27e6a9ef814bee0d",
    "analyze-hole --mode diamond [P k=6]":
        "817c27d92f62ecf075c67758256e66d5704a00b0196b4abec0249fac65027dc2",
    "analyze-hole --mode diamond [K k=5]":
        "aa227704fe4f689c7c94344bcd96ad445fcee777a34f0f1c22c316486894660f",
    "analyze-hole --mode diamond --all-holes [corpus]":
        "b1618f0ecc9b4d66b875c0657d4fcbd3276063c9abb85448977627564a29561e",
    "analyze-hole --mode diamond --all-holes [Petersen]":
        "4ee843c74caa5ea8cd3b04287d962aa34480b28a25990634a5932f066e47b494",
    "analyze-hole --mode diamond --all-holes [F]":
        "80119aa8690f817ea43beaa5c8d560c0da08afdebd7a657fecb8fd5c04b822d2",
    "analyze-hole --mode diamond --all-holes [G1 t=2]":
        "f379dc785e4457bbd65dd2d934ac27a3819e1085f21633289c6efb42290c8434",
    "analyze-hole --mode diamond --all-holes [G2 sizes=2,2,2,2,2,2,2]":
        "dd7504f262146ba2666b931f548f5e6a23c3f149e4378cba28d104944e3a78a3",
    "analyze-hole --mode diamond --all-holes [G3]":
        "54c80930010b187a6da4a5f88b81bc94947094b255892df62468ed5328051b75",
    "analyze-hole --mode diamond --all-holes [G4]":
        "33dbbf6c8eb44bcaa277fac687707e03181ea99cdba30896f4daab03297922e2",
    "analyze-hole --mode diamond --all-holes [G5]":
        "2b9620ff62f72b31c8fa22321e211ab8ae89776ff641b0bcaeda62ff4e290fea",
    "analyze-hole --mode diamond --all-holes [G6 t=2]":
        "b85015a4eee499e17b27ae6c21d28cdc9af149417d41f3c710080c463204e3e7",
    "analyze-hole --mode diamond --all-holes [blowup base=Petersen sizes=2,1,1,1,1,1,1,1,1,1]":
        "4c23d98326d66110f0bbf2515d941942eee829a3ad64ebe8c2ecb9034ebb5ddd",
    "analyze-hole --mode diamond --all-holes [blowup base=C7 sizes=1,2,1,2,1,1,1]":
        "d5d46453c4555d1ee4756b7dd1d80e2aae22526f423bf8da00e3f331989cff5e",
    "analyze-hole --mode diamond --all-holes [C k=7]":
        "325b4205d5e1064d74c70c59be0c27f3bca18121245dda1b27e6a9ef814bee0d",
    "analyze-hole --mode diamond --all-holes [P k=6]":
        "817c27d92f62ecf075c67758256e66d5704a00b0196b4abec0249fac65027dc2",
    "analyze-hole --mode diamond --all-holes [K k=5]":
        "aa227704fe4f689c7c94344bcd96ad445fcee777a34f0f1c22c316486894660f",
    "analyze-hole --mode gem [corpus]":
        "b48532ba268c884d8d031c2be5808147014c5f1b947c37a9e8530812e3794ed9",
    "analyze-hole --mode gem [Petersen]":
        "e533e21e0e1e1c0cec21aec0fbad7447e53afef4dbc4a30b7567eecfd96bd4cc",
    "analyze-hole --mode gem [F]":
        "0b874c9ff862c282dcad21d9730dbf90fcfd4305cbaee0c799d2edea4afa079d",
    "analyze-hole --mode gem [G1 t=2]":
        "2eb95fde8155f0e102b52ebc3df464c70ad1bd0efc4eb8fafe91336be5bb617c",
    "analyze-hole --mode gem [G2 sizes=2,2,2,2,2,2,2]":
        "73390cc0e93724c689305d650e69b4c9506af0bc2a580445c4487caf22dfc6d5",
    "analyze-hole --mode gem [G3]":
        "20adfca7608135f75162c2a5c3370c4de70343b8af04f5f87a53fb9562783dd4",
    "analyze-hole --mode gem [G4]":
        "a56b69171599b06bfb591fd5626e470ef4529f489e7a64361a53e04f96f36b17",
    "analyze-hole --mode gem [G5]":
        "d7470bfb9dcf3ee113d7731aafa6dd3454e7521b65a5d75b607f000594ff3fc5",
    "analyze-hole --mode gem [G6 t=2]":
        "16104d31641df8eccb5b8336c6ecce8ca7786271d51843793218b30a1886d5d5",
    "analyze-hole --mode gem [blowup base=Petersen sizes=2,1,1,1,1,1,1,1,1,1]":
        "932d88045f17f8b36bd8e93f54821af69022d879502a4ccaec7b835fc70e5811",
    "analyze-hole --mode gem [blowup base=C7 sizes=1,2,1,2,1,1,1]":
        "e0e7931c4f5d7314f9407f6f1ba6e4edb00e0513ef4ec86c2afc6297a44a07b8",
    "analyze-hole --mode gem [C k=7]":
        "be80f17058758c8bdc380dea047b8648f05787a67ff9f2f053cf9f5fa1bebe85",
    "analyze-hole --mode gem [P k=6]":
        "39f35d177de5e20238a6836fc7e6dee503c6fb4310e08aab4fc1bc94b6c466af",
    "analyze-hole --mode gem [K k=5]":
        "cefac04952566f26a38cb62935a53a13a0d5ccfe1b146a39896c001bf972f3e4",
    "analyze-hole --mode gem --all-holes [corpus]":
        "b48532ba268c884d8d031c2be5808147014c5f1b947c37a9e8530812e3794ed9",
    "analyze-hole --mode gem --all-holes [Petersen]":
        "e533e21e0e1e1c0cec21aec0fbad7447e53afef4dbc4a30b7567eecfd96bd4cc",
    "analyze-hole --mode gem --all-holes [F]":
        "2614a7bb730d8f4c01f5882e65239de77397a3055a9d00dc9c8c08fd1c940919",
    "analyze-hole --mode gem --all-holes [G1 t=2]":
        "5fa366adbd610ab74844d8ab73286ec4e697b5c252091ab1f911b518b6d797bf",
    "analyze-hole --mode gem --all-holes [G2 sizes=2,2,2,2,2,2,2]":
        "a74e54ceaec98f6c57156c0a97d1e046976d2bb3a5f99f72288deebbbe5e3c4a",
    "analyze-hole --mode gem --all-holes [G3]":
        "cf4b8e595e991e6af21e46baf1ce84920c682d2a3252ede4f53448d4fc048494",
    "analyze-hole --mode gem --all-holes [G4]":
        "2fb03a3d885750f668fa5aa10dc3c543b06d1024982981e0ffac83b1348f9012",
    "analyze-hole --mode gem --all-holes [G5]":
        "db4b63d4611bbef3c0f3e92026691f35834c6cd4d96eaa01a67b5634b8f8b2bd",
    "analyze-hole --mode gem --all-holes [G6 t=2]":
        "d0c2764422b3bae882f1a74c4a435d55c7dc4318cc678b6a9efa31ea3d002309",
    "analyze-hole --mode gem --all-holes [blowup base=Petersen sizes=2,1,1,1,1,1,1,1,1,1]":
        "932d88045f17f8b36bd8e93f54821af69022d879502a4ccaec7b835fc70e5811",
    "analyze-hole --mode gem --all-holes [blowup base=C7 sizes=1,2,1,2,1,1,1]":
        "6e57b95c9fea24e9cd7a84db5f7bd781aac595350e39bfeb00c55dbbe9a64ca1",
    "analyze-hole --mode gem --all-holes [C k=7]":
        "be80f17058758c8bdc380dea047b8648f05787a67ff9f2f053cf9f5fa1bebe85",
    "analyze-hole --mode gem --all-holes [P k=6]":
        "39f35d177de5e20238a6836fc7e6dee503c6fb4310e08aab4fc1bc94b6c466af",
    "analyze-hole --mode gem --all-holes [K k=5]":
        "cefac04952566f26a38cb62935a53a13a0d5ccfe1b146a39896c001bf972f3e4",
    # Re-pinned when every clique became one clique-base step in every class
    # (diamond and gem had a single-vertex step and one eliminate-vertex step
    # per other vertex; kite colored the clique's vi with i, now with k-i+1)
    # and cutset-merge permutations became lists of pairs. The traces changed,
    # and kite's clique colors; the diamond and gem assignments, colors_used
    # and the bound did not (the oracle-check digests hold). Re-pinned again
    # when a cutset merge began renaming the left coloring onto the right
    # one's colors: the traces and assignments changed in every class, and
    # colors_used did under gem only: FB]eG, on 7 vertices, went from 4 to 3
    # colors, which moves the gem oracle-check digest. Re-pinned again when
    # components began merging by cutset-merge steps over the empty cutset,
    # a kite core's clique moved into its blowup-color step (no peel step)
    # and the Petersen cover lost its greedy fallback: the traces changed in
    # every class, and the assignments of Petersen cores on 10 or more
    # vertices, whose exact cover replaces the greedy one; colors_used did
    # not change (the oracle-check digests hold).
    "color --class diamond":
        "d6670799d44b2656d16fb83c64ffb72b5b8ea49899cea9ad819f93bb4248a560",
    "oracle-check --class diamond":
        "bfe1da6e8528b07f7711127098a9286a12cc3c8856b29d74485a91d309391789",
    "color --class kite":  # re-pinned for the same reason as diamond
        "02981be6571ecba409f97833cd5c54d9620186a0e61aec1f6cc34c170732f2c0",
    "oracle-check --class kite":
        "c4ef634bd99f8edaeee6101b1c925f0ffb72ea0ad7159923ac49078b43aee095",
    "color --class gem":  # re-pinned for the same reason as diamond
        "9639e50c6631f45a771d55fc1d1473cbb46ae2362e788428e938a2de7ec49400",
    "oracle-check --class gem":  # re-pinned with the merge's change of colors_used
        "93bc321efb1eda3f97c3e19a1ed8263052f8b5e4b644394f65ec07d6bccecfb0",
    "verify --theorem T1 --exhaustive 7":
        "2857d1d6f68fd67f5d39476e7378f0c7fd6434c6f0d6a86fb2071d5bde2c8891",
    "verify --theorem T2 --exhaustive 7":
        "3196daec34f10d37b8acd1bec401f164c7fdea2e1b379c149a941278e1b5ddb6",
    "verify --theorem T3 --exhaustive 7":
        "9e0d537d9f1745b62a9f0940a998921720d1c7e4e4afc59475da884d545fb8f9",
    "verify --theorem C1 --exhaustive 7":
        "b2224f431335802d6a563e0f1c2382850c901da5a0d4a8b284405d3f201313db",
    "verify --theorem C2 --exhaustive 7":
        "de636560b913d5a17830905d192996acc9a90f5e80f61ec5e563797982c72cc8",
    "verify --theorem C3 --exhaustive 7":
        "0d45f431ca2589f6435a515528aed4adec203faed411ed8ab6c3a774692c8ad2",
    "verify --theorem T3 --blowups Petersen:20":
        "cdb7c887d7c3dc35d90d4216de966edb4d9b3a3a34b7016239ece72a05639334",
    "generate [Petersen]":
        "4d32516bcae28d530435318333359a718f02b96fefea908ea806a2489ea3e120",
    "generate [F]":
        "6a4a8ad07bd0bf0018f8e84d087099cd8a416b9f54ae6f8ebe690f625c8300c0",
    "generate [G1 t=2]":
        "3d27ff9658285e8e5a89be48005406f2de65b6d9cb708f9cd40a5d334610e131",
    "generate [G2 sizes=2,2,2,2,2,2,2]":
        "2e3c12b45134cdfec5358b66dfe55a820901d056de88dec390715a8858e1724e",
    "generate [G3]":
        "d5d2fb84efeda817c3c43923fac2f145d6db835399535101b16f7b2e45900abf",
    "generate [G4]":
        "50436664fba9b712a4f40e5adae0a6af5d6a8b6f79d5d3e3bdcc80eb4d3362b7",
    "generate [G5]":
        "6fe54d403c752713b3ffd82b9d594c49d8b92b40bbc3868610243e4679b42112",
    "generate [G6 t=2]":
        "59b10e8ad040f17ec82193e671cd01fc4a1428b9881b5df707597a711fc8083d",
    "generate [blowup base=Petersen sizes=2,1,1,1,1,1,1,1,1,1]":
        "8abf890310cf10f5c89becd36416f3a6211432ef93193eaeb2f7be61265fd951",
    "generate [blowup base=C7 sizes=1,2,1,2,1,1,1]":
        "7de5d49ceebcfce1dfbd55abf5b54b5640ca9bb4d09b065b6dc458856c1a5621",
    "generate [C k=7]":
        "772b03f2b1b66535cc9b539af6ce4815d45763f168de1ba0e2a570d1b0ed3c92",
    "generate [P k=6]":
        "de732f79d20def01f613d795e96b81513de68cfdccd71073c630d8529acd118d",
    "generate [K k=5]":
        "77059ad253abaea463be7285f9fe099d696f3efdb0c1bf789f00bf78c962fc45",
}

THEOREM_GOLDEN: dict[str, str] = {
    "check_theorem T1 [members n=8]":
        "06cf5fa042d98f35f83d46170b9d24647882d4bcc0717677aa7d96bb1d58e94d",
    "check_theorem T1 [Petersen extras]":
        "59bb0f886bc4791c8069e00987e793113b6d0b8b352ee1fc0240ac6eaa4f5973",
    "check_theorem T2 [members n=8]":
        "61ade833369c9817173e6a92e770ddf0c22eebab1723cfe52261be889dffbc45",
    "check_theorem T2 [Petersen extras]":
        "2314f6486acf05afdb9bab7a278e128fbbb31ccb3203e8f7c5912977cb605078",
    "check_theorem T3 [members n=8]":
        "6ad615669e9aff000713f6656058331a2c1b887ac95d9cb855781718b7d75955",
    "check_theorem T3 [Petersen extras]":
        "f3232e0c0900d1e65a0f3f674345235c986b4d43f1fd0bb145d79afe06dd8514",
}
