"""Golden stdout: every instance command must print exactly the pinned bytes.

Criterion 10 compares a run with itself, which a change to an exact kernel
or to the way a command shares its work would still pass. These sha256
digests pin the stdout (and exit code) of all eight instance commands on
every bundled instance and on one family that is not a matroid, plus
`corpus 4`, `corpus 5`, `corpus 5 --rank 2`, `corpus 6`, `corpus 7`,
`corpus 4 --cap 2` and `enumerate-matroids 6 3`, `ehrhart-check` on two
equal-degree files that are not bundled, `hilbert`/`normality` on four
mixed-degree ideals that are not normal, `normality` on Veronese(3,50),
`polymatroid-check` on Veronese(3,50) and Veronese(4,20), `analyze`,
`hilbert` and `normality` on the wheel W4, `hilbert` on the wheel W5,
`hilbert` past its parallelepiped cap on three instances, `ehrhart-check`
past a cap on two mixed-degree ideals, and `validate`/`polymatroid-check`
on two families in 40,000 coordinates, so any such change fails here.
Regenerate them only when a change to a report is intended.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest
from test_cli import veronese_3_50

from reeskit.cli import main
from reeskit.jsonio import bundled_names

GOLDEN = {
    "graphic_k3": "d19f6ad094d9a3e4c8404a4d00bd983ce2f9b465379e966e8926a3c74f544fc4",
    "graphic_k4": "72f484051e193ddefa948cdb380802471bb6647d27c7b99aee9064b6eec4e625",
    "ideal_mixed_neither": "c45e5297b9c1657428db863bbf9100ba101f18bac99fb465426de019436e4078",
    "ideal_principal": "e7e02fd5d368aff207ad1a315771e7728d5bb39af372eb6b58c822739cbc9e99",
    "ideal_two_squares": "cd05307a4ebe71049ddf8446b37b9f30fe4c4fc2adb8baeeb2ee3e82a7d58b42",
    "transversal_12_123": "1b50e156e9871188b314679022ad50a4367ca71f6d085bb4e2eb0ced4b62c70a",
    "u_1_1": "2133f5b8c311e90d8682f1629192ecc67c611cafdb299c9fadee08a9542e4175",
    "u_1_2": "7cebf451fe4c6a7dbff5b86c2d095080b28705d2bc3d0f18b2ab58cadeb942b4",
    "u_2_3": "829d81fd8e6763e677cc74c715e131bdcf247324900f85aa18fca958b2994642",
    "u_2_4": "a2916146d0aeb8fb37b7066c44580717863d69ac2439ac173592587da2279e6c",
    "u_3_4": "66a0f2f6e6c862b50e4896865c75b31d442f204650c136ac39a1c97bd9487981",
    "u_4_4": "41d70c7d86af77b5d360a85a02c25edec79469776f8f6415e335a873417c0beb",
    "veronese_2_2": "8cc563bbc501cb52577df74e7216bd1c0fc87cf3cb48b1007102f6c20e9ce908",
    "veronese_2_3": "3127fe4fe3e721fb49162b48882f376ce0e293e3754ad097fe33667ff8edf36a",
    "veronese_3_2": "0a5f1b886b02c772718c10851c3bc88eabfdb77bd375e0570f4020488d8f48ff",
    "veronese_3_4": "603ac7337ae1575095bad217ff61b9c47e09089ccd85c469a8775e1d8b7da7a9",
}


INSTANCE_COMMANDS = (
    "validate", "analyze", "rees-facets", "classify", "hilbert", "normality",
    "ehrhart-check", "polymatroid-check",
)

# Bases {1,2} and {3,4} fail the exchange property: the invalid-instance path.
NOT_A_MATROID = '{"n": 4, "bases": [[1, 2], [3, 4]]}\n'

# (command, instance) -> (exit code, sha256 of stdout); analyze on the bundled
# instances is pinned in GOLDEN above.
COMMAND_GOLDEN = {
    ("analyze", "not_a_matroid"): (1, "2778756f7e1bfe5886bc1bbded3faa0134f687051393be73ba79b16193e87e8e"),
    ("classify", "graphic_k3"): (0, "fbbc6e1eefd442f58e0841d3894ddbded894d887d6098c3d794c22167e744462"),
    ("classify", "graphic_k4"): (0, "efb9c3d96e3cb6b732f52da2d98819aeaa8254f3efc9bec11895adae17648861"),
    ("classify", "ideal_mixed_neither"): (1, "0f65f9ad32bb44d698dd7b0cce5f1e95b2cf4f356dc097656a785a9628c1edd6"),
    ("classify", "ideal_principal"): (0, "4fd7ea004857d2061f2ce3bb7527b96fe29286563cbf5c1de3d280d90c882f60"),
    ("classify", "ideal_two_squares"): (0, "1fbcce297ae285b21a9701f2b1d5ded6f1451eeb2cd470dadde15da8b7ab43c5"),
    ("classify", "not_a_matroid"): (1, "dca78e7fd6fc745867c6117361b2e5804c53faeafb904310aafa2f26ce83c1af"),
    ("classify", "transversal_12_123"): (0, "1e142a16ef9123b1a55eee34e5e5990970fa6e61fceda29cd5138932b60b147e"),
    ("classify", "u_1_1"): (0, "ea5c07df8dfe14f2b4d51f5ab5b0a561b8fdb29f7e9678cbef497c273c731f24"),
    ("classify", "u_1_2"): (0, "6136764da249a3e4ac2e1983e95f507195b81b728c2787b2d2a66bb31b69c81e"),
    ("classify", "u_2_3"): (0, "4899d8ff0fe5075fabd26a3a45f8ffb479506a338fe6aced930b7b8328f4a2db"),
    ("classify", "u_2_4"): (0, "15e94efa98b5f623a8d941408139b6a703fc0b2d5aff265fe184df5acc1047aa"),
    ("classify", "u_3_4"): (0, "d380d4688bcc5598188615f1f3fcb230bbbcda13817ecbea2c47aad21a506e97"),
    ("classify", "u_4_4"): (0, "33215aab34bb364b23780f5a48ea321347e2869b74413508a1fe5125d0b380c3"),
    ("classify", "veronese_2_2"): (0, "c54bee91cd9cd07c5118eb99b4a20d6c498c1e232423ed46b1c215ad1d30e7c0"),
    ("classify", "veronese_2_3"): (0, "7e7e23f1fdcb1675d1034d55c63d075dd2984dd10b3470cc6e1214399bb28533"),
    ("classify", "veronese_3_2"): (0, "6161fa274cdf1ff68fec0c5f66cd1febeafe7da2f09da5ffcfaaa2a15906e167"),
    ("classify", "veronese_3_4"): (0, "7679647107fb257f4937298229a7842c391249dc6f0f28b76e0d3627a9c10804"),
    ("ehrhart-check", "graphic_k3"): (0, "64a7d24cc967caf3d8089fe82df01cfe662d450ebde227afe8370f63046163a9"),
    ("ehrhart-check", "graphic_k4"): (0, "a1a135417097721e6341aefe1367c02b1b4a0c1332893bd26659c23959ad88dc"),
    ("ehrhart-check", "ideal_mixed_neither"): (1, "707e9cc3d55ed2727bf6eb42c3f2e2978bf7a2412b59efae8621b78f132abb77"),
    ("ehrhart-check", "ideal_principal"): (0, "da62f84f623a465e6fd89593ef4a61cbb379f7f26068686f1bcdc852b67c8c22"),
    ("ehrhart-check", "ideal_two_squares"): (1, "9999a11e247202e6b4a7d07851e1ee9830b497b2f07b7b0173f06337eea12cb4"),
    ("ehrhart-check", "not_a_matroid"): (1, "dca78e7fd6fc745867c6117361b2e5804c53faeafb904310aafa2f26ce83c1af"),
    ("ehrhart-check", "transversal_12_123"): (0, "210a319fff35bafcb2c8f604b06977fcd6199e204364f95288a868cc311892f1"),
    ("ehrhart-check", "u_1_1"): (0, "51b4c8118481e4bb61612dc4d0832ad76b62be55ef2d8652a702c1cd651fe508"),
    ("ehrhart-check", "u_1_2"): (0, "c6c2d6585ef89074161dfb6df81fc7bcf09baa992d6cca951d886a3e4242846a"),
    ("ehrhart-check", "u_2_3"): (0, "6ae6f190ef572ae35847066251340f8dfc828ea4061c2d6be348caadeb5b4b9b"),
    ("ehrhart-check", "u_2_4"): (0, "0f7237c63d30323c1d641323db8993be37d6a24b0b6ad733b62c8a041df3c588"),
    ("ehrhart-check", "u_3_4"): (0, "7fa8e7aa4677490f39d24c5201f19bde1cfaedc7bee1d48a657a3c1a2bcf8198"),
    ("ehrhart-check", "u_4_4"): (0, "f80cd42b505219166dd2f14ef461122c39b688767eecddad306f0d34ee1464bf"),
    ("ehrhart-check", "veronese_2_2"): (0, "cd21eb7148c056ac23065ac76b6a216f83e847b5d642113b806e599360a7f839"),
    ("ehrhart-check", "veronese_2_3"): (0, "a8ccbad09be90765110b79524402640d6ca2d263baac83882404c8fa20bedc5f"),
    ("ehrhart-check", "veronese_3_2"): (0, "84e58fa3c35ac780269b2e6239b9127188a5af04ab6559ba0afe0afe3dccdd9f"),
    ("ehrhart-check", "veronese_3_4"): (0, "54e83dfa1aa8322cbd05509994cb6890e800b4b68b1cb69cd068cc5e38c1324f"),
    ("hilbert", "graphic_k3"): (0, "7e34b824d94f37b037477d7a09c28e9cb6db628c037d2e39374941bbce044bfd"),
    ("hilbert", "graphic_k4"): (0, "0ed37da6548fc1fe9c51594e5ae53abd376faca50751ba31af68c5dbf073e6b1"),
    ("hilbert", "ideal_mixed_neither"): (0, "fd85caa2adc4657c7247b18c34dfe428143cc1c612a5cebf3ee25b02fbbf32c0"),
    ("hilbert", "ideal_principal"): (0, "efc1020c766bac980b71fd4f74aa4614aa9e925f9638ff1c51e7c2413b67fe17"),
    ("hilbert", "ideal_two_squares"): (0, "7296495d7087e51e5d408925b591ed32325d2b7674e9e3487e5175d6a86ad13f"),
    ("hilbert", "not_a_matroid"): (1, "dca78e7fd6fc745867c6117361b2e5804c53faeafb904310aafa2f26ce83c1af"),
    ("hilbert", "transversal_12_123"): (0, "598c84f37d4900590db9240fa83c58831d1f2ef6f62d542d048eb0eec65a7e0a"),
    ("hilbert", "u_1_1"): (0, "ce52ed4146481d2fea6b8d55928d0d53df11bb061dc850d1b412d4c7e440b7ce"),
    ("hilbert", "u_1_2"): (0, "1e51c54e9d2f81c194aa8e11f9ecf991176ecb903d9c1353ff000f374d6f45ae"),
    ("hilbert", "u_2_3"): (0, "e6fc3df178cdd5be740a7aea27f4887c5c1555b0c56740a297774c15519c75f9"),
    ("hilbert", "u_2_4"): (0, "aa6fe93b8314c06e479760bde6daadc65c3982fe051e39ea803c53ec7cb56650"),
    ("hilbert", "u_3_4"): (0, "167f997915772d491c6b04a7f43c75da1caad11645fad44f56dae23aee8e3ff9"),
    ("hilbert", "u_4_4"): (0, "6195961df5d7eda33edf25e713cefaf7698b1daca40a9ce42ab0d580a65f00a9"),
    ("hilbert", "veronese_2_2"): (0, "eb5127966c78c752c306e480adb861b12f2bdbb134b1ceb83a1b91f63894a90b"),
    ("hilbert", "veronese_2_3"): (0, "82099d0e56504eb8e7fd799987cb1a1f3a8e7f627de56b23ab58d034b6bf479c"),
    ("hilbert", "veronese_3_2"): (0, "ae0c7caccdd3f5003c5db1ecf8877f9d07cacff6c17a3e15b6a9683a40902d35"),
    ("hilbert", "veronese_3_4"): (0, "008604bc9ca09b5f1e802c304dabd37630bbb3c0f0a6443132e442d247a172f7"),
    ("normality", "graphic_k3"): (0, "2a0c9519168cfff82a33426cca897383ab49dd38921b603b22d67eacb95e6cae"),
    ("normality", "graphic_k4"): (0, "4dd3596968729c2a5c2ea96af880b33474d60f11d9865b029ccfe014773d684a"),
    ("normality", "ideal_mixed_neither"): (0, "e62d18d32e231c8a512d28add68e3ead9555471fc58525507213590277422055"),
    ("normality", "ideal_principal"): (0, "9b8e2fff5308b1602c087383e5f158464c3ae4cb79bfb0f5b3b8dfc0f56c2696"),
    ("normality", "ideal_two_squares"): (1, "3a418aedcb3b3f1af251ed2c8564a4d5eb5150b2de2d1fcb713d7a3e41ffc430"),
    ("normality", "not_a_matroid"): (1, "dca78e7fd6fc745867c6117361b2e5804c53faeafb904310aafa2f26ce83c1af"),
    ("normality", "transversal_12_123"): (0, "dc97bb6dc772a038064ab9b1caf4b9e72b896ed8d71d577f5869240a268fbd4e"),
    ("normality", "u_1_1"): (0, "e7f0a8229e6417b3d3aed7d4bd53a8c2aac0917e4531c5b4e51932443a1e9dda"),
    ("normality", "u_1_2"): (0, "182ee96bae62de3feb6e8a441890866937df8cf320909cb58cbbc7e8e11cba1f"),
    ("normality", "u_2_3"): (0, "fb9757a377395cbb974b4fd56557ffafde97e90c05ec1ad9b878930e26812196"),
    ("normality", "u_2_4"): (0, "8cc263f4ce8a8aa21bc7f2168fb9b0dcfcd4cb0dc7d2cfa3c176225ad75c9bf7"),
    ("normality", "u_3_4"): (0, "6575208be9ef5c200d4e06de13c3a0b904060fabd34c5ab16c0b3c87db827fe1"),
    ("normality", "u_4_4"): (0, "b58ecc2d39274278023441ee6f13f20f5a5451dfb51d35ad03c6ffdeba27c7a8"),
    ("normality", "veronese_2_2"): (0, "bb9b1b2993de43fcfd83fab9d43f6c43a4f496524a8e0ea066ea4843bf789010"),
    ("normality", "veronese_2_3"): (0, "9976621e884ea8d8287b8ec729120ab02602b72196d89585aaef2aa9b874151a"),
    ("normality", "veronese_3_2"): (0, "4dac071c162fcd69bb6478fb1a33fcf2cce43ef635dd81947c1e83b8e1ccc557"),
    ("normality", "veronese_3_4"): (0, "499ad70f7d4db997ce9a4c7f81c40c9c854945ad8b3ea5710951d3229f2a1051"),
    ("polymatroid-check", "graphic_k3"): (0, "d10ded27b55865735d2f73fc8a412c0b45b4e8cf1913845bdf6ab6c7a821ca44"),
    ("polymatroid-check", "graphic_k4"): (0, "416f750764346a7a02e0cef3a3887b6489a64b01dec8555ef35e40568f95c0a7"),
    ("polymatroid-check", "ideal_mixed_neither"): (1, "2b945e88a63823ecf9be207358e14ed627a46f8e27b055ba8d0110e1eb0c2878"),
    ("polymatroid-check", "ideal_principal"): (0, "83bb39818f5a176988341797ef04acdd1ec0eaadf37cc356a77da6d0d19e8a9b"),
    ("polymatroid-check", "ideal_two_squares"): (1, "6447166886d48efe779e8ea0e658d307c5d548bff1e199fec4c9007f637c42f1"),
    ("polymatroid-check", "not_a_matroid"): (1, "dca78e7fd6fc745867c6117361b2e5804c53faeafb904310aafa2f26ce83c1af"),
    ("polymatroid-check", "transversal_12_123"): (0, "839a8d0902bd32db625485863a0ce81b66a3e709da63a7eaac33423fddd0eaf5"),
    ("polymatroid-check", "u_1_1"): (0, "cca6e377dab4b74a7d457afc7cba858b1613eebaa9bb0288506a3acb26d6fd27"),
    ("polymatroid-check", "u_1_2"): (0, "fa078c9e261d309359fbe1ef2dcf58690067e37d63c6e2037a5bcfbdab633610"),
    ("polymatroid-check", "u_2_3"): (0, "c103309b78cf2a928351a349c2d3f91a266260f9eea836ced5a858093b003995"),
    ("polymatroid-check", "u_2_4"): (0, "9e40f4bcd81902e90cf57faf13f22d98dd81d39fb8757321111c3908f1dfa603"),
    ("polymatroid-check", "u_3_4"): (0, "6e43b4d811dc4224845fda85610d4366aa169c77c8698005ec6e8660b62d820e"),
    ("polymatroid-check", "u_4_4"): (0, "43411883e8e322f04288afb7fc1cd417a4b076f51a9e886785dc607e6d139459"),
    ("polymatroid-check", "veronese_2_2"): (0, "8b839bc26fe34234937006f80c67fe09e1b16a1a467b7c773a913e1f69345ca5"),
    ("polymatroid-check", "veronese_2_3"): (0, "d512752b02433325e45e848c94239ac3ac928a8afae706c665aabf9ae62bb13b"),
    ("polymatroid-check", "veronese_3_2"): (0, "af81585fbc0fc78acea0d40ff93079c7e5877ecd2e6ead8770c2a6c50e61b555"),
    ("polymatroid-check", "veronese_3_4"): (0, "a2fa9dc683ff04603faa69f61dabbbeb48abb3e4cd9eaea9a5098e2c5b1ed14b"),
    ("rees-facets", "graphic_k3"): (0, "d6214aae4e6d5b84f12f9605136f4449746299a2b291dbf3a912a35a41fe1801"),
    ("rees-facets", "graphic_k4"): (0, "47c817218979ee71b28921080d213866db929f9a7a3b2de5dfcc3337fd5e45c9"),
    ("rees-facets", "ideal_mixed_neither"): (0, "d23cc044c55909bab28f54d58e42acbe3590f9ab30e1693cbde28ce61bcfff29"),
    ("rees-facets", "ideal_principal"): (0, "befde1c0adb9cefbd578e60880247c032cd5942a5ee3d33a0d993c09378c145e"),
    ("rees-facets", "ideal_two_squares"): (0, "a8c7752ebc2b5e3a6c2333e98a8d192ffdf676befaf04f6787e1500b261c0b18"),
    ("rees-facets", "not_a_matroid"): (1, "dca78e7fd6fc745867c6117361b2e5804c53faeafb904310aafa2f26ce83c1af"),
    ("rees-facets", "transversal_12_123"): (0, "05338d5362309af0738aceeac731811e665028d6b3d74296df606dc458751daa"),
    ("rees-facets", "u_1_1"): (0, "5f0076ad06f1a49690fbe2b83bfd80343f376d514d398937a7b029fc5f22a15f"),
    ("rees-facets", "u_1_2"): (0, "9fa99c646cd2e45486ce9e4a198badcd42a4adf27abf31a17d1dc8c224058f7b"),
    ("rees-facets", "u_2_3"): (0, "01ad1fde55686347a814470e4337048111ae4d8c158455feb6c380ec1c344e02"),
    ("rees-facets", "u_2_4"): (0, "222c24c1bc7ed7c06c3920aa0db03507e847d3353720561e49b8fdd12b31ed25"),
    ("rees-facets", "u_3_4"): (0, "137720f3b3ff14809e82940c81ed2b9ff9f78aa5298229fa0c273721b9849197"),
    ("rees-facets", "u_4_4"): (0, "99b224110aa5f9d0836b4b900e9058bffcddca22fc6eda6a21113853aeb46db0"),
    ("rees-facets", "veronese_2_2"): (0, "28101dc157ea4f2839fe23b186572601fa1583768ed855bec2e50d43c83cfd5f"),
    ("rees-facets", "veronese_2_3"): (0, "b0132130ac5e0410a79e6930177c9e3e28e784cdf188e27049ea59706b062388"),
    ("rees-facets", "veronese_3_2"): (0, "f9c6e1184c9b4f469f134e46e757c97d9a859891f0375d4ab88721713bece68d"),
    ("rees-facets", "veronese_3_4"): (0, "5b06805f3820885f02d3969f3ac5ff2534c7dc68e3632fe2def96c5336d61dc4"),
    ("validate", "graphic_k3"): (0, "d7de727c7f7336faa4d8cd31111b116324002a06e7e57c86ec80297438fad8cd"),
    ("validate", "graphic_k4"): (0, "b8155bbe2ab47668a1c52aef77831738bc33892e13c2ec06e44aaf1d4df19739"),
    ("validate", "ideal_mixed_neither"): (0, "9479602e62d672771baad34d72e4723e7d59e9baef101ef35ffc3fccf39e5158"),
    ("validate", "ideal_principal"): (0, "63ad03fe5d26f09afc5dc88b179c0c83f430db691024c432b14d58193a5b815c"),
    ("validate", "ideal_two_squares"): (0, "6e0751e658856191fd89d696f8e10ebcbf1f98df7dd2ff08dc0eb96e66f5de7d"),
    ("validate", "not_a_matroid"): (1, "ff798d47c9ed5466107d22df397bf4774dbd9690b8b4802048e45d536131f4e9"),
    ("validate", "transversal_12_123"): (0, "d3df913940b7ea1b9ef09d59c4120c5224f0fa808d44d015d4e099f790bf0231"),
    ("validate", "u_1_1"): (0, "172906f6599bcc93bf58a44d9fa1dccde7679b122ec1798cd39da224d6e7f31f"),
    ("validate", "u_1_2"): (0, "1e4465de116371c2772b24b5dd89914d882b00caeb5575738944c7a80aeaeda5"),
    ("validate", "u_2_3"): (0, "7a169566fed90777b277d32deeb8109122a670efd9f9567b48c08c0ab58cef81"),
    ("validate", "u_2_4"): (0, "5854a2ef9b4816f3049ad451f88fb3f8a3fe96d00d9e733566e34ba7cc2c3d9b"),
    ("validate", "u_3_4"): (0, "e5440acd4de016d8e487a983b883035fd49b3c41d9ee0f17d66b28aa77a4ccfa"),
    ("validate", "u_4_4"): (0, "b3ec3d1d6c010e8c794f6683f9927d9a3292d9137b812062ac0fd5ec6751295a"),
    ("validate", "veronese_2_2"): (0, "ba9f9bb5dd908de8abaf26c2587667df9d65b3e429373968772ed0907248ac52"),
    ("validate", "veronese_2_3"): (0, "d31db5befe50694be86e089c3c91eec424548b1d03343e9744c1e8ea69325812"),
    ("validate", "veronese_3_2"): (0, "fea7d85feb99e1cec53947095ab5fdc4ac82c78e9d263d00e58387240f297e11"),
    ("validate", "veronese_3_4"): (0, "a6b66aa47850da87460256491cb2e0370db27d734eee6f8ca71e15258ff2cfc7"),
}
CORPUS_4_GOLDEN = (0, "2c9528a6aa8e005db24fdd93d82ba8c455e6ea3b5905b9f1caabf7ace46488d8")
# corpus 5 runs the five checks, and so the pulling triangulation, on all 492
# matroids with at most 5 elements.
CORPUS_5_GOLDEN = (0, "d6f80f6582ab44cd7eebb572dfe8b66ea63e8ac4acccd39a84fd2a232dc8cd56")
# corpus 5 --rank 2 (215 labelled matroids, 24 classes) and corpus 6 (4,298
# labelled matroids, 161 classes): the class sweep must print what a sweep
# over every labelled matroid prints.
CORPUS_5_RANK_2_GOLDEN = (0, "95ede56a7f40b7d4c36a1ff813d91a11819f6b2c94c03a1762e4e037a9c27f81")
CORPUS_6_GOLDEN = (0, "046ad27bc8e89068a5f2506d4dea2b2ff1b2b2e723ffc143ddcc656b8bbd5da6")
# corpus 7: all 79,461 labelled matroids on at most 7 elements, in 466
# classes; the Fano plane, representable only in characteristic 2, is one.
CORPUS_7_GOLDEN = (0, "ce4b006b56ba5237cb81a8814e2d56ff4ccb627ae7318f1bf759962aa6e92e60")
# corpus 4 --cap 2: C3.9 and T2.2 fail on 30 labelled matroids each, so this
# pins the failure payloads, their cap messages and their order.
CORPUS_4_CAP_2_GOLDEN = (1, "47e37200bafad996722f13c846b48df3b03c87fd959efbe087dd5d0c35bc16c5")
# enumerate-matroids 6 3: all 2,053 labeled matroids of rank 3 on 6 elements,
# the largest enumeration below the cap.
ENUMERATE_6_3_GOLDEN = (0, "d6a92f0fb3ca13456d7495197bd25002cc1fd2f8b8e78ff6167c6f0a1d425131")

# hilbert with a parallelepiped cap the triangulation crosses: the message
# names the running total at the simplex that crossed it, so these pin the
# order of the simplices, not only their set. (instance, --cap) -> (exit, sha256)
CAP_GOLDEN = {
    ("graphic_k4", 83): (3, "c42ba0abb9b68b36a6173a11ab630873847a3f809ee445e22c2d0989daa901d5"),
    ("veronese_3_4", 1): (3, "ac6c4ac09b17a3d68a13cbb451fb126720dd58532fb264e5179663baed1e27e7"),
    ("transversal_12_123", 1): (3, "9d41b0ca23913a885b6986c9f4c4d03edf4149266bf5beab58598713a33d6dd8"),
}

# ehrhart-check on two equal-degree families that are not bundled: a degree-2
# tetrahedron that fails at b = 2 and 3, and the Veronese-type polymatroid
# {a : |a| = 6, a <= (2, 2, 2, 3)}, which passes. (kind, payload, --bmax)
EHRHART_FILES = {
    "tetrahedron": (
        "ideal",
        {"n": 4, "exponents": [[0, 0, 0, 2], [1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0]]},
        3,
    ),
    "veronese_type_2223": (
        "polymatroid",
        {
            "n": 4,
            "exponents": [
                list(a)
                for a in itertools.product(range(3), range(3), range(3), range(4))
                if sum(a) == 6
            ],
            "polymatroid": True,
        },
        4,
    ),
}
EHRHART_GOLDEN = {
    "tetrahedron": (1, "62830ec27e7d1494e1fee2bb3844ca84dded30637680bc561bad0a803011067e"),
    "veronese_type_2223": (0, "5c449142b26a478b873d57db98fa7e1875c03e8a6852e512aec7154284a73f68"),
}

# hilbert and normality on mixed-degree ideals that are not normal: the Hilbert
# reduction over candidates of many degrees and the witness path, which the
# bundled instances reach only through ideal_mixed_neither; ehrhart-check on
# them is the UnequalModuli document (exit 1).
MIXED_FILES = {
    "mixed_n3_a": {"n": 3, "exponents": [[7, 0, 2], [0, 5, 3], [2, 3, 0], [0, 0, 9], [4, 1, 6]]},
    "mixed_n3_b": {"n": 3, "exponents": [[13, 2, 0], [0, 11, 4], [3, 0, 15], [5, 6, 1]]},
    "mixed_n4": {
        "n": 4,
        "exponents": [[9, 0, 2, 1], [0, 7, 0, 3], [1, 2, 12, 0], [0, 0, 1, 8], [4, 3, 0, 0]],
    },
    # a simplex of composite volume 516, so its points come from the coset walk
    "mixed_n3_v516": {
        "n": 3,
        "exponents": [
            [7, 0, 16], [10, 8, 12], [11, 25, 7], [12, 29, 2],
            [14, 17, 19], [16, 18, 12], [22, 5, 13], [26, 7, 5],
        ],
    },
}
MIXED_GOLDEN = {
    ("hilbert", "mixed_n3_a"): (0, "d7c2a4e220cf29781fcdd3fc9b77aef94f944c2838dabb384a050cf44e6bc550"),
    ("normality", "mixed_n3_a"): (1, "e0f1f18538a0c9289cdcbae47fa9802e7f16b595b1d042cb3af11a05fa37a452"),
    ("hilbert", "mixed_n3_b"): (0, "a85c91a198a83d00ca81b2c934dadb2d30d2588056038913a3bcaac54fc91d6c"),
    ("normality", "mixed_n3_b"): (1, "ce74b4d60ac0bd860da29757fd3a7372795e5262a09cdbdd53a9f9b21f18decc"),
    ("hilbert", "mixed_n4"): (0, "81e61eea9bb7e8fc08d0ec3d747e9a7ec0821e274b97c29660eb76ff8d4ce40d"),
    ("normality", "mixed_n4"): (1, "dbba5a34b87ca1956aff76d8240711f2b0d4c1d8732a483eeb85f5441f360114"),
    ("hilbert", "mixed_n3_v516"): (0, "98478fd2b6875fdcf26c3f9447549fe4ade88ab0f71e09b0646531a8b31b7153"),
    ("normality", "mixed_n3_v516"): (1, "6b1ba7ed2bf85f7defeec9f92cd407af2a568daa019e45a24e390cf63e85bea7"),
    ("ehrhart-check", "mixed_n3_a"): (1, "46286642e9c4b62427be501ebec7aad08bb532cfda3032f8aaac67d484d4bc29"),
    ("ehrhart-check", "mixed_n3_b"): (1, "239fdd982199f7e98f41a47143a5f30a71eb576ad34bb98eb4d293ac9030426a"),
    ("ehrhart-check", "mixed_n4"): (1, "c3df0643e87c761c39f508030d659b0fe1f23f159a6d5a25f285f6c54a4a2b93"),
    ("ehrhart-check", "mixed_n3_v516"): (1, "2d492e969eb9519dda9c6a0384a3ebf4dfd4eda038a6a925bba3c3cca87b6bcf"),
}

# analyze, hilbert and normality on the wheel W4 (K5 without the edges 12 and
# 34; edges 13, 14, 15, 23, 24, 25, 35, 45 as elements 1..8): the 45 spanning
# trees, lex-sorted. Its triangulation is unimodular, 2,946 simplices, so the
# Hilbert basis is its 53 rays, and normality is certified by both routes.
# command -> (exit, sha256)
W4_BASES = [
    [1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 3, 6], [1, 2, 4, 6], [1, 2, 4, 7], [1, 2, 4, 8],
    [1, 2, 5, 6], [1, 2, 5, 7], [1, 2, 5, 8], [1, 2, 6, 7], [1, 2, 6, 8], [1, 3, 4, 5],
    [1, 3, 4, 8], [1, 3, 5, 6], [1, 3, 5, 8], [1, 3, 6, 8], [1, 4, 5, 6], [1, 4, 5, 7],
    [1, 4, 5, 8], [1, 4, 6, 8], [1, 4, 7, 8], [1, 5, 6, 7], [1, 5, 7, 8], [1, 6, 7, 8],
    [2, 3, 4, 5], [2, 3, 4, 6], [2, 3, 4, 7], [2, 3, 5, 7], [2, 3, 6, 7], [2, 4, 5, 6],
    [2, 4, 5, 7], [2, 4, 5, 8], [2, 4, 6, 8], [2, 4, 7, 8], [2, 5, 6, 7], [2, 5, 7, 8],
    [2, 6, 7, 8], [3, 4, 5, 6], [3, 4, 5, 7], [3, 4, 5, 8], [3, 4, 6, 8], [3, 4, 7, 8],
    [3, 5, 6, 7], [3, 5, 7, 8], [3, 6, 7, 8],
]
W4_GOLDEN = {
    "analyze": (0, "d6c192238846e873f4e75819d94d2a56d9a405fc5b4f3ecce0c1ff80f14d16ed"),
    "hilbert": (0, "e764e8d60c20b08121f5a0d618522dae90cc8eed38725be060f03e3b5c4da914"),
    "normality": (0, "3e633fcc82c1f68c439ddead7ca08bcba151c6eec9736b748211c3556636dff4"),
}

# hilbert on the wheel W5 (hub 0, rim 1-2-3-4-5-1; its edges, vertex pairs
# in lex order, as elements 1..10): 121 spanning trees, 131 generators in
# dimension 11, 102,026 simplices of total volume 109,585. (exit, sha256)
W5_EDGES = ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3), (3, 4), (4, 5))
W5_GOLDEN = (0, "c7085d38088affade271326f2d94349503ad86befdadaffbe01c7bfaa79d51b0")


def spanning_trees(vertices: int, edges) -> list[list[int]]:
    """The spanning trees of a connected graph as lex-sorted sets of 1-based
    edge indices: the sets of vertices - 1 edges that close no cycle."""
    trees = []
    for tree in itertools.combinations(range(len(edges)), vertices - 1):
        root = list(range(vertices))

        def find(x: int) -> int:
            while root[x] != x:
                x = root[x]
            return x

        for i in tree:
            a, b = find(edges[i][0]), find(edges[i][1])
            if a == b:
                break
            root[a] = b
        else:
            trees.append([i + 1 for i in tree])
    return trees


# normality on Veronese(3,50): 1,326 generators, a normal ideal certified by
# both routes. (exit, sha256)
VERONESE_3_50 = {"n": 3, "exponents": [[a, b, 50 - a - b] for a in range(51) for b in range(51 - a)]}
VERONESE_3_50_GOLDEN = (0, "882ed203f83dcd325f730db4a0555b77686747c3402696ceca814fdab6142524")

# polymatroid-check on Veronese(3,50) and Veronese(4,20): 1,326 and 1,771
# vectors, each walked with its divisions and the symmetric exchange.
# name -> (exit, sha256)
VERONESE_CHECK_GOLDEN = {
    "veronese_3_50": (0, "966759f5152148835e03115019dd4bc4041820c613d8cf605d18a7ed6c02c6d1"),
    "veronese_4_20": (0, "460dab736f44fb0d083dc92050d1a6f2830aa2072a31b0324b11c564345f29b2"),
}


def veronese_4_20(tmp_path) -> str:
    exps = [[a, b, c, 20 - a - b - c]
            for a in range(21) for b in range(21 - a) for c in range(21 - a - b)]
    path = tmp_path / "veronese_4_20.json"
    path.write_text(json.dumps({"n": 4, "exponents": exps}))
    return str(path)


# validate and polymatroid-check on families that use two of 40,000
# coordinates, so a walk that gave every coordinate a field would be slow:
# the matroid {1}, {2} and the polymatroid 2e_1, e_1 + e_2, 2e_2.
# (command, file name) -> (exit, sha256)
WIDE_N = 40_000
WIDE_GOLDEN = {
    ("polymatroid-check", "wide_matroid_40000"): (0, "0aa7f985e7723673414e9cab683bc9294d19022cf8013110c41d4462f08c9915"),
    ("validate", "wide_poly_40000"): (0, "23a6898cc9d5231704a049536f45a554d653920d5a6d254d211a74e953e27596"),
    ("polymatroid-check", "wide_poly_40000"): (0, "a0b3c1294d256e93b0f56d8b3daaa7535b9f432d02eb1353d20bd7275b42b50d"),
}


def _wide_payload(name: str) -> dict:
    if name == "wide_matroid_40000":
        return {"n": WIDE_N, "bases": [[1], [2]]}
    head = ([2, 0], [1, 1], [0, 2])
    return {"n": WIDE_N, "exponents": [h + [0] * (WIDE_N - 2) for h in head], "polymatroid": True}


def _run(capsys, argv) -> tuple[int, str]:
    code = main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


def test_every_bundled_instance_is_pinned():
    assert sorted(GOLDEN) == bundled_names()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_analyze_stdout_matches_golden(capsys, name):
    code = main(["analyze", f"bundled:{name}"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[name]


def test_every_command_and_instance_is_pinned():
    names = bundled_names() + ["not_a_matroid"]
    expected = {(c, n) for c in INSTANCE_COMMANDS for n in names}
    expected -= {("analyze", n) for n in bundled_names()}
    assert set(COMMAND_GOLDEN) == expected


@pytest.mark.parametrize("command", INSTANCE_COMMANDS)
def test_command_stdout_matches_golden(capsys, tmp_path, command):
    bad = tmp_path / "not_a_matroid.json"
    bad.write_text(NOT_A_MATROID)
    for name in bundled_names() + ["not_a_matroid"]:
        if (command, name) not in COMMAND_GOLDEN:
            continue
        source = str(bad) if name == "not_a_matroid" else f"bundled:{name}"
        assert _run(capsys, [command, source]) == COMMAND_GOLDEN[command, name], name


def test_corpus_4_stdout_matches_golden(capsys):
    assert _run(capsys, ["corpus", "4"]) == CORPUS_4_GOLDEN


def test_corpus_5_stdout_matches_golden(capsys):
    assert _run(capsys, ["corpus", "5"]) == CORPUS_5_GOLDEN


def test_corpus_5_rank_2_stdout_matches_golden(capsys):
    assert _run(capsys, ["corpus", "5", "--rank", "2"]) == CORPUS_5_RANK_2_GOLDEN


def test_corpus_6_stdout_matches_golden(capsys):
    assert _run(capsys, ["corpus", "6"]) == CORPUS_6_GOLDEN


def test_corpus_7_stdout_matches_golden(capsys):
    assert _run(capsys, ["corpus", "7"]) == CORPUS_7_GOLDEN


def test_corpus_4_cap_2_stdout_matches_golden(capsys):
    assert _run(capsys, ["corpus", "4", "--cap", "2"]) == CORPUS_4_CAP_2_GOLDEN


def test_enumerate_matroids_6_3_matches_golden(capsys):
    assert _run(capsys, ["enumerate-matroids", "6", "3"]) == ENUMERATE_6_3_GOLDEN


@pytest.mark.parametrize("name, cap", sorted(CAP_GOLDEN))
def test_cap_exceeded_matches_golden(capsys, name, cap):
    assert _run(capsys, ["hilbert", f"bundled:{name}", "--cap", str(cap)]) == CAP_GOLDEN[name, cap]


def test_ehrhart_check_tests_one_degree_before_the_cap(capsys, tmp_path):
    """ehrhart-check tests the one-degree precondition before it reads the
    Hilbert basis, so a cap the basis would cross still ends in the
    UnequalModuli document, with or without --bmax."""
    want = COMMAND_GOLDEN["ehrhart-check", "ideal_mixed_neither"]
    for extra in (["--cap", "0"], ["--cap", "0", "--bmax", "1"]):
        assert _run(capsys, ["ehrhart-check", "bundled:ideal_mixed_neither", *extra]) == want
    path = tmp_path / "mixed_n3_v516.json"
    payload = MIXED_FILES["mixed_n3_v516"]
    path.write_text(json.dumps({"kind": "ideal", "name": "mixed_n3_v516", "payload": payload}))
    got = _run(capsys, ["ehrhart-check", str(path), "--cap", "10"])
    assert got == MIXED_GOLDEN["ehrhart-check", "mixed_n3_v516"]


@pytest.mark.parametrize("name", sorted(EHRHART_GOLDEN))
def test_ehrhart_check_file_matches_golden(capsys, tmp_path, name):
    kind, payload, b_max = EHRHART_FILES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"kind": kind, "name": name, "payload": payload}))
    got = _run(capsys, ["ehrhart-check", str(path), "--bmax", str(b_max)])
    assert got == EHRHART_GOLDEN[name]


@pytest.mark.parametrize("command, name", sorted(MIXED_GOLDEN))
def test_mixed_degree_file_matches_golden(capsys, tmp_path, command, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"kind": "ideal", "name": name, "payload": MIXED_FILES[name]}))
    assert _run(capsys, [command, str(path)]) == MIXED_GOLDEN[command, name]


@pytest.mark.parametrize("name", sorted(VERONESE_CHECK_GOLDEN))
def test_polymatroid_check_veronese_matches_golden(capsys, tmp_path, name):
    path = {"veronese_3_50": veronese_3_50, "veronese_4_20": veronese_4_20}[name](tmp_path)
    assert _run(capsys, ["polymatroid-check", path]) == VERONESE_CHECK_GOLDEN[name]


def test_normality_veronese_3_50_matches_golden(capsys, tmp_path):
    path = tmp_path / "veronese_3_50.json"
    path.write_text(json.dumps({"kind": "ideal", "name": "veronese_3_50", "payload": VERONESE_3_50}))
    assert _run(capsys, ["normality", str(path)]) == VERONESE_3_50_GOLDEN


@pytest.mark.parametrize("command", sorted(W4_GOLDEN))
def test_wheel_w4_matches_golden(capsys, tmp_path, command):
    path = tmp_path / "wheel_w4.json"
    payload = {"n": 8, "bases": W4_BASES}
    path.write_text(json.dumps({"kind": "matroid", "name": "wheel_w4", "payload": payload}))
    assert _run(capsys, [command, str(path)]) == W4_GOLDEN[command]


def test_wheel_w5_hilbert_matches_golden(capsys, tmp_path):
    bases = spanning_trees(6, W5_EDGES)
    assert len(bases) == 121
    path = tmp_path / "wheel_w5.json"
    payload = {"n": len(W5_EDGES), "bases": bases}
    path.write_text(json.dumps({"kind": "matroid", "name": "wheel_w5", "payload": payload}))
    assert _run(capsys, ["hilbert", str(path)]) == W5_GOLDEN


@pytest.mark.parametrize("command, name", sorted(WIDE_GOLDEN))
def test_wide_sparse_family_matches_golden(capsys, tmp_path, command, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_wide_payload(name)))
    assert _run(capsys, [command, str(path)]) == WIDE_GOLDEN[command, name]
