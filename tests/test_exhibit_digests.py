"""Every exhibit's result bytes at scale 0.05, pinned by a sha256 table.

One serial ``repro report`` of all registered exhibits, compared file by
file with the digests the model produced when this table was last
written.  It runs in a fresh interpreter, as users run it, so the memos
it fills do not linger in the test process.  Only the results count: ``<id>.json`` and ``<id>.txt``.  The
journal, manifest, index, run metadata and integrity sidecars carry
times and paths, so they are skipped.  A change that means to move a
result updates its row and says why; any other difference is a
regression in the model.
"""

import hashlib

import pytest

from conftest import run_fresh
from repro.study.registry import experiment_ids

SCALE = 0.05

#: ``<id>.json`` / ``<id>.txt`` -> sha256 of the file written at ``SCALE``.
DIGESTS = {
    "ext1.json": "7d1b2fb17a8da1fc3f82b41a8a0c31e48c69226335fd688bd3ef1012f5f8df38",
    "ext1.txt": "14ae7853a492f8f5a3394100a1890f5f256589cf0e374bb2d5f32df74e4bcdb4",
    "ext2.json": "02312b0fdc959698f9bd389c1c86f1472d7b440b2ff604b76d456adc35552320",
    "ext2.txt": "4cb43ce1f351f213bd8f7fa85fc1c564cc4875e1c84a1f6c255cc0f9b66b0f03",
    "ext3.json": "2958739abb361d8e9ff7361c4867b9cbfb048e61b64c68d0140612634b525e5d",
    "ext3.txt": "f1c16bd07459ff1d5f80dd4a15c1637e79b9489a1754ea6582d60990ba1d5c07",
    "ext4.json": "bfd370368789102fc9202124a9e3d1e4d2e7ed242467637e0e2faffdd2097fdc",
    "ext4.txt": "cdcaee6254ae4da17c3dbadc4db4e6c94452b1bd7df15281eb548c59e20bfa60",
    "ext5.json": "b1e99a5fd59b30f65a4c012e504c4b40e62e23958e0f559417bf70144cea0b96",
    "ext5.txt": "1be79660fff9894dae40363e9365e87f617c82644e90096a281dd86d397daae5",
    "ext6.json": "dcd41a23bedc4abcdc62c7d0e4ebbd2763b9ae354cacb09bf7d37cd785138472",
    "ext6.txt": "8625d6ba6e5a8c14b861052b8d830a68b8558f0b45d698df92f860e80349949f",
    "ext7.json": "c81cd7672247ae431031eaecbaa2573d350181b3b9f626cc2cdfb9a5e720b874",
    "ext7.txt": "e67b4a36ec0fd0b22e03210ba5b8850ae4ecf8e82d114531d68474e4081f9ab0",
    "ext8.json": "9e8162437c35358111945d609439b2bd38db574a084fc62c03b92dfd91f3b1cb",
    "ext8.txt": "66a169e76beafe2009f3835783ac7f79d18e3a7141c8a373fc598bab9127ae48",
    "ext9.json": "456c912ad85c5e932e7ef4d778ae1e657cacac579b6107b1c7d0a6ca7cea1c65",
    "ext9.txt": "bee87e09e519253f666ec9709beb6086e2d29d22086cc2a9485a1e64cccd7400",
    "ext10.json": "f8260bae9b74a6a83c6b3403abdc14760235267779451e5a500f61612a78aa5e",
    "ext10.txt": "26d2bddf4f8ccc2fcf45af1fb6232979943d9ffdef579381747846356109722d",
    "fig1.json": "f58a9a4a8775d48bf373fb624d54c878f0c525254f61e52667fe44858e050bb0",
    "fig1.txt": "0393d05dd8d0aa8462d53c7a0f064ddfb0e4ef34719e81093d9bc218f4d920ad",
    "fig2.json": "0bec1487439dc0abb4895d1c9fb846ce318cc3a64fce121a62bde646ce51ba6d",
    "fig2.txt": "3c4c8ea90210c3fde9d523e59841a6ecf1378183cfe165ce575c5745fb59488f",
    "fig3.json": "be767fad8e078a1e72ad6ada9452d05ea4b144d225eba72f2e9f687e034424d3",
    "fig3.txt": "e825d5e0b608f25461ae0dc3b1c94c0263880dbaef4032419be7b7ea718b7e6c",
    "fig4.json": "1c548570edb2c873fabb8093e51e26c67b52ed3eacbcd753fa2fd74be8b6835d",
    "fig4.txt": "aaaaec0d3a6ca345dc2bd6be5ce9c8254809ac58177ae3c974a54f02320e1c73",
    "fig5.json": "c495399bb624e8b4723f67260a5b5971eddf15e6515c830c7fb195ac18bfa5a5",
    "fig5.txt": "6486e97d3b245094b5a110bd04724f5c35133ff8ed0af74829061f45bb882031",
    "fig6.json": "5db2838a1d1ff24a2c92d0563926246c853c76b4f92a79d50a82fc70763b6465",
    "fig6.txt": "8fbd343be4ce8d40e2e71999edcd711353c282127e6c2655b368d14bdf2f898e",
    "fig7.json": "ce0e9b69f4a705dd2ea104f31cc49ce499fffdf0cd5531eafdafb3cd446265e3",
    "fig7.txt": "4e18189dc2310298fe9492cbe955f583b685cbbd00fec616a615c1f67d0b9acb",
    "fig8.json": "5c167f5ddccb16404e5f7dbeb55d2c0008f5b9057d9d4412725e90bc514454df",
    "fig8.txt": "1da39cafa3af9b1f00f5b4e7400eadfb8f9f2be34dd761f25c586863013c3d7f",
    "fig9.json": "1d64953db2f6ddc062ea197cb66d75a1770164cca9dc10369f975b5b0fdda29d",
    "fig9.txt": "e46c4f7691fae800af454e550e6457d6443f1b6831eefcb8fc96d844a4ba4340",
    "fig10.json": "96c91e4ef473d6e31fc578b1fc5cdc2970e1abc6d6ab7d2cb95089b34b0d1b1b",
    "fig10.txt": "cde8da39de8bc55ea4a6690f8cea51f2efb45254bf97849f5500d24481419b64",
    "fig11.json": "cbb20bf17564e1d659a5f425eaaacafe037937bf949f0a8260e3d9c0ee3858ea",
    "fig11.txt": "e8b6f3191407b661be63f4051a4d3b8d63c2e63e8d741c9eee71253593c3a19f",
    "fig12.json": "642cc7aeffa96503199be0fa410983fdc3a353fc2ab2439a7a0f0d914905b732",
    "fig12.txt": "957aedcfadc75027582ad1eb8b721b7334370a7651cb69e7612d33a28889521f",
    "fig13.json": "a2e6be78d97fd104ab3f07e420fccec03f5bf1a06a314a51f332cc87b7c29786",
    "fig13.txt": "c644d7fc323686b60d9ac05894e62cb57eba225eb7e9d4542599d7b6d355f66f",
    "fig14.json": "6ff806e7507c2e94df3dd1867452d75cc13f62625c9b94e161412ccddb891687",
    "fig14.txt": "9022d443e30cc306d03bccfa240818002703fb3e072d72cd262bf1f0dad99629",
    "fig15.json": "634cbc7975fe76b1ce0829180ac52aa31515f9d22fe9d9d7e60a05bbdee24b09",
    "fig15.txt": "f06bbe8ddc42ab0d6b9253d86a6697b591247870a57a57db881632ada6ff8c6a",
    "fig16.json": "6150951556a5e46108c1a29991f8dd50812990edf44d64ee2464e28a45c32d97",
    "fig16.txt": "4a7c60b23c0b593fe15ce3c729ea23181bb37b5fad02267480047332daa436c5",
    "fig17.json": "00f6bd9370e02a07c818810712e0c8dcc9339001bcb43ccaf1ec264c297332d2",
    "fig17.txt": "0f8cc658821fddf810e43035b3f64426ac2bfaee51361961022646a5b89e0a47",
    "fig18.json": "538cdcf5f34731770abf1198555353174b286929f9f3094adc751cb2a1b023e2",
    "fig18.txt": "2fd0a750fdf18a094268827f6a2d7931facf15e6c5756864daf013e986634ab9",
    "fig19.json": "4f72ccb81bb4ff8f9ed3ef80608f3c3cb4f814b1229933edcc00c29b748fdbb9",
    "fig19.txt": "d5fae4fd5ce4b654b726094e8c052ed0ae5da1caefae34002d70a5b1a7aee10b",
    "fig20.json": "5d87b604fc993e50cef56b7533bc312475fde5c9584b374ab4d16e3826300a89",
    "fig20.txt": "21afdeba3b18fb42ce57ca74998f249ff043cc4213127504ca54a4981b163ba5",
    "fig21.json": "c0fe9cc334c42bda29f829c0985d3ed6215981c671df081fc925eea33961d7e7",
    "fig21.txt": "87602d8fd8e192e1a848f16b7cafd900a52f6f1f28fbcbfcfe2d51149e4e3007",
    "fig22.json": "9798e81242c83c7820db62f100742487d8a3f36b3df2b572bed816c2cf6456fe",
    "fig22.txt": "76061a22ebec40d023ff3f765c6c8f237e2b070480e626bf3439830bff67cb75",
    "fig23.json": "ffeb59c9caa44f18d76036a68ca6596b7aa2a220f9f9c3d0d968f4f8e6fc9f76",
    "fig23.txt": "f92967d29e2a0e4270de4280673b6982c5d74910961b60178acd94a361085dfb",
    "fig24.json": "c249094dbf08f3dd129cea434d0a33d70324783dc78db2e634c146ac2164d511",
    "fig24.txt": "8a5d4292c835a88f1fa5d98b57f52f00f90e67bddbe5485ee0c961b1eaba80bf",
    "fig25.json": "8ed3e3c77bae5160e4eb463bc25fe9d869a2b43175236f244671f3808654ad72",
    "fig25.txt": "4be1c4b9947528aaf25704efc72c0fc5c09624a3c9dfd70cfc96cd896a1f2eea",
    "fig26.json": "5423e6e83b4a2fdaa72dd998f73b5081deef194b33f459c347c8e15bc36788b8",
    "fig26.txt": "a1ae824d0a6eb912b1fe712b2342f4cb3b444bb4115f844d286d79ee65ffec52",
    "table1.json": "bf1e8003f57a50d9b23abe0a69377128e6760cabd970b8838aa30866d55a63bf",
    "table1.txt": "f21a92ab895e8032e0ba76f9d33909859d16ef33300d56cf79e95c1dcc5a5d9f",
}


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("exhibits")
    done = run_fresh("-m", "repro", "report", "--scale", str(SCALE), "--out", str(out), cwd=out)
    assert done.returncode == 0, done.stderr
    return out


def test_table_covers_every_exhibit():
    names = {f"{eid}{suffix}" for eid in experiment_ids() for suffix in (".json", ".txt")}
    assert set(DIGESTS) == names


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_result_bytes(report, name):
    assert hashlib.sha256((report / name).read_bytes()).hexdigest() == DIGESTS[name]
