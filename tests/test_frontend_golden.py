"""Golden bytes of the front end: the synthetic traces and their L1 miss streams.

The front end (trace generation, then the split direct-mapped L1
filter) feeds every exhibit, so a change there that shifts one random
draw or one miss moves every result.  These sha256 digests pin its
outputs byte for byte, dtype included: the four arrays of every
workload's trace at ``SMALL`` scale, the four columns of
``l1_miss_stream`` at 1 KB and 8 KB for gcc1 and tomcatv, and both at
full scale for gcc1, where the instruction and data streams span many
of the generator's and the filter's chunks.  A change that means to
move them updates the table and says why.

The same module bounds the front end's transient memory: its traced
peak may be only a fixed multiple of the bytes it keeps.
"""

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from conftest import FULL
from repro.cache.hierarchy import l1_miss_stream
from repro.traces import store
from repro.traces.store import get_trace
from repro.traces.workloads import workload_names
from repro.units import kb

#: The scale of the per-workload rows: 50,000 instructions.
SMALL = 0.05

#: ``(workload, scale)`` -> sha256 of ``i_addrs``, ``d_addrs``, ``d_times``, ``d_is_store``.
TRACE_DIGESTS = {
    ("gcc1", SMALL): (
        "0ad8673d81b0cb04ddaea13a573f79f6d0e6ee55e3b263f23d3691d9cea08dc8",
        "26eee39ec6da144b6c886adf16e16ea873b4bae2421d1fa7d45e3536224c20e6",
        "cf810f90db9cab17f022c0e97afb91ea38206912ab4e496a9926ae6e1d7fa9ef",
        "2f70fda2318e26bef4f37ea80d8361adce5fc43fef05559b49967e7f83060e58",
    ),
    ("espresso", SMALL): (
        "8427a192dd96f0d7a498dfd3075268af1cb0f446bdfb67310f48c44d15da4964",
        "aef6b6b2432de879d2691ac1e6ab9e36b59aa17b90bc31db14a6314fb63c8015",
        "ba942cd762b15af1793648bb3124d7e0e09a4edea07612495be5f4c95f6c0166",
        "9759beaa5772a1c8f02f3934b6fc5a7a0eaaf24f9738a925f8be06e7c2905675",
    ),
    ("fpppp", SMALL): (
        "849e89c7b5813487db2589fc4d3c90a9a98775e23ca00f71e276ce748958f237",
        "f44fb6657704be4760ab371ed6eddc64b13b06ee2cacc04510080121c510a72e",
        "7ce11ef2aeca062caa7c3a3cf15a2bbb9a9f78b599fcff65990a72d8b9fe37d4",
        "faa22e46c842b63e6226c4ce208055dbd591ffcecc8422b22fbaef8a0994dc8a",
    ),
    ("doduc", SMALL): (
        "eca786ef5df1ef71ca5040c3f36798196ebe7b7a9f3f37fbce195b352b512142",
        "e446e739f40f2e7cad5d639d601297f7f3c48c5d1703f3fa0fcb0ef709af9b1a",
        "6fdf5f19165981b197adfa7f98a8c18f69162745e83da2f4bb444dc434a258f9",
        "ed996e34fccc79497fb43ebee1554d4f02721c5b12915b8d25e05578ebd76a2b",
    ),
    ("li", SMALL): (
        "9af42a41204ec44c6a23f3cf391ef5b7763f87ff0d2c7c19420f8142dd7d83e0",
        "2d9be331c4c82a64ee8ff79043ad2fce40a98f5ffb1bca4b0bbf7bb5b1d261cc",
        "81ca5558012b1bb3fba0f78a36610b6686c4d58721a4fceec637edfb26b98325",
        "4d4e105e7940847446a800ee269f0e8ca73b7220bc331ff7c8ac3c699aa31498",
    ),
    ("eqntott", SMALL): (
        "8177107f8d04f43a00f97440e46c91cb9c845652a4f16290438d849db3845934",
        "8ef59c547cd9554325cdc27dddf607dd9333fe9ced9df1634c35a6f098494921",
        "fac698024a5860a5c36e4b889b8326bbd1a7c28881a46579bbcc83965b75afa9",
        "2fea9302c3bfafc1f5678f0a45bb96277f2ed31f2b8152488748990018a0a390",
    ),
    ("tomcatv", SMALL): (
        "d168687c40cd5d27dfa6530b788b1e92e98c064ab413674f78189cf2472a3404",
        "14aa7272f21d05502851ad3b43c406d51835ccc93f27300180d89fb196d138be",
        "71e936b2d38db95a60337fb2358badb82ddb74b37c1c9a8f9311101534d3fdcb",
        "7fe3105505d974d4f8e9689c12bad08cf4127fd677956c8401c5c9ca5d2e963c",
    ),
    ("gcc1", FULL): (
        "92dad3a86607a7a5ab526d39916ba6c9ec5d095b37cbc1e9b869f4c45aeb62dc",
        "79fae135d6121b7f0fb9f634beaed174907c04caa78dfbe192b00b389a65fba1",
        "cfea647382058ae494edd0186eaf3b0dea910e0c5fbc21fb64c4b7285f52e62e",
        "e593b59394c6cfc7c1927313682a2ecf09e719040c679cdcb6cd1e5d27dd79ac",
    ),
}

#: ``(workload, scale, L1 KB)`` -> sha256 of ``l1_miss_stream``'s ``times``,
#: ``lines``, ``victims``, ``is_instruction``.
MISS_STREAM_DIGESTS = {
    ("gcc1", SMALL, 1): (
        "43ba7a40ea29fdddbd59ef1420ebfa82dcde10dafc3262f689a0d11d824da08f",
        "b8d58fb65deeecde5ad4a628a0227f67c8cc8f4e5bb4dbc72a11c415bd5a78c1",
        "ca84d654cadd058b3692e324061ea1273657ca5a014196ccf3f4cc22aece2098",
        "b444088d597facf1303812969955c7fb973997fac85033e49b9209b266adb00d",
    ),
    ("gcc1", SMALL, 8): (
        "ac10d2c4bae0978716a4a84687b89063f151525226b5771019ad580d6997b875",
        "a6ea150072402276ef5061a018f38907c280629cb88f1813df5b509ba846dfe3",
        "0f17e70a9a872ce3ba19380e8de07cdb0bea3abc457b0f1e9dc3aa26ec9cdd88",
        "a7aa720c9c6b9d58c9e7b3eb70add5a234ae21eeadc1d8d33973934a89116b33",
    ),
    ("tomcatv", SMALL, 1): (
        "47daa800f145b89bd234cfd005f6878d19a6e6d4eff4a623909ec4dbbf223fd1",
        "bb7cce748822dc03a6dd2cf92aa83afce4dca49f7e12c4fd97eb4977a41327ca",
        "d31ee38de71258de680df20f7b091614bb7423fda0522a3e7a89be900308c1ef",
        "69c481ff7e84f7cd195556e1b333bb008a6956fc5cd8937bfeaa8e7c95c8d458",
    ),
    ("tomcatv", SMALL, 8): (
        "550d25b6ca4a7d75e29d40f8322fb0e25207d9c400893de9fd31270abb98dcdc",
        "00ffdd0f5f0690af167e6720af44dcfc4ac92c5bd0c63761d985a314e49794a3",
        "97afbcd8c71b09964c7e14bdb913a6c617cf46ce71dc86d066e574800819eedb",
        "9431ff2bd323455b4447c8d46cccba1df9c440145049a1dbb89d918fb2134caa",
    ),
    ("gcc1", FULL, 1): (
        "30afa6c0511b995af51c1dd4d452d139420714f04ea502da49c10a769e341e34",
        "c0e21b9399cb054f4dd0a6c158e2b2429e845c774de49d88ab32285d28be6072",
        "79d46f5325039c0a98a2fa137dbf6828ecc968bb23c5353e42e65003bbe867c9",
        "49ba623f7b0ccff76cd1ba762108932eaa1c416f8c59385b981148fabef6b5dc",
    ),
}

TRACE_FIELDS = ("i_addrs", "d_addrs", "d_times", "d_is_store")
STREAM_FIELDS = ("times", "lines", "victims", "is_instruction")

#: Ceiling on the front end's traced peak over the bytes it keeps (see
#: below): the front end reaches 1.25, and the ceiling leaves 0.05.
PEAK_OVER_KEPT = 1.30


def digests(obj, fields):
    return tuple(
        hashlib.sha256(np.ascontiguousarray(getattr(obj, name)).tobytes()).hexdigest()
        for name in fields
    )


def test_tables_cover_every_workload():
    assert {name for name, scale in TRACE_DIGESTS if scale == SMALL} == set(workload_names())


@pytest.mark.parametrize("key", sorted(TRACE_DIGESTS), ids=lambda key: f"{key[0]}@{key[1]}")
def test_trace_bytes(key):
    assert digests(get_trace(*key), TRACE_FIELDS) == TRACE_DIGESTS[key]


@pytest.mark.parametrize(
    "key", sorted(MISS_STREAM_DIGESTS), ids=lambda key: f"{key[0]}@{key[1]}-{key[2]}KB"
)
def test_l1_miss_stream_bytes(key):
    name, scale, l1_kb = key
    stream = l1_miss_stream(get_trace(name, scale), kb(l1_kb))
    assert digests(stream, STREAM_FIELDS) == MISS_STREAM_DIGESTS[key]


def test_front_end_peak_is_a_small_multiple_of_what_it_keeps(monkeypatch):
    """Generating a trace and filtering it through 1 KB L1s allocates at
    most ``PEAK_OVER_KEPT`` times the bytes of the trace and miss stream
    it returns.  tracemalloc counts numpy's buffers and is deterministic,
    so the bound needs no slack for noise."""
    monkeypatch.setattr(store, "_cache", {})  # generate afresh, keep nothing memoised
    l1_miss_stream.__wrapped__(get_trace("gcc1", 0.001), kb(1))  # lazy imports, not counted
    gc.collect()  # no earlier garbage may be freed inside the window
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        trace = get_trace("gcc1", 0.2)
        stream = l1_miss_stream.__wrapped__(trace, kb(1))
        kept, peak = (value - before for value in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
        gc.enable()
    assert len(stream) and kept >= trace.i_addrs.nbytes
    assert peak / kept <= PEAK_OVER_KEPT
