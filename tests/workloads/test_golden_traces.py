"""Golden digests of generated traces: the generator's output is pinned.

Each digest is the sha256 of every processor's ``ops``, ``addresses``
and ``gaps`` arrays (dtype string, then raw bytes, in processor order)
of one generated workload. The digests were taken before the emission
path was reworked for speed, so any edit that changes a single draw,
address or dtype fails here directly, independently of the simulator
fingerprints in ``BENCH_core.json``.
"""

import hashlib

import pytest

from repro.workloads.benchmarks import benchmark_names, get_profile
from repro.workloads.generator import SyntheticWorkload

OPS_PER_PROCESSOR = 5000

#: (benchmark, processors, seed) -> sha256 of the generated arrays.
GOLDEN = {
    ("ocean", 4, 0): "7ec51e5232006b51a85d71fae374d6feca1d3250f02808f486ce9c9f53bc528b",
    ("ocean", 4, 1): "7ee03d3ccd25e6a5b2537dd79266fbd2ab52bd53b248bbc42d75857a07cc5550",
    ("raytrace", 4, 0): "b1008ffec1bb701d2a19bb6e724d221ae8dbc23d1b4bde11a0c527f028e41464",
    ("raytrace", 4, 1): "87dce7b75fcab45d11bfb17e56133f27b193ff2e649b52a271635e3be8d3a3f9",
    ("barnes", 4, 0): "c80654ee962dff8699d067cbfa73122753bde740b6474873b0189dd6d8aa0d6a",
    ("barnes", 4, 1): "bda8af9ba024bf8c2ff106cfa4d5483dbe13c9563aae342cdaa19c242a227ffa",
    ("specint2000rate", 4, 0): "6fd196d6d155ecac1f5fe935261249243be69936e11731f3e641312b292988a3",
    ("specint2000rate", 4, 1): "60f7475b9ca1c5caf6523f1912beca4fee1a684eaf6d986cd652903b4cabaa98",
    ("specweb99", 4, 0): "069a8d86d11d5ee455aff6d94ca56a8b52c10dcc1f55cbe04946d101aa1178f9",
    ("specweb99", 4, 1): "333e0aead78154f959e6ead3a3df0537ad8aba11e95406a9acf8bb43a3c53517",
    ("specjbb2000", 4, 0): "f1a91cfb70d9d45a6fc010259ee174a178490de720ad50676ee86659e4f184ec",
    ("specjbb2000", 4, 1): "233e17d5b44ef0d644812844a99f9a115632051bf986d51b8df648cf52c13f89",
    ("tpc-w", 4, 0): "701b09e9a92994a304221c607fbc6e17dc9969f24b4eb81c7ccc370e8c106579",
    ("tpc-w", 4, 1): "3d377ce865446d3ef2ed15a7aaecebf13286292cc52cbde67f26bdb1c236c148",
    ("tpc-b", 4, 0): "4723a0e9350476481f019a982888024423fbfecf37073940205d1063054e16ef",
    ("tpc-b", 4, 1): "d7bd211e7c6be3d5ca7aafbcccfa2b424e2b0d48e9592968f92a488ef18b6b28",
    ("tpc-h", 4, 0): "83e1700f92a8bfdbbf63479aca3f99935df71eb74efee76def3f45ad6703cf95",
    ("tpc-h", 4, 1): "2806f9acc9d7c54540e2d7b0ea2b4f08b37208f91c0007b7e50fcf9a890c89f1",
    ("tpc-h", 16, 0): "71ba2fe7c351ac00c28527802de81746a8a0fa494df3a76c1c76261d6d62ea74",
}


def trace_digest(name: str, processors: int, seed: int) -> str:
    workload = SyntheticWorkload(get_profile(name), num_processors=processors) \
        .build(seed=seed, ops_per_processor=OPS_PER_PROCESSOR)
    digest = hashlib.sha256()
    for trace in workload.per_processor:
        for array in (trace.ops, trace.addresses, trace.gaps):
            digest.update(array.dtype.str.encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


def test_golden_set_covers_every_benchmark_at_4p_with_two_seeds():
    assert {(name, 4, seed) for name in benchmark_names() for seed in (0, 1)} \
        <= set(GOLDEN)
    assert any(processors == 16 for _name, processors, _seed in GOLDEN)


@pytest.mark.parametrize(
    "name,processors,seed", sorted(GOLDEN), ids=lambda v: str(v)
)
def test_generated_trace_matches_golden_digest(name, processors, seed):
    assert trace_digest(name, processors, seed) == GOLDEN[(name, processors, seed)]
