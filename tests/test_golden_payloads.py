"""Golden payloads: the sha256 of every CLI scenario's payload at fixed seeds.

Equal seeds must give byte-identical payloads from one change to the next.
The document scenarios run on four documents, cards at even seed positions
and passports at odd ones; the other scenarios run on their defaults. A
change that means to alter a payload regenerates the tables with
``PYTHONPATH=src python tests/test_golden_payloads.py`` and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from zkpoi import runner

SEEDS = (0, 7, 12345, 2**63)
DOCUMENT_GROUPS = ("identity", "register", "registry")

GOLDEN = {
    'econ.circulation': [
        'a7cab79a9c0403610e72125f8ad7eea802b7d6b533f0269844dfe707e0d5d5d3',
        'a7cab79a9c0403610e72125f8ad7eea802b7d6b533f0269844dfe707e0d5d5d3',
        'a7cab79a9c0403610e72125f8ad7eea802b7d6b533f0269844dfe707e0d5d5d3',
        'a7cab79a9c0403610e72125f8ad7eea802b7d6b533f0269844dfe707e0d5d5d3',
    ],
    'econ.congestion': [
        '9500027c005aad0c95d4390e5f1a1d0676dcc4af9bb3a2d6f13bd38b0abeb582',
        '9500027c005aad0c95d4390e5f1a1d0676dcc4af9bb3a2d6f13bd38b0abeb582',
        '9500027c005aad0c95d4390e5f1a1d0676dcc4af9bb3a2d6f13bd38b0abeb582',
        '9500027c005aad0c95d4390e5f1a1d0676dcc4af9bb3a2d6f13bd38b0abeb582',
    ],
    'econ.dominance': [
        'def985e1579aa266a490d8657ac1ecfb53b9b4e664be6884344d853e4f3d708f',
        'def985e1579aa266a490d8657ac1ecfb53b9b4e664be6884344d853e4f3d708f',
        'def985e1579aa266a490d8657ac1ecfb53b9b4e664be6884344d853e4f3d708f',
        'def985e1579aa266a490d8657ac1ecfb53b9b4e664be6884344d853e4f3d708f',
    ],
    'econ.ess': [
        'e14290cf8ab0189cb1ec6db83bdfde8f17357a38e03538df2c4a2bc0ffe2fe4c',
        'e14290cf8ab0189cb1ec6db83bdfde8f17357a38e03538df2c4a2bc0ffe2fe4c',
        'e14290cf8ab0189cb1ec6db83bdfde8f17357a38e03538df2c4a2bc0ffe2fe4c',
        'e14290cf8ab0189cb1ec6db83bdfde8f17357a38e03538df2c4a2bc0ffe2fe4c',
    ],
    'econ.network': [
        '8c3f08c5f8e12e9a3a0e84152cabf2fd485f637d727f019543f04d8bb1c2979c',
        'cd8d7387622c537523b135354feced671c235ffc4e8ff51ba852906e1738b370',
        '9a0e3fd72fb4a76fb94893b47717f71f5d5562921819878108132695210be027',
        'ccf9ea63c9acbc94ef760c300b88e17fcfa2d167cace0ea1d6c8602e9f55fcf6',
    ],
    'econ.poa': [
        'f7dfcd50a5a1fadb9e053f16bcbfaa5a94a63f8c97c303f433e735aa5e3eef85',
        'f7dfcd50a5a1fadb9e053f16bcbfaa5a94a63f8c97c303f433e735aa5e3eef85',
        'f7dfcd50a5a1fadb9e053f16bcbfaa5a94a63f8c97c303f433e735aa5e3eef85',
        'f7dfcd50a5a1fadb9e053f16bcbfaa5a94a63f8c97c303f433e735aa5e3eef85',
    ],
    'identity.gen': [
        '1457a1f1122e08b144f22cad61fe575fbf4aa1a8a84d7eeb03f34bc994099c04',
        '1055d3f4d8dd563d34681d6c2cf8361f9447b0916206780ec880a1a34f76efc3',
        'c8a257a8941325bfc1860cb05c48fd8400c607f322328d8faf0ef345df733db3',
        '59d4c20e03f0374c47de445e32fbabefea8bcb8d301c9d3fb663b0f26f29cb0a',
    ],
    'identity.validate': [
        '79d8bca34c09eef7cb84a557fdb41b31617a38c06e8ee6cf960ca8d08e6a959c',
        '9a2471b4a8859d50f9a219c9d58d730e157ce7d4f02ab16047816d4feddba310',
        '79d8bca34c09eef7cb84a557fdb41b31617a38c06e8ee6cf960ca8d08e6a959c',
        '9a2471b4a8859d50f9a219c9d58d730e157ce7d4f02ab16047816d4feddba310',
    ],
    'register.build': [
        '2c62f8d421098600e6aef32b9d2ac709f943fcb48cbf1248cfe4ced67cca213f',
        '363d8410c977a185eba89f4dfea35a0fc80c7a7e1feeda8f175c03a4622db335',
        '18315d0dc51f48fca4e17fcad58db7f0f3b5a29dd13548060f3584a953d40b22',
        '80eb2c16c2c64a99e984ad51d83eefa1f700624997bf42bf2e0713f122559fc0',
    ],
    'register.verify': [
        'f7e98257206d4096f9c18e4d0fa78777e36ca501577fd52753fa5e06b6f452db',
        'a4cd2d19cbab751e115648440b7ab5d6b7b16202a32f41e191a06addd5b17a0a',
        '157275526faa2340bb214f30979c4e58b563298369ed3a4f83f124b40d5335b8',
        '3f158311fa7364adfb3311366cb04e0fe15842f5148e6c8cccf70186b8d0107b',
    ],
    'registry.dump': [
        '4d04e0a2fdf5f9e8a02de77b254899871a21c6961e6fd0786fb91b7658537761',
        '113834e1b41cdaed86a7a4866e55fa6fb9d1f3c5c7c904257fb5eab1954c1d9d',
        '1002dd2338e08b896897bc689c1a1763192bbe2ec73881f579175d450b7b70ad',
        '7d089f14229131a8effa7ef204ad6f8460bef173a822d4600ee2d617ca8e410c',
    ],
    'registry.offline': [
        '1abf339dbe89e9e56232102e962b4be03eee670a635a9ce32d079fbb6f70faca',
        '082af8ea391082920a5a5f985de27cf42837ccdda2469968e932d2dbc3f437ee',
        '2b9b43853f30d0efe6b942b0df91669d07e1144903f510cef1b7d1217b61d37d',
        '26d52030ee99b24c28a5a0ff46a108e4fe8faa2a48469ab5a6dca55dd81f72b8',
    ],
    'registry.register': [
        '61c43a9d4da634edfdf1aa9bf145996cc72c30890868ccc3d80d6bcea28d083e',
        'b68e94998fb5c8752741332bc5390df7c4a71467b3d05d1c0bc32cf1c53f4347',
        '237bea5688e965c179a620f918a1fad1708e15beb42d8c805665bfec41288796',
        '933bf43dcf073bd8f02efc249347365b14e4242ff2da92d88cf7343fcb5c7dbd',
    ],
    'sim.epoch': [
        'cd3678341670c430eb719c63e8d48ab6a1833a03eb4a12e74f4cfafc9054a301',
        '0fdd3f03a88feb7490c4946673e2bef6e5512ad1eda179bdb30f1fc7d31a9249',
        '030761e0494722cf7cb7c79e7620fd980a58563365984f02cfc8fab7497d6b07',
        '925ff2e2fd98df890dcc67ba778900c8211f78faee51a46401262ae4acc29b7a',
    ],
}


# Long `econ network` paths at one seed each: the cli_scenarios benchmark's
# config (default stride), and an expected-mode path from fractional counts
# whose stride does not divide its steps. Each is (config, seed, sha256).
LONG_NETWORK_PATHS = {
    'cli_scenarios': (
        {"params": {"steps": 150_000, "m_a": 2.0, "m_b": 1.0, "c_a": 2.0, "c_b": 1.0}},
        12345, 'c710e49db090ea5dd57fbc4504d06a3bd346317451a47e41b1c2605ce46a44cd'),
    'expected_fractional': (
        {"params": {"steps": 40_000, "m_a": 0.7, "m_b": 3.3, "c_a": 0.1, "c_b": 1.0,
                    "alpha": 0.8, "beta": 1.1, "stride": 997,
                    "expectation_mode": "expected"}},
        7, '1760e9a60f688e19d7fc6ac718187f2619b9b211c6177ea837da63d94cfaaabe'),
}


# `sim.epoch` with defectors of every kind at the four seeds, so the penalty
# path is pinned: both protocols, and the receipt run without sampling, where
# silent miners walk. Each is (config, [sha256 per seed]).
DEFECTOR_EPOCH = {"miners": 12, "shards": 2, "lazy_defectors": 2,
                  "false_hash_reporters": 1, "instruction_ignorers": 1}
DEFECTOR_EPOCHS = {
    'both': ({"params": DEFECTOR_EPOCH}, [
        '5e6b8548cad238bec223a771f0e0a6f26331d2d5214011728bab0dd9e34bc650',
        'df9dce0b54f9610d07972f4e1c06e754f30978c1d15baca44354558bdedf32b5',
        'b3e9c761585f0a0cf2d4ffca4665be62d689773c926b65421ca7eb5f9ac2fd38',
        'b00605fbb6ede883af338e786a3dc2c84d1257776309344e8c3e9c3ab1a36a5c',
    ]),
    'receipts_unsampled': (
        {"params": {**DEFECTOR_EPOCH, "protocol": "receipts", "receipt_sample_size": 0}}, [
            'd8b456fbbef4c525034d48f3db1f494fc1bd55bd3bceb235d6844164b4b5ca54',
            '9746e29d866766d6a00ea3ff6aa4006e8b204a646cefc81f303a55fdee75887e',
            'b782bf9306e80b0552fcda4675e9a9469f0849a05a53c9c7de0b7b441ff759e9',
            '1597549316a26061640a169edccda28839c658222001fdb6b3057e3d4b835714',
        ]),
}


# `econ congestion` and `econ poa` on an instance with four equilibria, the
# permutations of one load vector, whose potentials differ only by rounding:
# the pin holds the solver to the first maximizer in enumeration order,
# loads (2, 3, 2, 2). Neither payload depends on the seed.
TIED_CONGESTION = {"params": {"puzzles": 4, "miners": 9, "mu": 1.3, "gamma": 0.05,
                              "deadline": 0.8}}
TIED_CONGESTION_PAYLOADS = {
    'econ.congestion': '2a48d00b4f7592732acc9fd76970a3bde38b619d427140ab79dd8f3c50897cef',
    'econ.poa': 'ae9ee84001d46519470527eb6b43ff31cf67eec7f55aa65e392eac2b866a0298',
}


def config(scenario: str, position: int) -> dict:
    if scenario.split(".")[0] not in DOCUMENT_GROUPS:
        return {}
    return {"params": {"kind": ("card", "epassport")[position % 2], "count": 4}}


def payload_sha256(scenario: str, position: int) -> str:
    _, payload = runner.run(config(scenario, position), scenario, SEEDS[position])
    return hashlib.sha256(payload).hexdigest()


def test_every_scenario_is_pinned():
    assert sorted(GOLDEN) == sorted(runner.SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(runner.SCENARIOS))
def test_payloads_are_byte_identical(scenario):
    got = [payload_sha256(scenario, i) for i in range(len(SEEDS))]
    assert got == GOLDEN[scenario]


def long_path_sha256(name: str) -> str:
    config, seed, _ = LONG_NETWORK_PATHS[name]
    _, payload = runner.run(config, "econ.network", seed)
    return hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("name", sorted(LONG_NETWORK_PATHS))
def test_long_network_paths_are_byte_identical(name):
    assert long_path_sha256(name) == LONG_NETWORK_PATHS[name][2]


def defector_epoch_sha256(name: str, position: int) -> str:
    _, payload = runner.run(DEFECTOR_EPOCHS[name][0], "sim.epoch", SEEDS[position])
    return hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("name", sorted(DEFECTOR_EPOCHS))
def test_defector_epochs_are_byte_identical(name):
    got = [defector_epoch_sha256(name, i) for i in range(len(SEEDS))]
    assert got == DEFECTOR_EPOCHS[name][1]


def tied_congestion_sha256(scenario: str, position: int) -> str:
    _, payload = runner.run(TIED_CONGESTION, scenario, SEEDS[position])
    return hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("scenario", sorted(TIED_CONGESTION_PAYLOADS))
def test_tied_congestion_payloads_are_byte_identical(scenario):
    got = [tied_congestion_sha256(scenario, i) for i in range(len(SEEDS))]
    assert got == [TIED_CONGESTION_PAYLOADS[scenario]] * len(SEEDS)


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in sorted(runner.SCENARIOS):
        print(f"    {name!r}: [")
        for i in range(len(SEEDS)):
            print(f"        {payload_sha256(name, i)!r},")
        print("    ],")
    print("}")
    print("LONG_NETWORK_PATHS sha256 = {")
    for name in sorted(LONG_NETWORK_PATHS):
        print(f"    {name!r}: {long_path_sha256(name)!r},")
    print("}")
    print("TIED_CONGESTION_PAYLOADS = {")
    for name in sorted(TIED_CONGESTION_PAYLOADS):
        print(f"    {name!r}: {tied_congestion_sha256(name, 0)!r},")
    print("}")
    print("DEFECTOR_EPOCHS sha256 = {")
    for name in sorted(DEFECTOR_EPOCHS):
        print(f"    {name!r}: [")
        for i in range(len(SEEDS)):
            print(f"        {defector_epoch_sha256(name, i)!r},")
        print("    ],")
    print("}")
