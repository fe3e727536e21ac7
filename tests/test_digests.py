"""Pinned output bytes: the sha256 digest of every artifact, stdout and
the exit code of the shipped runs at their default margins.

A change that moves one of these bytes must update its digest here and
give the reason in CHANGES.md.
"""

import hashlib

import pytest

from feederprot.cli import main
from feederprot.netfile import fixtures_dir

FIVE_NODE = str(fixtures_dir() / "five_node_scenario.json")
CASE_A = str(fixtures_dir() / "ieee37_case_a.json")
CASE_B = str(fixtures_dir() / "ieee37_case_b.json")

RUNS = {
    "coordinate-five_node": ["coordinate", "--scenario", FIVE_NODE],
    "coordinate-case_a": ["coordinate", "--scenario", CASE_A],
    "coordinate-case_b": ["coordinate", "--scenario", CASE_B],
    "optimize-five_node": ["optimize", "--scenario", FIVE_NODE],
    "optimize-case_a": ["optimize", "--scenario", CASE_A],
    "optimize-case_b": ["optimize", "--scenario", CASE_B],
    "timeseries-case_b": ["timeseries", "--scenario", CASE_B],
    "fault-five_node-node2": ["fault", "--scenario", FIVE_NODE,
                              "--at", "node:2"],
    "fault-five_node-lateral1": ["fault", "--scenario", FIVE_NODE,
                                 "--at", "lateral:1"],
    # downstream of the synchronous, asynchronous and inverter units
    "fault-case_a-node11": ["fault", "--scenario", CASE_A, "--at", "node:11"],
}

DIGESTS = {
    "coordinate-five_node": {
        "exit": 1,
        "stdout":
            "98241990ef550d1c8f0689a212e065963431b1ab796ff7be93c34d58f9d86907",
        "coordination.csv":
            "e1f31436204493bee0b82792dc89425917ddf76721388e7c3e499586877e4094",
        "pair_R1-L1_curves.csv":
            "fac857da2a6ed3870d60b09137774704b837ec6be4467cbef5fa71b820a17580",
        "pair_R1-L2_curves.csv":
            "712431a9fd6d0927dbb286521c1b2b53afd385b2bb695214e0de506fa7a0bf76",
        "pair_R1-R2_curves.csv":
            "89b8ffc802c91ff4ec0d501b9d481ccb6e5928c9d73af7454daf8a7a9c7dfeb3",
        "pair_R2-L3_curves.csv":
            "5304e89498e339ded57fe5b6ae977ba2a4f24a4e8a081cff7bc60e89554330ff",
        "pair_R2-L4_curves.csv":
            "90bd9b4e9a21b1995fd27dd635c964f5c875093fd5aa72afc4f76a1310b53e06",
        "pair_RLY-R1_curves.csv":
            "6850bdbbd725ee281128ae8a07537d69a575068dc6b849dc58850a61ae3663c1",
    },
    "coordinate-case_a": {
        "exit": 1,
        "stdout":
            "7edaba2b28c5657ed480f36aa08d30b2e8cd3484da54d2f9acb73e6e02b8b0c1",
        "coordination.csv":
            "1fca1d39bf598f8bee43733acd02a20b4d4da5540c8bedddf7e541cccb9e327b",
        "pair_R1-L2_curves.csv":
            "8eed6821cbfa066e7b5a7b807c8f98419d9b3cc184f8a0522e1e9b676d060db5",
        "pair_R1-R2_curves.csv":
            "f518b612239b0ae21296e723e5372e55d2797ef527007796faa78a2c0a66c658",
        "pair_R2-L3_curves.csv":
            "1009f0d78f7d260de8ea6d92194b15fd2d7190864fcd5b1893adc3e6a821e85b",
        "pair_R2-L4_curves.csv":
            "8fd57d50c7cd58261c87e18b37105ced66549b265b8ef167e3fc5397a960d397",
        "pair_R2-L5_curves.csv":
            "db9b1a61fbb3e93ef8db5b7607cd05c1a4fb28e88536953f79defc56b3f88d5f",
        "pair_R2-R3_curves.csv":
            "e2e28d5b79f5ca8d42465034a962e332ab8e4a1e9be927b080fe8b46de3570b7",
        "pair_R3-L6_curves.csv":
            "5d155616978501b8ef626bc9c568fc8361efea7565e34e461a2960556ce3a615",
        "pair_RLY-R1_curves.csv":
            "46cd24f81a481ea40502a1baf0b531cabb720279670898bcd5590a48ba236484",
    },
    "optimize-five_node": {
        "exit": 0,
        "stdout":
            "e1f7b372d0b59b57636de695e68665f4cdeb4063559ae534f6aa34060fad4e34",
        "dispatch_final.csv":
            "5465313542e270745d69a1f88bf9a9601c8459917f812e5c7adef132a375dcc0",
        "settings_final.json":
            "7c7a870324cc1a559add1951d276c5a5f68115ca715abb48cd1a99c7a084d6f3",
        "trace.csv":
            "154ad0c6144745c8463cb1d2e40dc3aa661c1d414eae136d6f0895e02a57aa25",
    },
    "optimize-case_a": {
        "exit": 0,
        "stdout":
            "85d1743a1bb900ed90eedb48d8fdb4737a6b07cc9888047b990921e2e4fe2838",
        "dispatch_final.csv":
            "d91f4a3fa647b2f1ca7af8c5fe6f473a26c659eb407251992868f78455669bbb",
        "settings_final.json":
            "6f42c62894a88c7bd67dd3b4b544e978074fc1211b43c576607ddc83f0a0c352",
        "trace.csv":
            "008b3b7d11abe7bb433998698584527cf6d1f9e92a5510b95b7a49019a07667e",
    },
    "timeseries-case_b": {
        "exit": 0,
        "stdout":
            "5d4b3d61e2b33dd6531d8bb97a0ae0e4e3569832c563830928c8b1978a995847",
        # a state's q is q_per_p * p, whatever output the unit held
        # before: worst_slack_pu at steps 11, 15 and 17 moved by 2.2e-16
        "timeseries.csv":
            "dfd8e8ad44c86f40f2d633efdee38f07688538f24eeceec6cccebfeb3b7ac15a",
    },
    "fault-five_node-node2": {
        "exit": 0,
        "stdout":
            "cc2cd8a08dc31ae48d3b0dc9dbba997ba5da80de3f0748665bd4c20160d306d4",
        "fault.csv":
            "2f68f4d267d3c1dc60dcfc70a59cdd58b4ecfd6ef9acfd06bd9023b71d068b4b",
    },
    "fault-five_node-lateral1": {
        "exit": 0,
        "stdout":
            "f0e5d28389b85ac2b26a1b6106192b5a29f32fee07f13f943a62865f7a8b7936",
        "fault.csv":
            "8ad38f5aac4a568e1c41442c7ef49d8c69deb8ecf894505627268deac7dee6ac",
    },
    "fault-case_a-node11": {
        "exit": 0,
        "stdout":
            "7139ce2cfb9104efb82b07a2ccd01e24ba6f28fcf430b2825245d2dcec484767",
        "fault.csv":
            "c3e063ee0143100ccc3234d07d2a416418610a0c1b0b6fd677aded9b795fa625",
    },
}
# case B is case A's network and start state with a profile, which only
# timeseries reads: its coordinate and optimize runs write case A's bytes
DIGESTS["coordinate-case_b"] = DIGESTS["coordinate-case_a"]
DIGESTS["optimize-case_b"] = DIGESTS["optimize-case_a"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("run", sorted(RUNS))
def test_output_bytes_are_pinned(run, tmp_path, capsys):
    code = main(RUNS[run] + ["--out-dir", str(tmp_path)])
    got = {"exit": code, "stdout": _sha256(capsys.readouterr().out.encode())}
    got.update((path.name, _sha256(path.read_bytes()))
               for path in tmp_path.iterdir())
    want = DIGESTS[run]
    moved = sorted(name for name in set(got) | set(want)
                   if got.get(name) != want.get(name))
    assert not moved, f"{run}: output moved in {moved}"
