"""Pinned scenario bytes, and schedule bytes for every rule combination.

The digests were recorded before the element and subarray look loops were
merged; any change to selection, packing, tie-breaking or serialization
shows up here as a digest mismatch.  Acceptance 03 only compares backends
with each other and the CLI tests only compare repeat runs, so this is the
check that schedule bytes stay the same across commits.
"""

import hashlib
from dataclasses import replace

import pytest

from pulseplan import (
    DiskHeuristicConfig,
    GridSpec,
    HeuristicConfig,
    PrfConfig,
    RadarConfig,
    ScenarioSpec,
    TaskColumns,
    build_availability_table,
    build_instance,
    dedup_disks,
    default_prf_set,
    enumerate_disks,
    export_lp,
    gen_scenario,
    hied,
    hisd,
    solve_exact,
)
from pulseplan.edbf import PRF_RULES, TASK_RULES
from pulseplan.io import disks_text, scenario_to_text, schedule_to_text
from pulseplan.radar import _TASK_FLOATS
from pulseplan.sdbf import DISK_RULES, SUB_RULES
from pulseplan.structures import OpCounters

EDBF_SPEC = ScenarioSpec(n_tasks=60, seed=3, keep_unschedulable=True)
SDBF_SPEC = ScenarioSpec(n_tasks=60, seed=4, cluster_count=3)
SEED = 5

EDBF_DIGESTS = {
    ('G', 'SAR'): "2f35e8426b94aae85dc85b5ccd0c73069a00a649c6927dbaab71c0ae6e6e8807",
    ('G', 'LAR'): "1754d3ca9672cc8984b5dfd558a622dfbc20e186e60a0b536b3a0a6e2b50485a",
    ('G', 'R'): "ed0cdd8d6d2810cef331231b4f1596a8729705c691af7e55100f358a6f2a14ef",
    ('G', 'SAP'): "fdfe4d167d7862976e883a42472d0b2216a8ad5ac9d7eb764908ea6add577b5a",
    ('G', 'SLA'): "2b38d6a09d74300d5a81b3b786a2c9571314f52a7c4b2f8f71932b05ebc9f5e3",
    ('G', 'SRA'): "8c9bdee7a1073561a24b8a4642ed1dcc2ec3adad47a4f124ea95262762e8ff30",
    ('RG', 'SAR'): "0bd0ef96efb60c4dde7b205a43fcb668de246b044e5c33059119249a3d3f01e5",
    ('RG', 'LAR'): "90fd0ad46224d7c167d7274eb7b1481efc1f709de9b1b68d0391173938a72313",
    ('RG', 'R'): "2ce27dc339b9124a0a7c793b979c6f6dc8887b1226848e3d95034dbd40a75773",
    ('RG', 'SAP'): "af466912fa7ab967b60e953899648127be974f2779f5d1a2f7ca3ca66217ff51",
    ('RG', 'SLA'): "4c425c8405966892420ec6d3039da0dcc00f25b0d9ecec313178c2a094fc04c0",
    ('RG', 'SRA'): "bc2bf84c8fe08628cc2e65656f6e47cd25065c1870532a31a0a32fe3c3fd65be",
    ('R', 'SAR'): "03ee7d99a4f54ea15d0d1b12d0426eb2e4693aa7eed84e20adcb3d5c38936da2",
    ('R', 'LAR'): "9ff828fc4ca8e7e20713ff0db49a2b6b3e6f4b3551c1a4a759d12dd335b1a307",
    ('R', 'R'): "59d69fcc85e0e0ef506b0f9be0a50b5f7ee07abd19ba51a356dd65f29b84a06a",
    ('R', 'SAP'): "77b9b0a46183e00406090a4c07f19bd5bbecb17aa975604ce6f2428b07550d0b",
    ('R', 'SLA'): "079ae33da698e6ca2179f5043d8f49db009dd1ef1b5aab49609bde9048294a1e",
    ('R', 'SRA'): "fe8f65a26fc76e3f930caa165ff0c1fc9c8017648001440a91cf91d390c342ba",
}

SDBF_DIGESTS = {
    ('GD', 'R', 'SAR'): "c0b8f2fc243792da087b23de92580929913bc88186ae9304d9a7d94ac3110c28",
    ('GD', 'R', 'LAR'): "53d6dcbb8167598ea0a583c4a83ca66243502bb9e2e603c13c6a3842193e2419",
    ('GD', 'R', 'R'): "0ed9612af5e6c79130cef866312e3a54d7404dfc24193c3ebdbe0544684fb376",
    ('GD', 'R', 'SAP'): "8ba9bb47de80ecfcea4a015ad0abc59674c48127ed5e69485a890c4ccdf8c9cb",
    ('GD', 'R', 'SLA'): "4a53669f3fc80b6fd27dbeb1b7e0e5c608ae7ef154eb016dc9a63d0a23fc343d",
    ('GD', 'R', 'SRA'): "4ca7fbbd48dafe6f73f6992bedf49550eed09f5bfa3acc84511b2b42a3096c00",
    ('GD', 'SD', 'SAR'): "5ebf37ceae70e607b7f3d0e27767ae846331fd9fcc348cfa96ffeb405b445af1",
    ('GD', 'SD', 'LAR'): "1d1b335b152457261ac8626e60b6b0912cc9ab7c1a24d4460f36a6b324f888d1",
    ('GD', 'SD', 'R'): "1ba1bf6edd559823744bd75b6130e570f1387f280030e861d08cb124f9928397",
    ('GD', 'SD', 'SAP'): "008e59d055f40555febc88c588fa1844e2564e36e5800948e6922a67e5fd2251",
    ('GD', 'SD', 'SLA'): "800c4fe21bbfa0f92d1fb2f99ceb9e94188163907f157fc6360f4370f6ebc6df",
    ('GD', 'SD', 'SRA'): "8d058c1238b9f8c15316decc40b7c978305bf74f0635c01984d455f221cc8fec",
    ('RGD', 'R', 'SAR'): "1096d8fcf6ace39e26f29adc044a4e77e6f10cd253ded1bec3a04f3991c19a55",
    ('RGD', 'R', 'LAR'): "b80ff7c42edae9acfa056f068ab5e85c00e6c4da24aa6e92dd20c97d95357caa",
    ('RGD', 'R', 'R'): "8f4a5dbf48e517b210c099dc26b9ce4ac70f9616005a7ef73d5172b432b6c452",
    ('RGD', 'R', 'SAP'): "6976c6a272c173043580ff316c0e77e7aa0acab17a3a316bea197fc00c2ab410",
    ('RGD', 'R', 'SLA'): "0aafa806201355ba7f10b8b7f7d783121352f4c9b4358c1a80295cfdc576f1f9",
    ('RGD', 'R', 'SRA'): "54ffaaac16544e1e90e52b28ca3f97408fdd9aa15a6b38f0dbbfb055a090b0ff",
    ('RGD', 'SD', 'SAR'): "78d258582295a3b8829cf81e3a0790d93459acaa70d67a36876b4b9946536311",
    ('RGD', 'SD', 'LAR'): "8f60aa5a7eb94b8b05a550f5e6bcdbef6182eb383ee01f284a8058127dd86832",
    ('RGD', 'SD', 'R'): "83a75aca70d7f423f3c3106b04764fd4c7a8dbc06f9149a042b3edd15db53e0e",
    ('RGD', 'SD', 'SAP'): "372fbd951c4625ec99d0d7bce6a14f33c5c89974d490035c5a4a97788f3feddc",
    ('RGD', 'SD', 'SLA'): "254f40e2f5f55adfe000e70aabdf5b5910e43b2b0afc35895a786dfa5a7dc57f",
    ('RGD', 'SD', 'SRA'): "cf5dc280ed078ca1fba0103a233319e806416bbe195d53289c6b606513aa6170",
    ('WGD', 'R', 'SAR'): "e5677075a96d9a92be187ef4ba231a9a7fc49c3e83daadfc293f595dcae675e9",
    ('WGD', 'R', 'LAR'): "d7ef073c952858a6e87854693a2d24057f278665666732b102adada7b7a42ad8",
    ('WGD', 'R', 'R'): "0a717b8ce402906b42f76489ddf4dba1225fdbce6de7b0aa6d77fedcde9161ae",
    ('WGD', 'R', 'SAP'): "9d7509b6ae7335775ddda029b730c108bc619ec05ffc40cdd89736d9d670f31d",
    ('WGD', 'R', 'SLA'): "b37538ed514eee83083c730099d71eb52610bd40819307212cc01e88959b75d8",
    ('WGD', 'R', 'SRA'): "eb1015664d7a9a4753f8ed8d5589fa327059ee76cb3905d609564580b7b91648",
    ('WGD', 'SD', 'SAR'): "38a77534d0a8be565324a525937d8a3fe2a7341c47da4dd85dbca38bf07e8c8f",
    ('WGD', 'SD', 'LAR'): "a7d6468c32369b0ec0bf823cfac0c317b5246b3579b2c5793e3cb71caaa50b4c",
    ('WGD', 'SD', 'R'): "64cb443a5497e95253281ae306255c8eff36c70cfc2e468a0a6418c399bf14c1",
    ('WGD', 'SD', 'SAP'): "70720e6f9a81334a851c9fb68a0034f0da7e6db0a5604efbbaa8df0ccbf5a282",
    ('WGD', 'SD', 'SLA'): "a813628b89cae81ed6b3b5324191026d0d60d4e3bf151968aabc28ba75c8b4ae",
    ('WGD', 'SD', 'SRA'): "45756918a8eaf33a38c6b74341a4c89d7217e4f0300b99332e957cb01e6a6ea0",
}


# sha256 of scenario_to_text(*gen_scenario(spec, cfg, prfs)), recorded with
# the row-at-a-time generator and writer (now tests/oracles.py).  Only the
# benchmark's schedule digests would otherwise notice a change in the order
# of the random draws.
SCENARIO_DIGESTS = {
    "64k-bench": "141bdd5ae4fe9eb74aacac0a3066632546540b6e48f440ef7332b2d97250a9c2",
    "4k": "a767b0cb8c1f6b8420a5d2462a8ec1616d3de4bd21de066ddfacbedfc36551c5",
    "300-clustered": "134492f4a5d0efa29f0298f5a7d2b9f869ee8ddeaf5371bf9a56feaf642f63dd",
    "500-unschedulable-kept": "2c0366d02641c14ba8d5006d1c68ce0716df05885500d8433a43147bc7ee8159",
    "empty": "8491aad4c3e75e96b4b256b3e6fd72ee9c5893aca67493c01b6746978336c4b6",
    "int-fields": "00e458e6343aba2d22eaa73812f73215c114590cee34544513f3578f6c9202ab",
    # recorded with the generator that tested every row of each draw
    "2k-low-trackability": "a13bba222020a4c28b98017c369c0219172e8159b10884d60f637b09202abbf6",
}
SCENARIO_CASES = {
    # the benchmark's edbf-64k scenario
    "64k-bench": (ScenarioSpec(n_tasks=64000, seed=1), RadarConfig(n_intlv=8),
                  default_prf_set(count=8)),
    "4k": (ScenarioSpec(n_tasks=4000, seed=1), None, None),
    "300-clustered": (ScenarioSpec(n_tasks=300, seed=2, cluster_count=3), None, None),
    "500-unschedulable-kept": (ScenarioSpec(n_tasks=500, seed=0, keep_unschedulable=True),
                               None, None),
    "empty": (ScenarioSpec(n_tasks=0, seed=0), None, None),
    # radar and prf fields given as Python ints are written as ints
    # ("n_r=3", "f_r=10000", "c_r_plus=500"), not as floats
    "int-fields": (ScenarioSpec(n_tasks=20, seed=1), RadarConfig(n_r=3, n_f=3),
                   (PrfConfig(f_r=10000), PrfConfig(f_r=12000, c_r_plus=500))),
    # wide Doppler clutter leaves about 46% of the draws trackable: a second
    # draw, and several prefixes tested in each
    "2k-low-trackability": (ScenarioSpec(n_tasks=2000, seed=1), None,
                            default_prf_set(doppler_clutter=4700.0)),
}


@pytest.mark.parametrize("case", sorted(SCENARIO_CASES))
def test_scenario_bytes_pinned(case):
    text = scenario_to_text(*gen_scenario(*SCENARIO_CASES[case]))
    assert hashlib.sha256(text.encode()).hexdigest() == SCENARIO_DIGESTS[case]


def _digest(schedule) -> str:
    return hashlib.sha256(schedule_to_text(schedule).encode()).hexdigest()


@pytest.fixture(scope="module")
def edbf_table():
    cfg, prfs, tasks = gen_scenario(EDBF_SPEC)
    return build_availability_table(tasks, prfs, cfg)


@pytest.fixture(scope="module")
def sdbf_catalog():
    cfg, prfs, tasks = gen_scenario(SDBF_SPEC)
    return enumerate_disks(build_availability_table(tasks, prfs, cfg), GridSpec())


def edbf_digests(table):
    return {
        (prf_rule, task_rule, backend): _digest(hied(
            table, HeuristicConfig(prf_rule=prf_rule, task_rule=task_rule,
                                   backend=backend, seed=SEED)))
        for prf_rule in PRF_RULES
        for task_rule in TASK_RULES
        for backend in ("rangetree", "pairwise")
    }


def sdbf_digests(catalog):
    return {
        (disk_rule, sub_rule, task_rule): _digest(hisd(
            catalog, DiskHeuristicConfig(disk_rule=disk_rule, sub_rule=sub_rule,
                                         task_rule=task_rule, seed=SEED)))
        for disk_rule in DISK_RULES
        for sub_rule in SUB_RULES
        for task_rule in TASK_RULES
    }


def test_edbf_schedule_bytes_pinned(edbf_table):
    got = edbf_digests(edbf_table)
    want = {(p, t, b): EDBF_DIGESTS[p, t] for p, t, b in got}
    assert got == want


def test_sdbf_schedule_bytes_pinned(sdbf_catalog):
    assert sdbf_digests(sdbf_catalog) == SDBF_DIGESTS


def _relabel(tid):
    # keeps the id order, so every tie-break is the same, and leaves gaps,
    # so no id is its row + 1
    return 10 ** 12 + 7 * tid


@pytest.mark.parametrize("mode", ["edbf", "sdbf"])
def test_relabelled_ids_give_the_same_schedules(edbf_table, sdbf_catalog, mode):
    # a row taken for a task id (or the other way round) anywhere in the
    # table, the catalog or a scheduler shows as a different schedule
    table = edbf_table if mode == "edbf" else sdbf_catalog.table
    tasks = table.tasks
    relabelled = build_availability_table(
        TaskColumns([_relabel(t) for t in tasks.ids],
                    *(getattr(tasks, name) for name in _TASK_FLOATS)),
        table.prfs, table.cfg)
    if mode == "edbf":
        rules = [(hied, HeuristicConfig(prf_rule=p, task_rule=t, seed=SEED))
                 for p in PRF_RULES for t in TASK_RULES]
        sources = table, relabelled
    else:
        rules = [(hisd, DiskHeuristicConfig(disk_rule=d, sub_rule=s, task_rule=t, seed=SEED))
                 for d in DISK_RULES for s in SUB_RULES for t in TASK_RULES]
        sources = sdbf_catalog, enumerate_disks(relabelled, GridSpec())
    for run, cfg in rules:
        want = run(sources[0], cfg)
        want = replace(
            want, assignments=[(_relabel(t), j, k) for t, j, k in want.assignments],
            unschedulable=tuple(map(_relabel, want.unschedulable)))
        assert schedule_to_text(run(sources[1], cfg)) == schedule_to_text(want), cfg


# Operation counts of a few rule combinations, recorded with the schedule
# bytes unchanged.  The digests above pin what is scheduled; these pin how
# much work the structures do to get there, so a refactor of a backend or
# of the look loop cannot change the queries, deletes, node-list
# inspections, node entries written or packing iterations without a test
# failing.
OPS_EDBF_SPEC = ScenarioSpec(n_tasks=2000, seed=3, keep_unschedulable=True)
OPS_SDBF_SPEC = ScenarioSpec(n_tasks=600, seed=4, cluster_count=3)

_EDBF_OPS = dict(backend_queries=3410, backend_deletes=5934, bucket_ops=5934,
                 selector_ops=424, bi_iterations=3382, bi_calls=424,
                 bi_max_iterations=9, fallback_scans=0)
PINNED_OPS = {
    ("edbf", "G", "SAR", "rangetree"): dict(
        _EDBF_OPS, list_inspections=11862, pairwise_touches=0, node_entries=26153),
    ("edbf", "G", "SAR", "pairwise"): dict(
        _EDBF_OPS, list_inspections=0, pairwise_touches=35852, node_entries=35852),
    # the reverse greedy and random PRF rules: the same deletes and bucket
    # updates as G, one per membership, and under R the order in which
    # PRFs that reach a count of 0 leave the rule's set (which its draws
    # read) shows in the queries
    ("edbf", "RG", "SAR", "rangetree"): dict(
        backend_queries=5840, backend_deletes=5934, list_inspections=18007,
        pairwise_touches=0, fallback_scans=0, bucket_ops=5934, selector_ops=722,
        bi_iterations=5770, bi_calls=722, bi_max_iterations=11, node_entries=26153),
    ("edbf", "R", "SAR", "rangetree"): dict(
        backend_queries=3569, backend_deletes=5934, list_inspections=12238,
        pairwise_touches=0, fallback_scans=0, bucket_ops=5934, selector_ops=442,
        bi_iterations=3524, bi_calls=442, bi_max_iterations=9, node_entries=26153),
    ("sdbf", "GD", "R", "rangetree"): dict(
        backend_queries=1591, backend_deletes=600, list_inspections=5108,
        pairwise_touches=0, fallback_scans=0, bucket_ops=38340,
        selector_ops=193, bi_iterations=1528, bi_calls=193, bi_max_iterations=10,
        node_entries=6140),
}


@pytest.mark.parametrize("key", sorted(PINNED_OPS), ids="-".join)
def test_operation_counts_pinned(key):
    mode, main_rule, rule2, backend = key
    counters = OpCounters()
    if mode == "edbf":
        cfg, prfs, tasks = gen_scenario(OPS_EDBF_SPEC)
        table = build_availability_table(tasks, prfs, cfg)
        hied(table, HeuristicConfig(prf_rule=main_rule, task_rule=rule2,
                                    backend=backend, seed=SEED), counters)
    else:
        cfg, prfs, tasks = gen_scenario(OPS_SDBF_SPEC)
        catalog = enumerate_disks(build_availability_table(tasks, prfs, cfg), GridSpec())
        hisd(catalog, DiskHeuristicConfig(disk_rule=main_rule, sub_rule=rule2,
                                          backend=backend, seed=SEED), counters)
    assert counters.snapshot() == PINNED_OPS[key]


# sha256 of schedules at scale: 2,000 tasks in element mode (the scenario
# of the operation counts above) and 1,000 in subarray mode, recorded while
# each placed task was still consumed on its own.  At 60 tasks a PRF rarely
# empties in the middle of a look; here PRFs do, so the order in which the
# random PRF rule's set loses emptied PRFs shows in the bytes.  The element
# digests of G with LAR, SAP, SLA and SRA, and the subarray digests of the
# other rules, were recorded while a priority column that every PRF shares
# (SAP, SLA, SRA; R in subarray mode) was still ranked once over the whole
# table and each backend still sorted the rows it was given: they pin the
# range-tree builds of the element backends and of the per-disk ones under
# the rules no benchmark workload runs.  GD+SD, RGD+SD and WGD+R were
# recorded while the ordered disk rules still kept their disks in a sorted
# list.
SCALE_EDBF_DIGESTS = {
    ('G', 'SAR'): "7802db6b30fd4e6bbd7cfb470903b3e64e555e8f5e749fc304c7a9909701dbbb",
    ('G', 'R'): "6caa632a28c883dc0214ecb97b0eaa9f13462181c56cbbd767c8353f7264465f",
    ('RG', 'SAR'): "28d8536777e7e83b5d4d3292d6420cc801a11dcb30219fce7df52de49d138955",
    ('RG', 'R'): "8d8e81cb40e69c3bbed8eb4efd7f86228cb5660ae2ec41e17cf62e5fa0fade76",
    ('R', 'SAR'): "1e63f24166f601fd7ef13ea2e898257ebd488c7fc119eb6ee4ebf1bf341ff7f8",
    ('R', 'R'): "d5d50e708b24e074d1779ff9a0ce308df5e53dd731535fb74536f4c348230a8a",
    ('G', 'LAR'): "57ac1894e6f9a6044d770dc945245b582ca45a05e1bf084d8d9a2546288ea655",
    ('G', 'SAP'): "b23941a2e865eeeb6b571e5f76c3b2ed04e422906d08e9974d4ca884334e3afb",
    ('G', 'SLA'): "7c6fc91178017130f73f7c4f0016335697b85d3bf0dafb250c998e9103bf1e30",
    ('G', 'SRA'): "b6e5580d91961e998f4bcb4c8c3eccd0a630191cf5ebe2157667f2e6951c0fd6",
}
SCALE_SDBF_SPEC = ScenarioSpec(n_tasks=1000, seed=1)
SCALE_SDBF_DIGEST = "25e0060039914108e2a9ac1e170c827742c7d06ad27899411624c11e2df0e517"
SCALE_SDBF_RULE_DIGESTS = {
    ('GD', 'R', 'SAP'): "d4a8616aa6dfa25216722225c69e596be1fc6f04a7fd19b4f4c2a64cc188f761",
    ('GD', 'R', 'R'): "74aa5ade0a7e0e4e0699c0273f4160eef19bae17f7aa889b83d674ee4ab394fc",
    ('WGD', 'SD', 'SAR'): "0f5f0d8e151df4e25c8accf4f5b44c6981a6e6243edc9198cfdfdae5924303de",
    ('GD', 'SD', 'SAR'): "8290fd98981e1b337c8f56887a8a201494a0e5319299f4e863f6fd685f568ab9",
    ('RGD', 'SD', 'SAR'): "2f18b18876b357d2a469e87d8f7518984f39ae5d02474df4a1692c3f27d69f2a",
    ('WGD', 'R', 'SAR'): "5bf376647675cc07d851f92ad1dbd66b22f1d888472784d498b6bada0e75b2ce",
    ('RGD', 'R', 'SAR'): "5a8a8fd8918b0c55a8132f4f08fd9416cf58faea6a917397ec20fe88192830bb",
}


@pytest.fixture(scope="module")
def scale_edbf_table():
    cfg, prfs, tasks = gen_scenario(OPS_EDBF_SPEC)
    return build_availability_table(tasks, prfs, cfg)


@pytest.mark.parametrize("rules", sorted(SCALE_EDBF_DIGESTS), ids="-".join)
def test_edbf_schedule_bytes_pinned_at_scale(scale_edbf_table, rules):
    prf_rule, task_rule = rules
    schedule = hied(scale_edbf_table, HeuristicConfig(prf_rule=prf_rule, task_rule=task_rule,
                                                      seed=SEED))
    assert _digest(schedule) == SCALE_EDBF_DIGESTS[rules]


@pytest.fixture(scope="module")
def scale_sdbf_catalog():
    cfg, prfs, tasks = gen_scenario(SCALE_SDBF_SPEC)
    return enumerate_disks(build_availability_table(tasks, prfs, cfg), GridSpec())


def test_sdbf_schedule_bytes_pinned_at_scale(scale_sdbf_catalog):
    schedule = hisd(scale_sdbf_catalog,
                    DiskHeuristicConfig(disk_rule="GD", sub_rule="R", seed=SEED))
    assert _digest(schedule) == SCALE_SDBF_DIGEST


@pytest.mark.parametrize("rules", sorted(SCALE_SDBF_RULE_DIGESTS), ids="-".join)
def test_sdbf_rule_bytes_pinned_at_scale(scale_sdbf_catalog, rules):
    disk_rule, sub_rule, task_rule = rules
    schedule = hisd(scale_sdbf_catalog, DiskHeuristicConfig(
        disk_rule=disk_rule, sub_rule=sub_rule, task_rule=task_rule, seed=SEED))
    assert _digest(schedule) == SCALE_SDBF_RULE_DIGESTS[rules]


# sha256 of export_lp text for a 6-task scenario with n_intlv 4 and 3 PRFs
# (the oracle-10 shape), recorded with the text-model LP writer.  The sdbf
# instance is built from the deduplicated disk catalog, as export-lp does.
LP_DIGESTS = {
    ("edbf", None, False): "bad7b6f7691727d520a452d0d15c8463f929fc04c38e4925c825bd1af7c9d0e0",
    ("edbf", None, True): "86b20e872bbef44ba21af8cc259c9aa0a401ca61ea0dda50598878047f4704ab",
    ("edbf", 1, False): "6f110844e09aa45f108278c481d5fe12c5fbc3c4bd5c7835a0e5af4952367ed8",
    ("edbf", 1, True): "9fa038c34dbcfb6e1e02b9f46a5df8e37778f84a1042846aa74958d6e3d302fb",
    ("edbf", 2, False): "9c5fabb5bb83dfb8c825abf7b079ac0af6c23d25a695d2da21843a8503996d7f",
    ("edbf", 2, True): "bfb58d354b26e7a84090de74c4593fe591cc638741b5bb498187f70bcbdc72d4",
    ("sdbf", None, False): "1cda6daf463a1cffbc1b729d05e207bdbadd80042e4cb6f394d38c752cf172ab",
    ("sdbf", None, True): "2fc4b1a6ed76d4390882f37622f1a60b82141d7abae5c3814d19da750ab670c1",
    ("sdbf", 1, False): "1cda6daf463a1cffbc1b729d05e207bdbadd80042e4cb6f394d38c752cf172ab",
    ("sdbf", 1, True): "2fc4b1a6ed76d4390882f37622f1a60b82141d7abae5c3814d19da750ab670c1",
    ("sdbf", 2, False): "7f540d11a06f7225e1c2f9829bd220bc58d6a95f783420f0a05f2589dea1d8de",
    ("sdbf", 2, True): "aed461772172b73620609752016e599c8d751ef5e82319bab6c6052a780d6c48",
}


@pytest.fixture(scope="module")
def lp_sources():
    cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=6, seed=2),
                                    RadarConfig(n_intlv=4), default_prf_set(count=3))
    table = build_availability_table(tasks, prfs, cfg)
    return {"edbf": table, "sdbf": dedup_disks(enumerate_disks(table, GridSpec()))}


@pytest.mark.parametrize("mode", ["edbf", "sdbf"])
@pytest.mark.parametrize("copies", [None, 1, 2])
@pytest.mark.parametrize("sscfl", [False, True])
def test_lp_export_bytes_pinned(lp_sources, mode, copies, sscfl):
    text = export_lp(build_instance(lp_sources[mode], copies=copies), sscfl=sscfl)
    assert hashlib.sha256(text.encode()).hexdigest() == LP_DIGESTS[mode, copies, sscfl]


# sha256 of the exact solver's schedule text on three scenarios shaped like
# oracle-10 (n_intlv 4, 3 PRFs), in element mode and in subarray mode on the
# deduplicated disk catalog, recorded while ``solve_exact`` still built its
# own looks and assignments.  The objectives are checked elsewhere; these pin
# the optimal schedule the search keeps, its look order, slots and meta.
EXACT_DIGESTS = {
    (6, 1, "edbf"): "072ec0bdfb95be2c3afa29940fe02ca254dbcc39e8ca046de622fb9771ccb09b",
    (6, 1, "sdbf"): "b9cb1ba1f87d28582da9793ee55354afabbd81e289a3cb9699925a4de33a40b6",
    (7, 2, "edbf"): "c5df945e2a6b6d8deaa066cd755fab5f5c0f114c9c670bb5d637b6bd8d88cea2",
    (7, 2, "sdbf"): "49bba657fc9d65baaf867767639243a8d8b3d4417c1c77361b5709224379156d",
    (8, 3, "edbf"): "2d3c6e987dc3245a8af53eff1abd7c866adb366c380fd96035894afcb3b000b4",
    (8, 3, "sdbf"): "549c8e571cd1a7836de4c26e76da4dfad2accc6feec9965079db37cdecf94afe",
}


@pytest.mark.parametrize("key", sorted(EXACT_DIGESTS), ids=lambda key: "-".join(map(str, key)))
def test_exact_schedule_bytes_pinned(key):
    n_tasks, seed, mode = key
    cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=n_tasks, seed=seed),
                                    RadarConfig(n_intlv=4), default_prf_set(count=3))
    table = build_availability_table(tasks, prfs, cfg)
    source = table if mode == "edbf" else dedup_disks(enumerate_disks(table, GridSpec()))
    assert _digest(solve_exact(build_instance(source))) == EXACT_DIGESTS[key]


# sha256 of disks_text (what ``pulseplan disks`` writes) for two generated
# scenarios, recorded while the catalog still held one object per disk.
DISKS_DIGESTS = {
    "60-clustered": "80824f90e431761252601282591f980f500afdd6f6d9ee5e622d12f663281461",
    "1k": "3c75bb49b03f838de21bbd7662152b17123132d871fba6fd0caa7c8e30442a41",
}
DISKS_CASES = {
    "60-clustered": ScenarioSpec(n_tasks=60, seed=4, cluster_count=3),
    "1k": ScenarioSpec(n_tasks=1000, seed=1),
}


@pytest.mark.parametrize("case", sorted(DISKS_CASES))
def test_disks_text_bytes_pinned(case):
    cfg, prfs, tasks = gen_scenario(DISKS_CASES[case])
    catalog = enumerate_disks(build_availability_table(tasks, prfs, cfg), GridSpec())
    text = disks_text(catalog)
    assert hashlib.sha256(text.encode()).hexdigest() == DISKS_DIGESTS[case]
