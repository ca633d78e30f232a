"""Byte-identity of full-line builds, join-grown overlays and experiment
CSV against recorded digests: the builds and the join growth were recorded
before the 1/d samplers were merged into `linkgen.sample_line_links`, the
rest of the experiment CSV before the harness runners were merged into one
trial loop, except the failures sweeps, recorded when a failures trial
began routing every p and strategy on one graph.  Every inverse-distance
join digest (the join dumps and tables, the churn schedule, compare and
distribution) was re-recorded when one array step began deciding a join's
redirects: all accept uniforms are drawn before any victim uniform; the
oldest-link digests, which draw no victims, held.  Compare and the padded
link-failure dump were re-recorded when failure injection moved wholly into
`overlay`: compare's node failures now replay the trial stream, and a link
failure draws one uniform per written link, pads' clock values included.  A change to any of these
digests is an RNG stream change and must be logged with before/after
statistics."""

import hashlib
from itertools import product

import numpy as np
import pytest

from lineworld.dynamics import ReplacementPolicy, join, leave
from lineworld.harness import ExperimentConfig, build_by_joins, run_experiment
from lineworld.linkgen import DeterministicBaseB, InversePowerLaw, PowersOfB
from lineworld.overlay import apply_link_failures, apply_node_failures, build, build_binomial_presence
from lineworld.routing import Backtrack, RandomRestart, Sidedness, Terminate, route


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed,digest", [
    (1, "06f0a689881d565ff3b718a0a5f04e64ae910a909f9eae7a9445970ad5f792ba"),
    (2, "963a12910eef3e967485385d76351dd238a438ab27ee215ba1020b68a231304c"),
    (3, "43b32f235b3e5d5cd917247d6145868e91d66fc2aa9eda39bec0da33b353e3d9"),
])
def test_full_line_build_dump(seed, digest):
    g = build(2 ** 10, InversePowerLaw(10), np.random.default_rng(seed))
    assert sha256(g.dump_text()) == digest


def _link_failed_powers(rng):
    return apply_link_failures(build(2 ** 10, PowersOfB(2), rng), 0.5, rng)


# recorded from the per-node set builders; the link failures, re-recorded
# when they began drawing one uniform per clock value (pads included) and
# looking each slot's up by its age, pin slot order and ages
@pytest.mark.parametrize("make,seed,digest", [
    (lambda rng: build(2 ** 10, DeterministicBaseB(3), rng), 12,
     "b8d90dcdd05c0128a0c19757d7ef7a9dd2da7e0601662af2796a0f1283d7d7fd"),
    (_link_failed_powers, 13,
     "e8b8714d668c5bbd0cd1b341d889eb0c6d8e230fe00521240e28e4380c21ecf7"),
    (lambda rng: build_binomial_presence(2 ** 10, 0.5, DeterministicBaseB(2), rng), 14,
     "270a8d61a6e5822919a13ce315c14cc3fcca451f6ccc33e6273c034e7f5c9299"),
], ids=["detbase3", "powers2-link-failures", "detbase2-binomial"])
def test_deterministic_build_dump(make, seed, digest):
    assert sha256(make(np.random.default_rng(seed)).dump_text()) == digest


def test_build_by_joins_dump():
    g = build_by_joins(2 ** 9, 9, ReplacementPolicy.INVERSE_DISTANCE, np.random.default_rng(4))
    assert sha256(g.dump_text()) == "4847b048ecb302296efb8cd38ffc45228d354ab7a43665b50356a5a8be0d0754"


def table_sha256(g) -> str:
    """Digest of the long-link table's shape, sinks and ages: slot order
    decides a redirect's victim index, ages decide the oldest link."""
    return hashlib.sha256(repr(g.sinks.shape).encode() + g.sinks.tobytes()
                          + g.ages.tobytes()).hexdigest()


# recorded before the churn layer wrote whole rows; inverse-distance
# re-recorded when a join's redirects became one array decision
@pytest.mark.parametrize("policy,digest", [
    (ReplacementPolicy.INVERSE_DISTANCE,
     "5d5ee701f1a67b74116e19ec6255599068e681cb1bd9f12283fca0fcb729a67a"),
    (ReplacementPolicy.OLDEST,
     "9d7a4840822bca11285d1eab1751bfc86a4fbf537e47043b23fa8b17635fe272"),
], ids=["inverse-distance", "oldest"])
def test_build_by_joins_table(policy, digest):
    g = build_by_joins(2 ** 9, 9, policy, np.random.default_rng(4))
    assert table_sha256(g) == digest


# re-recorded when the line became a membership mask: the 32 departed
# positions' dump lines now list no immediate sinks; the live positions'
# dump lines, every long-link column and table_sha256 are byte-identical;
# inverse-distance re-recorded again when a join's redirects became one
# array decision
@pytest.mark.parametrize("policy,digest", [
    (ReplacementPolicy.INVERSE_DISTANCE,
     "773e5c35eb1eae4bda1cd38ae43f89fe726aebf1d24d3375842dbac9e14eb2ab"),
    (ReplacementPolicy.OLDEST,
     "eda38b69d6aa63b2a6edb4821e65dfa0ef55594b6b58c8e0a7b1079dc792d0ea"),
], ids=["inverse-distance", "oldest"])
def test_churn_schedule(policy, digest):
    # leaves with and without repair on a join-grown graph, then rejoins
    rng = np.random.default_rng(20)
    g = build_by_joins(2 ** 8, 8, policy, rng)
    leavers = rng.choice(2 ** 8, size=64, replace=False).tolist()
    for i, v in enumerate(leavers):
        leave(g, v, i % 3 != 0, rng)
    for v in leavers[::2]:
        join(g, v, 8, policy, rng)
    assert sha256(g.dump_text() + table_sha256(g)) == digest


# both re-recorded, with failures-binomial and the four commit-* digests
# below, when a failures trial began routing every p and strategy on one
# graph: each trial draws its graph once and degrades it per p, so every
# row's stream moved
@pytest.mark.parametrize("model,p_grid,digest", [
    ("node", (0.0, 0.3, 0.6), "fa3f9599d01226a68bbb2a20210da6227faa10250131432c305c7fe3f9493950"),
    ("link", (1.0, 0.5, 0.2), "1624da9c5ccab9abc8c37d27db927c1b6dfe4ea367991d145d3a902d0ce9b195"),
], ids=["node", "link"])
def test_failures_csv(model, p_grid, digest):
    cfg = ExperimentConfig("failures", n=2 ** 10, links=10, p_grid=p_grid, trials=3,
                           messages=30, seed=5, failure_model=model)
    assert sha256(run_experiment(cfg)) == digest


FAILURES = dict(experiment="failures", n=2 ** 10, links=10, p_grid=(0.2, 0.5), trials=3,
                messages=30)
COMMIT = dict(FAILURES, strategies=("backtrack",), seed=6, probe=False)
SCALING = dict(experiment="scaling", n=2 ** 10, trials=3, messages=30, seed=7)
BOUNDS = dict(experiment="bounds", n=2 ** 10, trials=3, messages=30, seed=8)
DISTRIBUTION = dict(experiment="distribution", n=2 ** 8, links=8, repetitions=3, seed=10)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("config,digest", [
    (dict(FAILURES, p_grid=(0.3, 0.7), seed=5, failure_model="binomial"),
     "68d5419bc6aa2c64c3a1571fba487e2c3296f50e4e7524091af92aaf11d96e97"),
    (dict(COMMIT, sidedness="one", link_mode="directed"),
     "7707757f2e4988734dc003f31b98e768afb04bec2e7e42578f5d238859430186"),
    (dict(COMMIT, sidedness="one", link_mode="symmetric"),
     "bcdec0d0f87fddd9e947bb43f19ec69aa2f5cca33a99792223885175508b54d3"),
    (dict(COMMIT, sidedness="two", link_mode="directed"),
     "07ebe3ee1d4812424558e85641c5c740b0d383357099ed33e1f043cf4222ef33"),
    (dict(COMMIT, sidedness="two", link_mode="symmetric"),
     "9b278f42a465fd256cab5be8f8c1ef94f48f49c20a593dbbd3ba8685e33cced5"),
    (dict(SCALING, n_values=(256, 1024), link_values=(1, 4)),
     "b83c99f83eed2d848097d38a0259406daa0bf1ba7d2f70cb28f512668f803981"),
    # re-recorded when the links column stopped counting distances longer
    # than the line (14 -> 13, 11 -> 10); every other byte is unchanged
    (dict(SCALING, dist="detbase", base=3),
     "5fcb4f9a7c863fc956107e771afcb0d351ac0bd393dc35da5948442c51f1733a"),
    (dict(SCALING, dist="powers", base=2),
     "f6acaa9b2c3813d1507ab30edaf78ab348b2919c946c5c8af80b129131dd1454"),
    # re-recorded when the Bernoulli offset law was stored sorted by offset:
    # each node's uniforms now meet its offsets in ascending order
    (dict(SCALING, n=2 ** 9, links=3, dist="bernoulli"),
     "5ce19caa3ccd39585d5d178aadbb369ea02314bc64e35549264157b0a7a0eb4b"),
    (dict(BOUNDS, links=1, sidedness="one"),
     "a30c8469a08614fe30f0ba68070e21ea60b9ab300f43b43c99a96fd14bb42b16"),
    (dict(BOUNDS, links=3, sidedness="two"),
     "4916ce7eb2d7937d60e82dfabc6bc2d62a4da4d85f41a32f16373031f06e897b"),
    # re-recorded when compare's node failures moved to the replayed trial
    # stream: the (t, i, k) route streams no longer supply them first
    (dict(experiment="compare", n=2 ** 9, links=9, p_grid=(0.0, 0.5), strategies=("backtrack",),
          repetitions=3, messages=30, seed=9),
     "3619a55a48ce551353c347e25ee0c6b621baa7942c140a029b2944889f15dcb7"),
    (dict(DISTRIBUTION, policy="inverse_distance"),
     "e5c79776db5e2109c3c4231ab56b8e769f86f470462a822c23e9303545594203"),
    (dict(DISTRIBUTION, policy="oldest"),
     "6f4ba81c13f1fb925c6498039f4b8c6da3454b05527068c744e67509d68c698b"),
    # re-recorded when the interval chain began stepping every sample in
    # lockstep: each step draws the offset sets of all unabsorbed samples,
    # then their uniforms
    (dict(experiment="chains", n=16, samples=500, t_max=4, seed=11),
     "af558d0fcc16b304c8b475a52d94abbfedf392456e71e86848fc98e62313a3a5"),
], ids=["failures-binomial", "commit-one-directed", "commit-one-symmetric",
        "commit-two-directed", "commit-two-symmetric", "scaling-power1-grid",
        "scaling-detbase", "scaling-powers", "scaling-bernoulli", "bounds-one-l1",
        "bounds-two-l3", "compare", "distribution-inverse-distance",
        "distribution-oldest", "chains"])
def test_experiment_csv(config, digest, workers):
    assert sha256(run_experiment(ExperimentConfig(**config, workers=workers))) == digest



def _node_failed(rng):
    return apply_node_failures(build(2 ** 8, InversePowerLaw(8), rng), 0.5, rng)


def _link_and_node_failed(rng):
    g = apply_link_failures(build(2 ** 8, InversePowerLaw(8), rng), 0.3, rng)
    return apply_node_failures(g, 0.3, rng)


GRAPHS = {"node-failed": (_node_failed, 21), "link-and-node-failed": (_link_and_node_failed, 22)}
STRATEGIES = {"terminate": Terminate(), "restart": RandomRestart(),
              "backtrack1": Backtrack(1), "backtrack5": Backtrack(5)}

# recorded before `route` became one recovery loop
ROUTE_DIGESTS = {
    ("node-failed", "terminate"):
        "34075f65f6c8e4614d27de77f11b61c17c8ba83536cfc842ab252268bb9ca969",
    ("node-failed", "restart"):
        "5e369d2a33df9a6f85bc57db8651308de1a727ba98431a24b9f7e7a3e57de8e9",
    ("node-failed", "backtrack1"):
        "2c8c96ae6d1a51456f5097efb8ef1de9e9021e389cd369b1aaa16e9d90606fa0",
    ("node-failed", "backtrack5"):
        "50f2a94a49d123c931763eda93a841baa338ca8ce1b27d4c18a55816ac720190",
    ("link-and-node-failed", "terminate"):
        "323011d298e74e654cad04b32e8fa3d64181273cce18d69f2174c34bc9463d33",
    ("link-and-node-failed", "restart"):
        "6aaef1d25092a12d4bb006c6e096030587ca856d36118fe23fc146baf81678f5",
    ("link-and-node-failed", "backtrack1"):
        "ff42aba3228454395aeea0792f6ab2d4689355e56bdce8beeffe4b7d5a9ff6ea",
    ("link-and-node-failed", "backtrack5"):
        "d6c7ca212875d399b1e1d84f06dd25e1b6dfe0cd94331f7682773aad0a4dc7a9",
}


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_route_results(graph, strategy):
    """Every field of every RouteResult, path included, for 40 seeded pairs
    under every sidedness x choice rule x link mode x max_hops in
    {None, 3}; each mode's restart routes draw from one fresh rng."""
    make, seed = GRAPHS[graph]
    rng = np.random.default_rng(seed)
    g = make(rng)
    live = g.live_sorted()
    pairs = [tuple(int(v) for v in rng.choice(live, 2, replace=False)) for _ in range(40)]
    results = []
    for side, probe, symmetric, max_hops in product(Sidedness, (True, False), (False, True),
                                                    (None, 3)):
        route_rng = np.random.default_rng(seed)
        results += [route(g, s, d, side, STRATEGIES[strategy], max_hops=max_hops,
                          rng=route_rng, probe=probe, symmetric=symmetric)
                    for s, d in pairs]
    assert sha256(repr(results)) == ROUTE_DIGESTS[graph, strategy]
