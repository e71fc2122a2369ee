"""The training run as a dependency graph: edges, priorities, readiness.

Scheduling is a pure function of the node list (``critical_path`` /
``runnable``), so it is tested here without a pool, a fit or a sleep — on the
shape of the end-to-end benchmark's experiment: two clusters, one of them
with a member that equals its MotherNet (``V16B``) and a dependent (``V19``).
"""

import pytest

from repro.arch import small_vgg_ensemble
from repro.core import MotherNetsTrainer
from repro.core.trainer import TaskNode, critical_path, runnable
from repro.data import cifar10_like
from repro.nn import TrainingConfig


@pytest.fixture(scope="module")
def benchmark_graph():
    shape = (3, 8, 8)
    dataset = cifar10_like(train_samples=128, test_samples=32, image_shape=shape, seed=0)
    specs = small_vgg_ensemble(num_classes=10, input_shape=shape, width_scale=0.0625)
    trainer = MotherNetsTrainer(TrainingConfig(max_epochs=3), tau=0.5)
    clusters, nodes, landed = trainer._graph(specs, dataset, seed=0)
    assert landed == {}  # no journal: everything is still to train
    names = {("mothernet", c.cluster_id): c.mothernet.name for c in clusters}
    names.update({("member", i): spec.name.split("@")[0] for i, spec in enumerate(specs)})
    return nodes, names


def _names(nodes, names):
    return [names[node.key] for node in nodes]


def test_graph_lists_mothernets_then_members_with_hatching_edges(benchmark_graph):
    nodes, names = benchmark_graph
    assert _names(nodes, names) == [
        "mothernet-0", "mothernet-1", "V13", "V16", "V16A", "V16B", "V19",
    ]
    edges = {names[node.key]: [names[dep] for dep in node.deps] for node in nodes}
    assert edges == {
        "mothernet-0": [],
        "mothernet-1": [],
        "V13": ["mothernet-0"],
        "V16": ["mothernet-0"],
        "V16A": ["mothernet-0"],
        "V16B": ["mothernet-1"],  # equals its MotherNet: empty hatching plan ...
        "V19": ["V16B"],  # ... so the later member hatches from *its* weights
    }
    assert [node.phase for node in nodes] == ["mothernet"] * 2 + ["member"] * 5
    assert all(node.work > 0 for node in nodes)


def test_critical_path_first_on_the_benchmark_shape(benchmark_graph):
    nodes, names = benchmark_graph
    key = {name: k for k, name in names.items()}
    priority = critical_path(nodes)
    # The three-deep chain outranks the two-deep fan, whatever the list order.
    assert _names(runnable(nodes, set(), priority), names) == ["mothernet-1", "mothernet-0"]

    waiting = [node for node in nodes if node.phase == "member"]
    landed = {key["mothernet-1"]}
    assert _names(runnable(waiting, landed, priority), names) == ["V16B"]
    landed.add(key["mothernet-0"])
    ready = _names(runnable(waiting, landed, priority), names)
    assert ready[0] == "V16B"  # the chain head, ahead of cluster 0's leaves
    assert sorted(ready[1:]) == ["V13", "V16", "V16A"] and "V19" not in ready
    by_work = sorted(ready[1:], key=lambda name: -priority[key[name]])
    assert ready[1:] == by_work  # leaves longest-first
    landed.add(key["V16B"])
    assert "V19" in _names(runnable(waiting, landed, priority), names)


def test_priority_is_own_work_plus_heaviest_chain_and_ties_keep_list_order():
    def node(key, work, *deps):
        return TaskNode(key, "member", deps, work, make_task=None, done=None)

    nodes = [node("a", 1.0), node("b", 1.0), node("c", 5.0, "a"), node("d", 2.0, "a"),
             node("e", 1.0, "d"), node("f", 4.0, "b")]
    priority = critical_path(nodes)
    assert priority == {"a": 6.0, "b": 5.0, "c": 5.0, "d": 3.0, "e": 1.0, "f": 4.0}
    # With "a" landed its dependents join "b"; "b" and "c" tie at 5.0 and
    # keep list order (the sort is stable), "e" and "f" still wait.
    assert [n.key for n in runnable(nodes[1:], {"a"}, priority)] == ["b", "c", "d"]
    flat = [node(i, 1.0) for i in range(4)]
    assert [n.key for n in runnable(flat, set(), critical_path(flat))] == [0, 1, 2, 3]
    # A dependency on a network that is not a node (restored from a journal)
    # counts once it is in ``landed``.
    resumed = [node("m", 1.0, "restored")]
    assert runnable(resumed, set(), critical_path(resumed)) == []
    assert runnable(resumed, {"restored"}, critical_path(resumed)) == resumed
