"""Shared helpers for the incremental-session tests.

Import them explicitly (``from tests.core.conftest import ...``);
pytest's implicit conftest loading does not inject these names.
"""

from repro.core import IncrementalSxnm
from repro.datagen import generate_dataset2
from repro.experiments import dataset2_config
from repro.xmlmodel import serialize

SESSION_CANDIDATES = ("disc", "title")


def disc_batches(sizes, seed=5):
    """Serialized freedb batches of ``sizes[i]`` discs each.

    The discs (duplicates included) are cut in document order from one
    generated corpus, so duplicates often land in different batches.
    """
    discs = generate_dataset2(disc_count=sum(sizes), seed=seed).root.children
    assert len(discs) >= sum(sizes)
    batches, low = [], 0
    for size in sizes:
        batches.append("<freedb>"
                       + "".join(serialize(disc)
                                 for disc in discs[low:low + size])
                       + "</freedb>")
        low += size
    return batches


def open_session(index_dir=None, observers=()):
    return IncrementalSxnm(dataset2_config(window=5), index_dir=index_dir,
                           observers=observers)


def run_session(batches, index_dir=None):
    session = open_session(index_dir)
    for batch in batches:
        session.add_batch(batch)
    return session


def session_state(session):
    """What a restart must reproduce, per candidate: pairs, cluster
    partition, comparisons and instance count."""
    return {name: (session.pairs(name),
                   [list(cluster) for cluster in session.cluster_set(name)],
                   session.comparisons(name),
                   session.instance_count(name))
            for name in SESSION_CANDIDATES}


def chain_links(session):
    """The session's committed chain: base snapshot first, then deltas."""
    manifest = session._index.manifest
    return [manifest["segments"]["session"]] + manifest["session_deltas"]
