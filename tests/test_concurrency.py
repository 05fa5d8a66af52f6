"""The shared caches must survive racing first-time initialization."""

import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb

from descmat import partitions
from descmat.partitions import bernoulli, partition_count, partitions_of
from descmat.decomposition import all_positive_decompositions, tau_direct, tau_pentagonal
from descmat.descendents import _power_sum_scale, _scaled_power_sums, eisenstein_coordinates, gw_invariant
from descmat.matroid import descendent_labels, named_restriction
from oracles import shifted_power_sum
from test_cli import fresh_python
from test_descendents import clear_build_memos


def reference_partition_counts(limit):
    p = [1]
    for n in range(1, limit + 1):
        total, j = 0, 1
        while j * (3 * j - 1) // 2 <= n:
            sign = -1 if j % 2 == 0 else 1
            total += sign * p[n - j * (3 * j - 1) // 2]
            if j * (3 * j + 1) // 2 <= n:
                total += sign * p[n - j * (3 * j + 1) // 2]
            j += 1
        p.append(total)
    return p


def test_partition_count_under_concurrent_growth():
    targets = list(range(200, 240))
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(partition_count, targets))
    reference = reference_partition_counts(240)
    assert results == [reference[n] for n in targets]
    # positional cache must not have been corrupted by racing appends
    assert [partition_count(n) for n in range(241)] == reference


def test_bernoulli_under_concurrent_growth():
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(bernoulli, range(40, 80)))
    for n in range(1, 80):
        assert sum(comb(n + 1, j) * bernoulli(j) for j in range(n + 1)) == 0


def test_both_prefix_tables_grow_together_under_one_lock(monkeypatch):
    # p(n) and the Bernoulli numbers, cut back to their first entry, grow
    # through one lock in one pool; neither step may wait on the other
    bernoulli_reference = [bernoulli(k) for k in range(60)]
    monkeypatch.setattr(partitions, "_pcount", [1])
    monkeypatch.setattr(partitions, "_bernoulli", [Fraction(1)])
    pairs = zip(range(300, 200, -5), range(59, 19, -2))
    jobs = [job for n, k in pairs for job in ((partition_count, n), (bernoulli, k))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda job: job[0](job[1]), jobs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    p = reference_partition_counts(300)
    expected = [p[n] if fn is partition_count else bernoulli_reference[n] for fn, n in jobs]
    assert results == expected
    assert partitions._pcount == p
    assert partitions._bernoulli == bernoulli_reference


def test_partition_count_agrees_with_the_reference_recurrence_to_1000():
    assert [partition_count(n) for n in range(1001)] == reference_partition_counts(1000)
    assert partition_count(1000) == 24061467864032622473692149727991


def test_memoized_evaluators_are_race_safe():
    jobs = [((2, 1), d) for d in range(9)] + [((3, 3), d) for d in range(9)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda args: gw_invariant(*args), jobs))
    serial = [gw_invariant(label, d) for label, d in jobs]
    assert results == serial
    # from cold memos, eight threads race tau over every positive row, whose
    # rows share their labels' (F[d], D) reads
    rows = [dec for _, dec in all_positive_decompositions(12)]
    tau_jobs = [(d, dec) for d in range(25, 33) for dec in rows]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clear_build_memos()
        with ThreadPoolExecutor(max_workers=8) as pool:
            taus = list(pool.map(lambda job: tau_pentagonal(*job), tau_jobs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    clear_build_memos()
    assert taus == [tau_pentagonal(d, dec) for d, dec in tau_jobs]
    assert taus == [tau_direct(d) for d, _ in tau_jobs]
    # spot value: (3/2)^2 - (1/2)^2 + (1/2)^2 - (3/2)^2 + c_2 = 0
    assert shifted_power_sum(2, (2, 1)) == Fraction(0)


def test_kernel_tables_survive_racing_first_builds():
    # eight threads race each per-degree power-sum row, then the labels of
    # weight 14 race the rows they share and the factored weight-14 solve
    keys = [(j, d) for j in range(1, 14) for d in range(16) for _ in range(8)]
    labels = descendent_labels(14)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clear_build_memos()
        with ThreadPoolExecutor(max_workers=8) as pool:
            rows = list(pool.map(lambda key: _scaled_power_sums(*key), keys, timeout=60))
        clear_build_memos()
        with ThreadPoolExecutor(max_workers=8) as pool:
            coords = list(pool.map(eisenstein_coordinates, labels, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    clear_build_memos()
    assert rows == [_scaled_power_sums(*key) for key in keys]
    assert coords == [eisenstein_coordinates(label) for label in labels]
    # each row, built from the row below it, is N_j times the oracle's sums
    for (j, d), row in zip(keys[::8], rows[::8]):
        expected = [_power_sum_scale(j) * shifted_power_sum(j, lam) for lam in partitions_of(d)]
        assert list(row) == expected, (j, d)


def test_the_cached_dual_survives_racing_first_builds():
    # eight threads race the first dual() of one fresh matroid, whose basis
    # count is read on that dual
    m = named_restriction(16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: (m.dual().matrix(), m.bases_count()), range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    serial = named_restriction(16)
    assert results == [(serial.dual().matrix(), serial.bases_count())] * 8


def test_racing_first_reads_of_the_lazy_namespace_agree():
    # in a fresh interpreter eight threads read every exported name at
    # once, each starting at a different name, so they race every first
    # import of a submodule; each must get the object its submodule holds
    probe = """
import sys, threading
import descmat
names = sorted(descmat.__all__)
barrier = threading.Barrier(8)
seen = [None] * 8

def read(i):
    order = names[i * 7:] + names[:i * 7]
    barrier.wait()
    seen[i] = {name: getattr(descmat, name) for name in order}

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
def held(name):
    module = descmat._MODULE_OF.get(name)
    if module is None:
        return sys.modules[f"descmat.{name}"]
    return getattr(sys.modules[f"descmat.{module}"], name)

print(len(names), all(s is not None and all(s[n] is held(n) for n in names) for s in seen))
"""
    proc = fresh_python(probe)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "50 True\n")
