"""Fig 12 — the two-tier I/O scheduler ablation.

Shapes:
* thread-level combining (TLC) gives a large speedup over per-message
  synchronous sends, growing with query size (paper: up to 15.9× on the
  largest query);
* node-level combining (NLC) reduces NIC packet counts but has a minor
  latency effect; the paper has it slightly *hurt* the smallest query,
  which the work-conserving combiner no longer reproduces (EXPERIMENTS.md,
  Fig 12) — the assertion below allows either sign.
"""

from repro.bench.experiments import fig12_io_scheduler


def test_fig12_io_scheduler(benchmark, emit):
    table = benchmark.pedantic(fig12_io_scheduler, rounds=1, iterations=1)
    emit(table)
    by_k = {row[0]: row for row in table.rows}

    for k, row in by_k.items():
        _k, sync, tlc, nlc, speedup, p_sync, p_tlc, p_nlc = row
        # TLC is a clear win everywhere.
        assert speedup > 1.5, row
        # Batching collapses packet counts monotonically.
        assert p_sync > p_tlc > p_nlc, row

    # TLC's speedup grows with the query size.
    ks = sorted(by_k)
    assert by_k[ks[-1]][4] > by_k[ks[0]][4], table.rows
    # NLC is minor: within 2× either way of TLC-only latency.
    for k, row in by_k.items():
        assert row[3] < 2 * row[2], row
    # ...and on the smallest query NLC does not help (paper: can slightly
    # slow latency-bound queries).
    smallest = by_k[ks[0]]
    assert smallest[3] >= smallest[2] * 0.9, smallest
