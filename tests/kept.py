"""Kept states for the tests. A run keeps no states, so a test that reads
them collects them with a block consumer, as a library caller would."""
import numpy as np


class KeptStates:
    """A block consumer that copies each guarded record block into
    full-length arrays: `rows` holds one (n_records, *row shape) array per
    row the driver hands out, None before the first block."""

    def __init__(self, n_records):
        self.n_records = n_records
        self.rows = None

    def __call__(self, records, *rows):
        if self.rows is None:
            self.rows = tuple(np.empty((self.n_records, *row.shape[1:])) for row in rows)
        for full, part in zip(self.rows, rows):
            full[records] = part


def run_kept(run, scenario, *args):
    """run(scenario, *args, consume=...) with a KeptStates consumer. Returns
    run's result and the kept rows: (rho, xi), (rho, xi, th) for
    run_auxiliary and (rho, xi, w_rho, w_xi) for run_derivative_system;
    (n_records, B, n_nodes) each for run_family of B > 1 rows."""
    kept = KeptStates(len(scenario.record_steps))
    return run(scenario, *args, consume=kept), kept.rows
