"""Admission-queue semantics + randomized property tests.

The deterministic classes pin the queue contract (head-of-line FIFO,
backfill overtaking, timeouts, cancellation, stats).  The property
classes push 100+ seeded random traces through submit/release/backfill
with the :class:`OccupancyInvariantChecker` asserting the global
safety contract after *every* event; a failure records and prints the
reproducing seed (``failing-seeds.txt``, overridable via the
``PROPERTY_SEED_LOG`` environment variable — CI uploads it as an
artifact).
"""

import os

import pytest

from repro.circuits import Circuit, cnot, hadamard, x
from repro.errors import CapacityError, CircuitError, VerificationError
from repro.multiprog import (
    BackfillPolicy,
    BorrowRequest,
    FifoPolicy,
    MultiProgrammer,
    QuantumJob,
    QueuePolicy,
    available_policies,
    make_policy,
    policy_class,
    register_policy,
)
from repro.testing import (
    OccupancyInvariantChecker,
    TraceEvent,
    lender_job,
    random_arrival_trace,
    replay_trace,
    windowed_guest_job,
)
from repro.verify import BatchVerifier

SEED_LOG = os.environ.get("PROPERTY_SEED_LOG", "failing-seeds.txt")

#: Traces are regenerated from the same seeds across policies, so one
#: memoising verifier makes most solver work a cache hit.
SHARED_VERIFIER = BatchVerifier(backend="bdd")

TRACE_JOBS = 8


def busy_job(name, width):
    """A job with no idle wires (nothing to lend, nothing to borrow)."""
    circuit = Circuit(width)
    if width == 1:
        circuit.append(x(0))
    else:
        circuit.extend([cnot(i, i + 1) for i in range(width - 1)])
    return QuantumJob(name, circuit, [])


def hungry_job(name):
    """5 wires, one request: passes the static submit bound on a
    4-qubit machine (5 - 1 = 4) but can never actually be admitted
    there — the ancilla is active across the whole circuit, so it has
    no internal host and, on an empty machine, no lender either."""
    circuit = Circuit(5).extend(
        [cnot(0, 4), cnot(1, 2), cnot(2, 3), cnot(0, 4)]
    )
    return QuantumJob(name, circuit, [BorrowRequest(4)])


def make_programmer(machine=12, policy="fifo", lending="windowed"):
    return MultiProgrammer(
        machine,
        queue_policy=policy,
        verifier=SHARED_VERIFIER,
        lending=lending,
    )


def record_seed(seed, context, error):
    with open(SEED_LOG, "a") as handle:
        handle.write(f"{context} seed={seed}: {error}\n")


def run_seeded(
    seed, policy, check=True, timeout_probability=0.3, lending="windowed"
):
    """Replay one seeded trace; on any failure, log + print the seed."""
    trace = random_arrival_trace(
        seed, num_jobs=TRACE_JOBS, timeout_probability=timeout_probability
    )
    programmer = make_programmer(policy=policy, lending=lending)
    checker = OccupancyInvariantChecker(programmer) if check else None
    try:
        log = replay_trace(programmer, trace, checker=checker)
    except Exception as error:  # noqa: BLE001 - reported with the seed
        record_seed(seed, f"replay[{policy},{lending}]", error)
        pytest.fail(
            f"seed {seed} ({policy}, {lending}): {error}\nreproduce with "
            f"replay_trace(MultiProgrammer(12, queue_policy={policy!r}, "
            f"lending={lending!r}), "
            f"random_arrival_trace({seed}, num_jobs={TRACE_JOBS}, "
            f"timeout_probability={timeout_probability}))"
        )
    return programmer, checker, log, trace


class TestPolicyRegistry:
    def test_builtin_policies_registered(self):
        assert available_policies() == (
            "backfill",
            "fifo",
            "priority",
            "sjf",
        )
        assert policy_class("fifo") is FifoPolicy
        assert isinstance(make_policy("backfill"), BackfillPolicy)

    def test_unknown_policy_rejected(self):
        with pytest.raises(CircuitError, match="registered"):
            make_policy("round-robin")
        with pytest.raises(CircuitError):
            MultiProgrammer(4, queue_policy="nope")

    def test_policy_instance_accepted(self):
        mp = MultiProgrammer(4, queue_policy=BackfillPolicy())
        assert mp.queue_policy.name == "backfill"

    def test_non_policy_class_rejected(self):
        with pytest.raises(CircuitError, match="subclass"):
            register_policy("bad")(dict)

    def test_duplicate_name_rejected(self):
        with pytest.raises(CircuitError, match="already registered"):

            @register_policy("fifo")
            class Impostor(QueuePolicy):
                def drain(self, entries, try_admit):
                    return []


class TestSubmit:
    def test_fitting_arrival_admitted(self):
        mp = make_programmer(machine=4)
        outcome = mp.submit(busy_job("a", 3))
        assert outcome.admitted and outcome.admission.name == "a"
        assert mp.pending() == ()

    def test_full_machine_queues(self):
        mp = make_programmer(machine=4)
        mp.submit(busy_job("a", 3))
        outcome = mp.submit(busy_job("b", 2))
        assert outcome.status == "queued" and outcome.position == 0
        assert mp.pending() == ("b",)
        assert mp.residents == ("a",)

    def test_fifo_never_overtakes(self):
        mp = make_programmer(machine=4, policy="fifo")
        mp.submit(busy_job("a", 3))
        mp.submit(busy_job("b", 2))
        outcome = mp.submit(busy_job("c", 1))  # would fit the free wire
        assert outcome.status == "queued"
        assert mp.pending() == ("b", "c")

    def test_backfill_overtakes(self):
        mp = make_programmer(machine=4, policy="backfill")
        mp.submit(busy_job("a", 3))
        mp.submit(busy_job("b", 2))
        outcome = mp.submit(busy_job("c", 1))
        assert outcome.admitted
        assert mp.pending() == ("b",)

    def test_impossible_job_rejected_not_queued(self):
        mp = make_programmer(machine=2)
        with pytest.raises(CapacityError):
            mp.submit(busy_job("wide", 3))
        assert mp.pending() == ()
        assert mp.stats()["rejected"] == 1

    def test_impossible_job_rejected_even_behind_a_fifo_queue(self):
        """The static width bound runs even when strict fifo skips the
        immediate admit attempt — a provably-unadmittable job must not
        silently head-block the queue."""
        mp = make_programmer(machine=6, policy="fifo")
        mp.submit(busy_job("a", 4))
        mp.submit(busy_job("b", 5))  # queued: fifo now skips attempts
        with pytest.raises(CapacityError):
            mp.submit(busy_job("wide", 10))
        assert mp.pending() == ("b",)
        assert mp.stats()["rejected"] == 1

    def test_nonclassical_job_rejected_even_behind_a_fifo_queue(self):
        """A job outside the verifiable fragment fails at submission
        (never from a later drain pass, where it would poison every
        subsequent release)."""
        mp = make_programmer(machine=6, policy="fifo")
        mp.submit(busy_job("a", 4))
        mp.submit(busy_job("b", 5))  # queued
        rogue = QuantumJob(
            "rogue",
            Circuit(2).extend([hadamard(0), cnot(0, 1)]),
            [BorrowRequest(1)],
        )
        with pytest.raises(VerificationError):
            mp.submit(rogue)
        mp.release("a")  # the queue must still drain normally
        assert mp.residents == ("b",)

    def test_duplicate_names_rejected(self):
        mp = make_programmer(machine=4)
        mp.submit(busy_job("a", 3))
        with pytest.raises(CircuitError, match="already resident"):
            mp.submit(busy_job("a", 1))
        mp.submit(busy_job("b", 2))
        with pytest.raises(CircuitError, match="already queued"):
            mp.submit(busy_job("b", 1))

    def test_bad_timeout_rejected(self):
        mp = make_programmer(machine=4)
        with pytest.raises(CircuitError, match="timeout"):
            mp.submit(busy_job("a", 1), timeout=0)


class TestBackfillPass:
    def test_release_admits_fifo_head(self):
        mp = make_programmer(machine=4, policy="fifo")
        mp.submit(busy_job("a", 4))
        mp.submit(busy_job("b", 3))
        mp.submit(busy_job("c", 2))
        mp.release("a")
        assert mp.residents == ("b",)  # head admitted, c blocked (1 free)
        assert mp.pending() == ("c",)
        mp.release("b")
        assert mp.residents == ("c",)
        assert mp.pending() == ()

    def test_fifo_head_of_line_blocks_release_too(self):
        mp = make_programmer(machine=6, policy="fifo")
        mp.submit(busy_job("a", 2))
        mp.submit(busy_job("e", 2))
        mp.submit(busy_job("b", 5))  # queued: needs 5
        mp.submit(busy_job("c", 2))  # queued behind b
        mp.release("e")  # 4 free: c fits, b does not — fifo admits neither
        assert mp.pending() == ("b", "c")
        assert mp.residents == ("a",)

    def test_backfill_slips_past_blocked_head(self):
        mp = make_programmer(machine=6, policy="backfill")
        mp.submit(busy_job("a", 2))
        mp.submit(busy_job("e", 2))
        mp.submit(busy_job("b", 5))  # queued
        outcome = mp.submit(busy_job("c", 2))  # admitted right away
        assert outcome.admitted
        mp.release("e")
        mp.release("a")
        assert mp.pending() == ("b",)  # still blocked by c's 2 wires
        mp.release("c")
        assert mp.residents == ("b",)

    def test_impossible_queued_job_dropped_at_empty_drain(self):
        mp = make_programmer(machine=4)
        mp.submit(busy_job("a", 4))
        mp.submit(hungry_job("hungry"))  # passes the static bound
        assert mp.pending() == ("hungry",)
        mp.release("a")  # empty-machine drain proves impossibility
        assert mp.pending() == ()
        assert mp.residents == ()
        assert mp.stats()["rejected"] == 1

    def test_fifo_queue_survives_impossible_head(self):
        mp = make_programmer(machine=4, policy="fifo")
        mp.submit(busy_job("a", 4))
        mp.submit(hungry_job("hungry"))
        mp.submit(busy_job("b", 2))
        mp.release("a")  # hungry is dropped, b must still be admitted
        assert mp.residents == ("b",)
        assert mp.pending() == ()

    def test_bad_strategy_entry_dropped_not_poisonous(self):
        """A queued entry whose admission raises for a non-capacity
        reason is dropped as rejected at the drain pass instead of
        propagating out of release() forever.  (With an empty queue the
        immediate attempt surfaces the error at submit time; here the
        fifo gate skips that attempt, so the drain pass is the first to
        see it.)"""
        mp = make_programmer(machine=4, policy="fifo")
        mp.submit(busy_job("a", 4))
        mp.submit(busy_job("f", 2))  # queue non-empty: no more attempts
        mp.submit(busy_job("bad", 2), strategy="no-such-strategy")
        mp.submit(busy_job("b", 2))
        mp.release("a")  # must not raise, and must not wedge the queue
        # One release, one fixpoint drain: f admitted, bad dropped,
        # and b admitted by the follow-up pass the drop unblocked.
        assert mp.residents == ("f", "b")
        assert mp.pending() == ()
        assert mp.stats()["rejected"] == 1


class TestShortestJobFirst:
    def test_sjf_drains_narrow_before_wide(self):
        mp = make_programmer(machine=6, policy="sjf")
        mp.submit(busy_job("a", 6))
        mp.submit(busy_job("wide", 5))  # queued first, but wide
        mp.submit(busy_job("mid", 3))
        mp.submit(busy_job("tiny", 1))
        mp.release("a")  # 6 free: sjf admits tiny, mid, then wide fails
        assert mp.residents == ("tiny", "mid")
        assert mp.pending() == ("wide",)
        mp.release("tiny")
        mp.release("mid")
        assert mp.residents == ("wide",)

    def test_sjf_key_is_reduced_width(self):
        """A wide job whose ancilla requests shrink it sorts by the
        reduced width, not the raw wire count."""
        mp = make_programmer(machine=4, policy="sjf")
        mp.submit(busy_job("a", 4))
        mp.submit(busy_job("plain", 3))  # reduced width 3, queued first
        mp.submit(hungry_job("shrunk"))  # 5 wires - 1 request = 4... still wider
        mp.submit(busy_job("narrow", 2))  # reduced width 2
        mp.release("a")
        # narrow (2) leads mid-queue despite arriving last.
        assert mp.residents[0] == "narrow"

    def test_sjf_overtakes_like_backfill(self):
        mp = make_programmer(machine=4, policy="sjf")
        mp.submit(busy_job("a", 3))
        mp.submit(busy_job("b", 2))  # queued
        outcome = mp.submit(busy_job("c", 1))
        assert outcome.admitted


class TestPriorityPolicy:
    def test_high_priority_drains_first(self):
        mp = make_programmer(machine=6, policy="priority")
        mp.submit(busy_job("a", 6))
        mp.submit(busy_job("low", 3), priority=1)
        mp.submit(busy_job("high", 3), priority=5)
        mp.release("a")  # both fit one at a time; high first
        assert mp.residents == ("high", "low")

    def test_equal_priority_falls_back_to_arrival_order(self):
        mp = make_programmer(machine=6, policy="priority")
        mp.submit(busy_job("a", 6))
        mp.submit(busy_job("first", 3))
        mp.submit(busy_job("second", 3))
        mp.release("a")
        assert mp.residents == ("first", "second")

    def test_priority_ignored_by_other_policies(self):
        mp = make_programmer(machine=6, policy="fifo")
        mp.submit(busy_job("a", 6))
        mp.submit(busy_job("head", 4), priority=0)
        mp.submit(busy_job("vip", 4), priority=99)
        mp.release("a")  # strict fifo: head first, vip waits
        assert mp.residents == ("head",)
        assert mp.pending() == ("vip",)


class TestTimeoutsAndCancel:
    def test_timeout_expires_after_events(self):
        mp = make_programmer(machine=2)
        mp.submit(busy_job("a", 2))
        mp.submit(busy_job("b", 1), timeout=1)
        assert mp.pending() == ("b",)
        mp.submit(busy_job("c", 1))  # next event: b's deadline passes
        assert mp.pending() == ("c",)
        stats = mp.stats()
        assert stats["expired"] == 1
        mp.release("a")  # b must not resurrect
        assert mp.residents == ("c",)

    def test_unexpired_timeout_still_admits(self):
        mp = make_programmer(machine=2)
        mp.submit(busy_job("a", 2))
        mp.submit(busy_job("b", 1), timeout=5)
        mp.release("a")  # within budget: admitted normally
        assert mp.residents == ("b",)
        assert mp.stats()["expired"] == 0

    def test_cancel_removes_queued_job(self):
        mp = make_programmer(machine=2)
        mp.submit(busy_job("a", 2))
        mp.submit(busy_job("b", 1))
        job = mp.cancel("b")
        assert job.name == "b"
        assert mp.pending() == ()
        assert mp.stats()["cancelled"] == 1

    def test_cancel_unknown_rejected(self):
        """The two failure modes are distinguishable: a resident job
        points the caller at release(), an unknown name says so."""
        mp = make_programmer(machine=2)
        mp.submit(busy_job("a", 2))  # resident, not queued
        with pytest.raises(CircuitError, match="resident.*release"):
            mp.cancel("a")
        with pytest.raises(CircuitError, match="no queued job"):
            mp.cancel("ghost")

    def test_release_of_queued_job_distinguished(self):
        mp = make_programmer(machine=2)
        mp.submit(busy_job("a", 2))
        mp.submit(busy_job("b", 2))  # queued behind a
        with pytest.raises(CircuitError, match="queued.*cancel"):
            mp.release("b")
        with pytest.raises(CircuitError, match="no resident job"):
            mp.release("ghost")


class TestStats:
    def test_wait_accounting(self):
        mp = make_programmer(machine=2)
        mp.submit(busy_job("a", 2))  # clock 1
        mp.submit(busy_job("b", 2))  # clock 2, queued
        mp.release("a")  # clock 3, b admitted: waited 1 event
        stats = mp.stats()
        assert stats["admitted_from_queue"] == 1
        assert stats["mean_wait_events"] == 1.0
        assert stats["clock"] == 3

    def test_expired_jobs_count_toward_mean_wait(self):
        """An entry that times out waited too — mean wait covers it,
        not just the admitted-from-queue survivors."""
        mp = make_programmer(machine=2)
        mp.submit(busy_job("a", 2))  # clock 1
        mp.submit(busy_job("b", 2), timeout=2)  # clock 2, queued
        mp.submit(busy_job("c", 1))  # clock 3, queued (fifo blocks)
        mp.submit(busy_job("d", 1))  # clock 4: b expires, waited 2
        stats = mp.stats()
        assert stats["expired"] == 1
        assert stats["admitted_from_queue"] == 0
        assert stats["total_wait_events"] == 2
        assert stats["mean_wait_events"] == 2.0

    def test_release_records_backfilled_names(self):
        """release() keeps returning freed wires, but the names its
        drain admitted are recorded instead of silently dropped."""
        mp = make_programmer(machine=4, policy="fifo")
        mp.submit(busy_job("a", 4))
        mp.submit(busy_job("b", 2))
        mp.submit(busy_job("c", 2))
        freed = mp.release("a")
        assert freed == (0, 1, 2, 3)
        assert mp.last_backfilled == ("b", "c")
        assert mp.stats()["last_backfilled"] == ["b", "c"]
        # The record is per event: a release that backfills nothing
        # clears it rather than leaving the stale provenance around.
        mp.release("b")
        assert mp.last_backfilled == ()
        assert mp.stats()["last_backfilled"] == []

    def test_counters_conserve_jobs(self):
        mp = make_programmer(machine=4, policy="backfill")
        mp.submit(busy_job("a", 3))
        mp.submit(busy_job("b", 3))  # queued
        mp.submit(busy_job("c", 1))  # backfilled past b
        mp.cancel("b")
        mp.submit(hungry_job("hungry"))  # queued while the machine is busy
        mp.release("a")
        mp.release("c")  # empty-machine drain proves hungry impossible
        stats = mp.stats()
        assert stats["submitted"] == 4
        assert stats["admitted"] == 2
        assert stats["cancelled"] == 1
        assert stats["rejected"] == 1
        assert (
            stats["admitted"]
            + stats["expired"]
            + stats["cancelled"]
            + stats["rejected"]
            + stats["pending"]
            == stats["submitted"]
        )

    def test_snapshot_mentions_queue(self):
        mp = make_programmer(machine=2)
        mp.submit(busy_job("a", 2))
        mp.submit(busy_job("b", 1), timeout=3)
        text = mp.snapshot()
        assert "queued" in text and "b" in text and "expires" in text


class TestClockConsistency:
    """Every submission is one logical event — rejections included.

    The historical bug: the static fail-fast paths (oversized width,
    non-classical circuit) raised *before* ticking the clock or
    running the expiry pass, so a queued timeout counted rejected
    submissions as zero events while counting every other submission
    as one.  These pin the uniform-tick semantics.
    """

    def test_oversized_reject_ticks_the_clock(self):
        mp = make_programmer(machine=2)
        mp.submit(busy_job("a", 2))  # clock 1
        mp.submit(busy_job("b", 1), timeout=2)  # clock 2, expires at 4
        with pytest.raises(CapacityError):
            mp.submit(busy_job("wide", 3))  # clock 3: a rejection event
        mp.submit(busy_job("c", 1))  # clock 4: b expires *here*
        stats = mp.stats()
        assert stats["clock"] == 4
        assert stats["expired"] == 1
        assert mp.pending() == ("c",)

    def test_nonclassical_reject_ticks_and_counts(self):
        mp = make_programmer(machine=4)
        mp.submit(busy_job("a", 4))  # clock 1
        mp.submit(busy_job("b", 1), timeout=2)  # clock 2, expires at 4
        rogue = QuantumJob(
            "rogue",
            Circuit(2).extend([hadamard(0), cnot(0, 1)]),
            [BorrowRequest(1)],
        )
        with pytest.raises(VerificationError):
            mp.submit(rogue)  # clock 3
        with pytest.raises(CapacityError):
            mp.submit(busy_job("wide", 9))  # clock 4: b expires
        stats = mp.stats()
        assert stats["clock"] == 4
        assert stats["expired"] == 1
        assert stats["submitted"] == 4
        assert stats["rejected"] == 2
        # Conservation holds across every rejection flavour.
        assert (
            stats["admitted"]
            + stats["expired"]
            + stats["cancelled"]
            + stats["rejected"]
            + stats["pending"]
            == stats["submitted"]
        )

    @pytest.mark.parametrize("seed", range(0, 60, 3))
    @pytest.mark.parametrize("policy", ["fifo", "backfill"])
    def test_front_loaded_reject_is_outcome_invariant(self, seed, policy):
        """Differential replay: the same trace with an oversized reject
        prepended (while no timed job is queued yet, so every later
        deadline shifts uniformly with the clock) must admit and expire
        exactly the same jobs at the same relative schedule."""
        trace = random_arrival_trace(seed, num_jobs=TRACE_JOBS)
        spiked = [
            TraceEvent("submit", job=busy_job("oversized", 13))
        ] + list(trace)

        plain = replay_trace(make_programmer(policy=policy), trace)
        with_reject = replay_trace(make_programmer(policy=policy), spiked)

        assert with_reject.rejected == ["oversized"]
        assert with_reject.admitted == plain.admitted, (
            f"seed {seed}: a front-loaded reject changed admissions"
        )
        for key in ("admitted", "expired", "cancelled", "pending"):
            assert with_reject.stats[key] == plain.stats[key], (
                f"seed {seed}: {key} drifted across the reject"
            )
        assert with_reject.stats["submitted"] == plain.stats["submitted"] + 1
        assert with_reject.stats["rejected"] == plain.stats["rejected"] + 1
        assert with_reject.stats["clock"] == plain.stats["clock"] + 1


class TestBackfillProvenance:
    """replay_trace attributes every queue admission to its event."""

    def test_release_backfills_are_attributed(self):
        mp = make_programmer(machine=4, policy="fifo")
        log = replay_trace(
            mp,
            [
                TraceEvent("submit", job=busy_job("a", 4)),
                TraceEvent("submit", job=busy_job("b", 2)),
                TraceEvent("submit", job=busy_job("c", 2)),
                TraceEvent("release", pick=0),
            ],
        )
        assert log.backfills == [("release a", ("b", "c"))]
        assert log.backfilled_by == {"b": "release a", "c": "release a"}

    def test_submit_backfills_are_attributed(self):
        mp = make_programmer(machine=6, policy="backfill")
        log = replay_trace(
            mp,
            [
                TraceEvent("submit", job=lender_job("host", 5, touched=3)),
                TraceEvent(
                    "submit", job=windowed_guest_job("guest", span=2)
                ),
                TraceEvent("release", pick=0),
            ],
        )
        # Whatever the admission route, every backfilled name must be
        # attributed to exactly the event whose drain admitted it.
        for event, names in log.backfills:
            for name in names:
                assert log.backfilled_by[name] == event
                assert name in log.admitted

    @pytest.mark.parametrize("seed", range(0, 40, 4))
    def test_provenance_covers_exactly_the_queue_admissions(self, seed):
        """Fleet-wide accounting identity on seeded traces: the names
        attributed across all backfill events are exactly the admitted
        jobs that were not admitted immediately at submission."""
        trace = random_arrival_trace(seed, num_jobs=TRACE_JOBS)
        mp = make_programmer(policy="fifo")
        log = replay_trace(mp, trace)
        attributed = [
            name for _, names in log.backfills for name in names
        ]
        assert len(attributed) == len(set(attributed)), (
            f"seed {seed}: a job was backfilled twice"
        )
        immediate = {
            line.split()[1].rstrip(":")
            for line in log.events
            if line.startswith("submit") and line.endswith("admitted")
        }
        assert set(attributed) == set(log.admitted) - immediate, (
            f"seed {seed}: backfill provenance does not cover the "
            f"queue admissions"
        )
        assert log.stats["admitted_from_queue"] == len(attributed)


class TestRandomTraceInvariants:
    """100+ seeded traces, the occupancy contract checked per event."""

    @pytest.mark.parametrize("seed", range(110))
    def test_invariants_hold_through_random_trace(self, seed):
        policy = "backfill" if seed % 2 else "fifo"
        programmer, checker, log, trace = run_seeded(seed, policy)
        assert checker.checks == len(trace)
        stats = log.stats
        assert (
            stats["admitted"]
            + stats["expired"]
            + stats["cancelled"]
            + stats["rejected"]
            + stats["pending"]
            == stats["submitted"]
        ), f"seed {seed}: queue counters leak jobs"
        assert len(log.admitted) == stats["admitted"]

    @pytest.mark.parametrize("seed", range(0, 110, 5))
    def test_fifo_admits_in_arrival_order(self, seed):
        _, _, log, _ = run_seeded(seed, "fifo")
        arrival = {name: i for i, name in enumerate(log.jobs)}
        indices = [arrival[name] for name in log.admitted]
        assert indices == sorted(indices), (
            f"seed {seed}: fifo admitted out of arrival order "
            f"{log.admitted}"
        )


class TestWindowedLendingProperties:
    """The 110-trace class above already runs with windowed lending on
    (the default) — so the checker's lease-disjointness derivation is
    exercised per event there.  This class drains windowed lending in
    the remaining policy orders, keeps segmented lending honest under
    the same harness, pins the segmented-vs-windowed throughput
    relation and checks that a drained trace strands no job in either
    mode."""

    @pytest.mark.parametrize("seed", range(0, 110, 5))
    def test_invariants_hold_with_windowed_lending_in_priority_order(
        self, seed
    ):
        """The 110-trace class drains windowed lending in fifo and
        backfill order; these traces drain it in sjf and priority
        order, where a queued job's turn depends on its key and not
        on its arrival."""
        policy = "priority" if seed % 2 else "sjf"
        programmer, checker, _, trace = run_seeded(
            seed, policy, lending="windowed"
        )
        assert programmer.lending == "windowed"
        assert checker.checks == len(trace)

    @pytest.mark.parametrize("lending", ["windowed", "segmented"])
    @pytest.mark.parametrize("seed", range(0, 100, 4))
    def test_drained_trace_strands_no_job(self, seed, lending):
        """Liveness: with no timeouts racing the drain, the machine
        empties and every queued job is retried against it, so each
        submission ends admitted or rejected and nothing is left
        pending."""
        policy = "backfill" if seed % 8 else "fifo"
        _, _, log, _ = run_seeded(
            seed,
            policy,
            check=False,
            timeout_probability=0.0,
            lending=lending,
        )
        stranded = set(log.jobs) - set(log.admitted) - set(log.rejected)
        if stranded or log.stats["pending"]:
            record_seed(seed, f"liveness[{policy},{lending}]", stranded)
            pytest.fail(
                f"seed {seed} ({policy}, {lending}): drained trace left "
                f"{sorted(stranded)} unadmitted, "
                f"{log.stats['pending']} pending"
            )
        assert log.stats["admitted"] == len(log.admitted)
        assert log.stats["rejected"] == len(log.rejected)

    @pytest.mark.parametrize("seed", range(0, 110, 5))
    def test_invariants_hold_with_segmented_lending(self, seed):
        """Under segmented lending the checker re-runs the restore-
        point analysis from scratch for every lease, so these traces
        pin the scheduler's segmentation against an independent
        derivation after every event."""
        policy = "sjf" if seed % 2 else "priority"
        programmer, checker, _, trace = run_seeded(
            seed, policy, lending="segmented"
        )
        assert programmer.lending == "segmented"
        assert checker.checks == len(trace)

    @pytest.mark.parametrize("seed", range(0, 100, 4))
    def test_segmented_admits_at_least_windowed(self, seed):
        """The top of the lending lattice: on a drained, timeout-free
        trace, refining whole-period windows into restore segments can
        only admit more — every window that fits un-segmented fits
        segmented a fortiori."""
        logs = {}
        for lending in ("windowed", "segmented"):
            _, _, log, _ = run_seeded(
                seed,
                "backfill",
                check=False,
                timeout_probability=0.0,
                lending=lending,
            )
            logs[lending] = log
        counts = {k: len(v.admitted) for k, v in logs.items()}
        if counts["segmented"] < counts["windowed"]:
            record_seed(
                seed, "segmented-differential", f"chain broken: {counts}"
            )
            pytest.fail(
                f"seed {seed}: admitted counts violate "
                f"segmented >= windowed: {counts}"
            )
        assert set(logs["segmented"].admitted) == set(
            logs["windowed"].admitted
        )


class TestDifferential:
    """Backfill dominates FIFO on throughput, and the online plans are
    reproduced by the batch ``schedule()`` replay."""

    @pytest.mark.parametrize("seed", range(100))
    def test_backfill_never_admits_fewer_than_fifo(self, seed):
        """Fully draining the queue (no timeouts racing the drain),
        out-of-order admission can only add jobs, never lose them.
        Under timeouts the policies trade off (a backfilled job can
        hold wires that let someone else expire), which is exactly what
        the queueing benchmark measures — so the *dominance* claim is
        asserted on drained, timeout-free traces."""
        _, _, fifo_log, _ = run_seeded(
            seed, "fifo", check=False, timeout_probability=0.0
        )
        _, _, back_log, _ = run_seeded(
            seed, "backfill", check=False, timeout_probability=0.0
        )
        if len(back_log.admitted) < len(fifo_log.admitted):
            record_seed(seed, "differential", "backfill < fifo")
            pytest.fail(
                f"seed {seed}: backfill admitted {len(back_log.admitted)} "
                f"< fifo {len(fifo_log.admitted)}"
            )
        # Every job fits the empty machine here, so a full drain admits
        # the lot under either policy.
        assert set(back_log.admitted) == set(fifo_log.admitted)

    @pytest.mark.parametrize("seed", range(0, 100, 4))
    def test_schedule_replay_reproduces_online_plans(self, seed):
        """The per-job width-reduction plan of every admitted job is
        reproduced exactly when the admitted set replays through the
        batch ``schedule()`` (greedy strategy, shared verifier)."""
        programmer, _, log, _ = run_seeded(seed, "backfill")
        if not log.admitted:
            pytest.skip("trace admitted nothing")
        result = make_programmer().schedule(
            log.admitted_jobs, require_fit=False
        )
        for adm in result.admissions:
            plan = log.plans[adm.name]
            assert adm.plan.assignment == plan.assignment, (
                f"seed {seed}: job {adm.name} batch assignment "
                f"{adm.plan.assignment} != online {plan.assignment}"
            )
            assert adm.plan.final_width == plan.final_width

    @pytest.mark.parametrize("seed", range(0, 100, 10))
    def test_schedule_replay_is_deterministic(self, seed):
        _, _, log, _ = run_seeded(seed, "fifo", check=False)
        if not log.admitted:
            pytest.skip("trace admitted nothing")
        first = make_programmer().schedule(
            log.admitted_jobs, require_fit=False
        )
        second = make_programmer().schedule(
            log.admitted_jobs, require_fit=False
        )
        assert [str(g) for g in first.composite.gates] == [
            str(g) for g in second.composite.gates
        ]
        assert first.plan.assignment == second.plan.assignment
