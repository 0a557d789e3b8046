"""End-to-end acceptance checks, one per criterion, each printing a
PASS/FAIL line with its stated tolerance pinned in the assertions."""

import itertools
import math

import numpy as np

from helpers import (
    average_fidelity_density,
    chi_row,
    eta_row,
    random_input,
    random_state,
    six_state_mean,
)
from tripsim.bases import bell2, bob_x_basis, ghz_basis, w_basis
from tripsim.classify import BISEPARABLE, FULLY_SEPARABLE, GENUINE_GHZ, GENUINE_W, classify
from tripsim.core import (
    DensityOp,
    InputQubit,
    LocalOperator,
    StateVector,
    _string_matrix,
    apply_local,
    haar_unitary,
    partial_trace,
    project,
    partial_inner,
    tensor,
)
from tripsim.nonlocality import ghz_paradox
from tripsim.noise import (
    amplitude_damping,
    apply_channel,
    bit_flip,
    depolarizing,
    noisy_teleport_sweep,
    phase_flip,
)
from tripsim.teleport import (
    GHZ_EPR_CORRECTIONS,
    avg_fidelity_surface,
    closed_form_avg_fidelity,
    protocol_bundle,
    teleport_epr_via_ghz,
    teleport_ghz_epr,
    teleport_ghz_measurement,
    teleport_ghz_via_3epr,
    teleport_w_channel,
)
from tripsim.twirl import (
    IsotropicParams,
    WernerParams,
    isotropic,
    isotropic_invariant,
    trace_distance,
    twirl_uu,
    twirl_uustar,
    werner,
    werner_invariant,
)

MAX = math.pi / 4


def _verdict(num: int, description: str, ok: bool):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num}: {description}"


def test_criterion_1_paradox():
    report = ghz_paradox(ghz_basis(MAX, (0, 0, 0)))
    ok = (
        abs(report.xyy + 1.0) < 1e-12
        and abs(report.yxy + 1.0) < 1e-12
        and abs(report.yyx + 1.0) < 1e-12
        and abs(report.xxx - 1.0) < 1e-12
        and report.contradiction
    )
    _verdict(1, "paradox expectations (-1,-1,-1,+1) within 1e-12, contradiction flagged", ok)


def test_criterion_2_average_fidelity_law():
    grid = np.linspace(0.0, math.pi / 2, 21)
    surface = avg_fidelity_surface(grid)
    closed = np.array([[closed_form_avg_fidelity(t, p) for p in grid] for t in grid])
    max_dev = float(np.abs(surface.values - closed).max())
    corner_max = surface.values[10, 10]  # pi/4 sits mid-grid
    corner_classical = float(np.abs(surface.values[0, :] - 2.0 / 3.0).max())
    ok = max_dev < 1e-6 and abs(corner_max - 1.0) < 1e-9 and corner_classical < 1e-9
    _verdict(
        2,
        f"simulated input-averaged fidelity matches 2/3 + sin2t sin2p / 3 "
        f"(max dev {max_dev:.2e} < 1e-6), corners exact",
        ok,
    )


def test_criterion_3_branch_tables():
    rng = np.random.default_rng(2024)
    ok = True
    psi_base = ghz_basis(MAX, (0, 0, 0))
    for _ in range(100):
        iq = random_input(rng)
        theta = rng.uniform(0.1, math.pi / 2 - 0.1)
        psi = tensor(iq.state(), psi_base)
        report = teleport_ghz_epr(iq, theta)
        branches = {b.outcome: b for b in report.branches}
        for m, n in itertools.product((0, 1), repeat=2):
            _, eta = project(psi, bell2(MAX, (m, n)), (0, 1))
            ok &= np.abs(eta.amplitudes - eta_row(m, n, iq.c0, iq.c1)).max() < 1e-12
            for j in (0, 1):
                row = chi_row(m, n, j, iq.c0, iq.c1, theta)
                branch = branches[(m, n, j)]
                scaled = math.sqrt(branch.probability) * branch.post_state.amplitudes
                fixed = _string_matrix(GHZ_EPR_CORRECTIONS[(m, n, j)]) @ row / 2.0
                pre = partial_inner(eta, bob_x_basis(theta)[j], (0,))
                ok &= np.abs(pre.amplitudes - row).max() < 1e-12
                ok &= np.abs(scaled - fixed).max() < 1e-12
    maximal = teleport_ghz_epr(InputQubit(math.sqrt(0.42), math.sqrt(0.58) * 1j), MAX)
    ok &= all(abs(b.fidelity - 1.0) < 1e-12 for b in maximal.branches)
    _verdict(3, "pair/receiver/corrected branch tables reproduced entrywise within 1e-12; "
                "all branch fidelities 1 at the maximal receiver angle", ok)


def test_criterion_4_w_channel():
    rng = np.random.default_rng(4)
    symmetric = (1 / math.sqrt(3),) * 3
    ok = True
    for _ in range(20):
        report = teleport_w_channel(random_input(rng), symmetric)
        ok &= abs(report.success_probability - 2.0 / 3.0) < 1e-12
    a = b = math.sqrt(0.28)
    c = math.sqrt(1 - 2 * 0.28)
    failure_states = []
    for _ in range(10):
        report = teleport_w_channel(random_input(rng), (a, b, c))
        for branch in report.branches:
            if branch.success and branch.fidelity is not None:
                ok &= abs(branch.fidelity - 1.0) < 1e-12
            if not branch.success and branch.post_state is not None:
                failure_states.append(branch.post_state.amplitudes)
    reference = failure_states[0]
    ok &= all(
        abs(abs(np.vdot(reference, vec)) - 1.0) < 1e-12 for vec in failure_states
    )
    _verdict(4, "success probability 2/3 at the symmetric channel (exact enumeration), "
                "perfect success branches when a=b, input-independent failure state", ok)


def test_criterion_5_partial_trace_goldens():
    ghz_reduced = partial_trace(DensityOp.from_pure(ghz_basis(MAX, (0, 0, 0))), (0, 1))
    expected_ghz = np.zeros((4, 4))
    expected_ghz[0, 0] = expected_ghz[3, 3] = 0.5
    w_state = StateVector(np.array([0, 1, 1, 0, 1, 0, 0, 0]) / math.sqrt(3))
    w_reduced = partial_trace(DensityOp.from_pure(w_state), (0, 1))
    pair = bell2(MAX, (0, 1)).amplitudes
    expected_w = 2 / 3 * np.outer(pair, pair.conj())
    expected_w[0, 0] += 1 / 3
    ok = (
        np.abs(ghz_reduced.matrix - expected_ghz).max() < 1e-12
        and np.abs(w_reduced.matrix - expected_w).max() < 1e-12
    )
    _verdict(5, "reduced-operator golden values reproduced entrywise within 1e-12", ok)


def test_criterion_6_twirling():
    w = werner(WernerParams(2, 0.7))
    iso = isotropic(IsotropicParams(2, 0.6))
    td_w = trace_distance(twirl_uu(w, 2000, np.random.default_rng(0)), w)
    td_i = trace_distance(twirl_uustar(iso, 2000, np.random.default_rng(0)), iso)
    rng = np.random.default_rng(6)
    round_trips = all(
        abs(werner_invariant(werner(WernerParams(d, p))) - p) < 1e-12
        and abs(isotropic_invariant(isotropic(IsotropicParams(d, f))) - f) < 1e-12
        for d in (2, 3)
        for p, f in [(rng.random(), rng.uniform(1 / (d * d), 1.0)) for _ in range(5)]
    )
    ok = td_w < 5e-2 and td_i < 5e-2 and round_trips
    _verdict(6, f"seed-0 2000-sample twirls within 5e-2 of the analytic family "
                f"(got {td_w:.1e}, {td_i:.1e}); invariants round-trip to 1e-12", ok)


def test_criterion_7_classification():
    ok = all(
        classify(ghz_basis(theta, (0, 0, 0))).tag == GENUINE_GHZ
        for theta in (0.1, 0.3, 0.7, MAX, 1.2)
    )
    ok &= all(classify(w_basis(0.9, 0.7, k)).tag == GENUINE_W for k in range(1, 9))
    bisep = classify(tensor(StateVector([1, 0]), bell2(MAX, (0, 0))))
    ok &= bisep.tag == BISEPARABLE and bisep.partition == "A|BC"
    ok &= classify(StateVector.computational(3, 0)).tag == FULLY_SEPARABLE
    rng = np.random.default_rng(7)
    states = [
        ghz_basis(0.6, (0, 0, 0)),
        w_basis(0.9, 0.7, 1),
        tensor(StateVector([0.6, 0.8]), bell2(0.5, (0, 0))),
        StateVector.computational(3, 3),
    ]
    tags = [classify(s).tag for s in states]
    for _ in range(50):
        for state, tag in zip(states, tags):
            rotated = state
            for q in range(3):
                rotated = apply_local(
                    LocalOperator(haar_unitary(2, rng).matrix, (q,)), rotated
                )
            ok &= classify(rotated).tag == tag
    _verdict(7, "class assignments correct and invariant under 200 random local rotations", ok)


def test_criterion_8_protocol_completeness():
    rng = np.random.default_rng(8)
    protocols = [
        lambda iq: teleport_ghz_epr(iq, rng.uniform(0.1, 1.4)),
        lambda iq: teleport_ghz_measurement(iq, rng.uniform(0.1, 1.4), rng.uniform(0.1, 1.4)),
        lambda iq: teleport_epr_via_ghz(iq, rng.uniform(0.1, 1.4)),
        lambda iq: teleport_ghz_via_3epr(iq, tuple(rng.uniform(0.1, 1.4, 3))),
        lambda iq: teleport_w_channel(
            iq, tuple(np.sqrt(rng.dirichlet(np.ones(3))))
        ),
    ]
    ok = True
    for run_protocol in protocols:
        for _ in range(50):
            report = run_protocol(random_input(rng))
            ok &= abs(report.total_probability - 1.0) < 1e-9
            ok &= abs(report.avg_fidelity - report.avg_fidelity_traced) < 1e-12
    _verdict(8, "branch probabilities sum to 1 within 1e-9 and the two fidelity "
                "accountings agree within 1e-12 for every protocol, 50 inputs each", ok)


def test_criterion_9_noise_sanity():
    bundle = protocol_bundle("ghz-meas")
    resource = bundle.resource.amplitudes
    pure = six_state_mean(average_fidelity_density, bundle, np.outer(resource, resource.conj()))
    ok = True
    for kind in ("bitflip", "phaseflip", "depolarizing", "amplitude-damping"):
        rows = noisy_teleport_sweep("ghz-meas", kind, 3, [0.0])
        ok &= abs(rows[0][1] - pure) < 1e-9
    rng = np.random.default_rng(99)
    makers = (bit_flip, phase_flip, depolarizing, amplitude_damping)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        rho = DensityOp.from_pure(random_state(rng, n))
        ch = makers[int(rng.integers(0, 4))](float(rng.random()))
        out = apply_channel(rho, ch, int(rng.integers(0, n)))
        ok &= abs(np.trace(out.matrix).real - 1.0) < 1e-12
        ok &= float(np.linalg.eigvalsh(out.matrix).min()) > -1e-9
    rho = DensityOp.from_pure(random_state(np.random.default_rng(5), 2))
    p1, p2 = 0.37, 0.61
    twice = apply_channel(apply_channel(rho, bit_flip(p1), 1), bit_flip(p2), 1)
    once = apply_channel(rho, bit_flip(p1 + p2 - 2 * p1 * p2), 1)
    ok &= np.abs(twice.matrix - once.matrix).max() < 1e-12
    _verdict(9, "zero-parameter channels leave the averaged fidelity unchanged within "
                "1e-9; CPTP holds on 100 random pairs; bit-flip composition exact", ok)
