"""Unit tests for the Feeney energy model (repro.energy)."""

import numpy as np
import pytest

from repro.energy import EnergyLedger, EnergyParams


class TestEnergyParams:
    def test_linear_form(self):
        p = EnergyParams()
        assert p.p2p_send(100) == pytest.approx(1.9 * 100 + 454)
        assert p.p2p_recv(100) == pytest.approx(0.5 * 100 + 356)
        assert p.bcast_send(100) == pytest.approx(1.9 * 100 + 266)
        assert p.bcast_recv(100) == pytest.approx(0.5 * 100 + 56)
        assert p.discard(100) == pytest.approx(0.5 * 100 + 24)

    def test_broadcast_cheaper_than_p2p_fixed_cost(self):
        """Feeney: broadcast avoids MAC RTS/CTS, so b is smaller."""
        p = EnergyParams()
        assert p.bcast_send(0) < p.p2p_send(0)
        assert p.bcast_recv(0) < p.p2p_recv(0)

    def test_custom_coefficients(self):
        p = EnergyParams(m_p2p_send=2.0, b_p2p_send=100.0)
        assert p.p2p_send(50) == 200.0


class TestEnergyLedger:
    def test_charges_accumulate_per_node(self):
        ledger = EnergyLedger(4)
        ledger.charge_p2p_send(0, 100)
        ledger.charge_p2p_recv(1, 100)
        assert ledger.node_total(0) == pytest.approx(1.9 * 100 + 454)
        assert ledger.node_total(1) == pytest.approx(0.5 * 100 + 356)
        assert ledger.node_total(2) == 0.0

    def test_broadcast_recv_charges_all_receivers(self):
        ledger = EnergyLedger(5)
        total = ledger.charge_bcast_recv(np.array([1, 2, 3]), 200)
        each = 0.5 * 200 + 56
        assert total == pytest.approx(3 * each)
        for node in (1, 2, 3):
            assert ledger.node_total(node) == pytest.approx(each)

    def test_empty_receiver_set_is_free(self):
        ledger = EnergyLedger(3)
        assert ledger.charge_bcast_recv(np.array([], dtype=int), 100) == 0.0
        assert ledger.total() == 0.0

    def test_duplicate_receivers_charged_twice(self):
        """Repeated ids accumulate: one charge per occurrence."""
        ledger = EnergyLedger(3)
        ledger.charge_bcast_recv(np.array([1, 1]), 100)
        assert ledger.node_total(1) == pytest.approx(2 * (0.5 * 100 + 56))

    def test_total_is_sum_of_categories(self):
        ledger = EnergyLedger(3)
        ledger.charge_p2p_send(0, 10)
        ledger.charge_bcast_send(1, 10)
        ledger.charge_discard(np.array([2]), 10)
        by_cat = ledger.total_by_category()
        assert ledger.total() == pytest.approx(sum(by_cat.values()))
        assert by_cat["p2p_send"] > 0
        assert by_cat["bcast_send"] > 0
        assert by_cat["discard"] > 0

    def test_per_node_matches_node_total(self):
        ledger = EnergyLedger(4)
        ledger.charge_p2p_send(2, 300)
        ledger.charge_p2p_recv(3, 300)
        per_node = ledger.per_node()
        for i in range(4):
            assert per_node[i] == pytest.approx(ledger.node_total(i))

    def test_reset(self):
        ledger = EnergyLedger(2)
        ledger.charge_p2p_send(0, 10)
        ledger.reset()
        assert ledger.total() == 0.0

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            EnergyLedger(0)


# ---------------------------------------------------------------------------
# The list-backed ledger against a numpy-array reference, bit for bit
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


class NumpyLedger:
    """The array ledger the list ledger replaced: ``np.add.at`` charges,
    ``ndarray.sum()`` reductions."""

    def __init__(self, n_nodes, params):
        self.params = params
        self.arrays = {cat: np.zeros(n_nodes) for cat in EnergyLedger.CATEGORIES}

    def charge(self, category, nodes, size):
        cost = getattr(self.params, category)(size)
        nodes = np.asarray(nodes, dtype=np.intp)
        np.add.at(self.arrays[category], nodes, cost)
        return cost * nodes.size

    def reset(self):
        for arr in self.arrays.values():
            arr.fill(0.0)

    def total(self):
        return float(sum(arr.sum() for arr in self.arrays.values()))

    def total_by_category(self):
        return {cat: float(arr.sum()) for cat, arr in self.arrays.items()}

    def per_node(self):
        out = np.zeros(next(iter(self.arrays.values())).size)
        for arr in self.arrays.values():
            out += arr
        return out


#: Above numpy's 8-wide unrolled block, so ``ndarray.sum()`` is not a
#: left-to-right sum and a reader that summed the lists directly would
#: round differently.
N_NODES = 40
_SIZES = st.floats(min_value=0.0, max_value=1e5, allow_nan=False, allow_infinity=False)
_NODE = st.integers(0, N_NODES - 1)
_OP = st.one_of(
    st.tuples(st.sampled_from(["p2p_send", "p2p_recv", "bcast_send"]), _NODE, _SIZES),
    # Per-receiver charges: empty sets and repeated ids included.
    st.tuples(st.sampled_from(["bcast_recv", "discard"]),
              st.lists(_NODE, max_size=60), _SIZES),
    st.just(("reset", None, None)),
)


class TestListLedgerMatchesArrayLedger:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_OP, max_size=80))
    def test_bit_equal_to_numpy_reference(self, ops):
        params = EnergyParams(m_p2p_send=1.9, b_p2p_send=454.1, m_discard=0.3)
        ledger, ref = EnergyLedger(N_NODES, params), NumpyLedger(N_NODES, params)
        methods = {
            "p2p_send": ledger.charge_p2p_send,
            "p2p_recv": ledger.charge_p2p_recv,
            "bcast_send": ledger.charge_bcast_send,
            "bcast_recv": ledger.charge_bcast_recv,
            "discard": ledger.charge_discard,
        }
        for kind, nodes, size in ops:
            if kind == "reset":
                ledger.reset()
                ref.reset()
                continue
            got = methods[kind](nodes, size)
            want = ref.charge(kind, [nodes] if isinstance(nodes, int) else nodes, size)
            assert got == want
        for cat in EnergyLedger.CATEGORIES:
            assert (np.asarray(ledger._by_category[cat]).tobytes()
                    == ref.arrays[cat].tobytes()), cat
        assert ledger.total() == ref.total()
        assert ledger.total_by_category() == ref.total_by_category()
        assert ledger.per_node().tobytes() == ref.per_node().tobytes()
        for node in range(N_NODES):
            assert ledger.node_total(node) == float(
                sum(arr[node] for arr in ref.arrays.values()))

    def test_charges_accept_ndarrays_and_lists_alike(self):
        a, b = EnergyLedger(4), EnergyLedger(4)
        a.charge_bcast_recv(np.array([3, 1, 3]), 70.0)
        b.charge_bcast_recv([3, 1, 3], 70.0)
        assert a.per_node().tolist() == b.per_node().tolist()


# ---------------------------------------------------------------------------
# charge_unicast against its three single-class charges, bit for bit
# ---------------------------------------------------------------------------


class RecordingObserver:
    def __init__(self):
        self.charges = []

    def on_charge(self, category, cost_uj):
        self.charges.append((category, cost_uj))

    def on_reset(self):
        self.charges.append(("reset", None))


_COEFF = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e3,
                                           allow_nan=False, allow_infinity=False))
_PARAMS = st.builds(
    EnergyParams,
    m_p2p_send=_COEFF, b_p2p_send=_COEFF, m_p2p_recv=_COEFF, b_p2p_recv=_COEFF,
    m_discard=_COEFF, b_discard=_COEFF,
)
#: (src, dst, neighbors, size): neighbor lists may be empty, repeat ids
#: (dst included) or miss dst; sizes repeat so the cost memo is hit.
_UNICAST = st.tuples(
    _NODE, _NODE, st.lists(_NODE, max_size=30),
    st.one_of(st.sampled_from([0.0, 64.0, 1500.0]), _SIZES),
)


class TestChargeUnicast:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.just(EnergyParams()), _PARAMS), st.lists(_UNICAST, max_size=40))
    def test_equals_send_discard_recv(self, params, ops):
        one, three = EnergyLedger(N_NODES, params), EnergyLedger(N_NODES, params)
        one.observer, three.observer = RecordingObserver(), RecordingObserver()
        for src, dst, neighbors, size in ops:
            reached = one.charge_unicast(src, dst, neighbors, size)
            three.charge_p2p_send(src, size)
            three.charge_discard([node for node in neighbors if node != dst], size)
            if dst in neighbors:
                three.charge_p2p_recv(dst, size)
            assert reached == (dst in neighbors)
        for cat in EnergyLedger.CATEGORIES:
            assert (np.asarray(one._by_category[cat]).tobytes()
                    == np.asarray(three._by_category[cat]).tobytes()), cat
        assert one.observer.charges == three.observer.charges

    def test_out_of_range_destination_pays_no_receive(self):
        ledger = EnergyLedger(4)
        assert not ledger.charge_unicast(0, 3, [1, 2], 100.0)
        assert ledger.total_by_category()["p2p_recv"] == 0.0
        assert ledger.total_by_category()["discard"] == pytest.approx(2 * (0.5 * 100 + 24))
        assert ledger.charge_unicast(0, 3, [], 100.0) is False
        assert ledger.charge_unicast(0, 1, [1], 100.0) is True
