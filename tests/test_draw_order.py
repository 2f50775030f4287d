"""Pin the instances the axiom and upgrading checkers draw.

A passing check report carries no instance data, so swapping two rng
draws inside a law keeps every report hash.  These tests record the
arguments of every weak-length and bivariant evaluation a check makes
and pin one sha256 of the sorted records per case.  Sorting makes the
digest independent of the order in which a law evaluates its sides, but
not of which instances are drawn.
"""

import hashlib

import pytest

import mwl.bivariant
import mwl.weaklength
from mwl.bivariant import COVER_LOG, BivariantSpec, check_upgrading_proper
from mwl.weaklength import GEN, LOG_CARD, NU, RANK, check_axiom, tors_log

SEED = 7
AXIOM_BUDGET = 40
UPGRADING_BUDGET = 30

AXIOM_NAMES = ("regularity", "product", "quotient", "upper_continuity",
               "strong_quotient", "subadd_sum", "union_vs_sum", "invariance")
SPECS = {"log_card": LOG_CARD, "tors_log(2)": tors_log(2), "rank": RANK, "nu": NU, "gen": GEN}

AXIOM_DIGESTS = {
    "log_card/regularity": "62638909a7aeebfd51736094e7b809797dd236d111fef0f6cdd21294aaef6003",
    "log_card/product": "985cdeb0505ade76f2a0cba627d2e634097893ec1b39c5be831152d1b5085720",
    "log_card/quotient": "b420d68c893258c320c16feb198895e6d54c1e53827fe31aa2f8585565ffb625",
    "log_card/upper_continuity": "05fcfa2fd31b2238c57b532bdcccd7932940e3f8d12bad7e9ae944a097684144",
    "log_card/strong_quotient": "87a9fc8be1083ae9b7b50cedac1bdfaffc9d8b591af1d55703793ca11fd7a03c",
    "log_card/subadd_sum": "9e14356caa9c2a3c0b6a35a6b3c5ce3047e4a4cffaaac5845408b9638ae222e3",
    "log_card/union_vs_sum": "39c0a0cf945fd962aa8aed78dc27425c997b12fc898019708a97956af4a979b5",
    "log_card/invariance": "6ba10d2e29b7d23c2af31667d93da252471fa3f0a1e4ad6e48d015932113933c",
    "tors_log(2)/regularity": "62638909a7aeebfd51736094e7b809797dd236d111fef0f6cdd21294aaef6003",
    "tors_log(2)/product": "e4e450d87d8ed1db332c226721eebad33b3115e4491e5b70d747cc60418c5930",
    "tors_log(2)/quotient": "c29cda83327057e35596adfb53640414f84bcede409b786f8ac84a101ffe865e",
    "tors_log(2)/upper_continuity": "723f617e14a5728eb4e7f2ad869a7703557a80c188c9a676c17dc47d5d7b0950",
    "tors_log(2)/strong_quotient": "92559710575ed071488de913987f3796980c02a7e34da4f1a51fcb8e1305c9a1",
    "tors_log(2)/subadd_sum": "bb6824454c0c00e83d684b3e0f3efb431ec1eb4a90f3563c82e5ee613b3323b3",
    "tors_log(2)/union_vs_sum": "e70e1846cd88ec91aada43cc7fb32977d5a3650dbd91fa6714b98eb32303ffe5",
    "tors_log(2)/invariance": "d53b2b333f7aa94fd0f5a95d708adbbd78ea9dc3f6f1ef92474291405c67b883",
    "rank/regularity": "62638909a7aeebfd51736094e7b809797dd236d111fef0f6cdd21294aaef6003",
    "rank/product": "985cdeb0505ade76f2a0cba627d2e634097893ec1b39c5be831152d1b5085720",
    "rank/quotient": "b420d68c893258c320c16feb198895e6d54c1e53827fe31aa2f8585565ffb625",
    "rank/upper_continuity": "05fcfa2fd31b2238c57b532bdcccd7932940e3f8d12bad7e9ae944a097684144",
    "rank/strong_quotient": "87a9fc8be1083ae9b7b50cedac1bdfaffc9d8b591af1d55703793ca11fd7a03c",
    "rank/subadd_sum": "9e14356caa9c2a3c0b6a35a6b3c5ce3047e4a4cffaaac5845408b9638ae222e3",
    "rank/union_vs_sum": "39c0a0cf945fd962aa8aed78dc27425c997b12fc898019708a97956af4a979b5",
    "rank/invariance": "6ba10d2e29b7d23c2af31667d93da252471fa3f0a1e4ad6e48d015932113933c",
    "nu/regularity": "62638909a7aeebfd51736094e7b809797dd236d111fef0f6cdd21294aaef6003",
    "nu/product": "985cdeb0505ade76f2a0cba627d2e634097893ec1b39c5be831152d1b5085720",
    "nu/quotient": "b420d68c893258c320c16feb198895e6d54c1e53827fe31aa2f8585565ffb625",
    "nu/upper_continuity": "05fcfa2fd31b2238c57b532bdcccd7932940e3f8d12bad7e9ae944a097684144",
    "nu/strong_quotient": "87a9fc8be1083ae9b7b50cedac1bdfaffc9d8b591af1d55703793ca11fd7a03c",
    "nu/subadd_sum": "9e14356caa9c2a3c0b6a35a6b3c5ce3047e4a4cffaaac5845408b9638ae222e3",
    "nu/union_vs_sum": "39c0a0cf945fd962aa8aed78dc27425c997b12fc898019708a97956af4a979b5",
    "nu/invariance": "6ba10d2e29b7d23c2af31667d93da252471fa3f0a1e4ad6e48d015932113933c",
    "gen/regularity": "62638909a7aeebfd51736094e7b809797dd236d111fef0f6cdd21294aaef6003",
    "gen/product": "4faae5ef2abed696c246aac942928aad2ac4750828192ba385cdf51e3b9bfd31",
    "gen/quotient": "b420d68c893258c320c16feb198895e6d54c1e53827fe31aa2f8585565ffb625",
    "gen/upper_continuity": "05fcfa2fd31b2238c57b532bdcccd7932940e3f8d12bad7e9ae944a097684144",
    "gen/strong_quotient": "b02816cd5d6cb6e2a9f975a44ad0e65b0aa221c4d6f663bcd3dae274088c566a",
    "gen/subadd_sum": "9e14356caa9c2a3c0b6a35a6b3c5ce3047e4a4cffaaac5845408b9638ae222e3",
    "gen/union_vs_sum": "39c0a0cf945fd962aa8aed78dc27425c997b12fc898019708a97956af4a979b5",
    "gen/invariance": "6ba10d2e29b7d23c2af31667d93da252471fa3f0a1e4ad6e48d015932113933c",
}

UPGRADING_DIGESTS = {
    "cover_log": "f7d761d42b072b08fddcbc155846046141ec69e48d06a85249dee078f88bcaf8",
    "quotient_length[rank]": "06930764ffede8c69f72563751e340f7d949afc38a1f85f73a5418d257cffc6d",
    "quotient_length[nu]": "06930764ffede8c69f72563751e340f7d949afc38a1f85f73a5418d257cffc6d",
}


def _record(records, group, *sets):
    records.append(repr((str(group),) + tuple(sorted(s.items) for s in sets)))


def _digest(records):
    return hashlib.sha256("\n".join(sorted(records)).encode()).hexdigest()


@pytest.mark.parametrize("axiom", AXIOM_NAMES)
@pytest.mark.parametrize("name", SPECS)
def test_axiom_draws_are_pinned(monkeypatch, name, axiom):
    records = []
    original = mwl.weaklength.eval_weak_length

    def recording(spec, ambient, a):
        _record(records, ambient, a)
        return original(spec, ambient, a)

    monkeypatch.setattr(mwl.weaklength, "eval_weak_length", recording)
    check_axiom(SPECS[name], axiom, SEED, AXIOM_BUDGET)
    assert _digest(records) == AXIOM_DIGESTS[f"{name}/{axiom}"]


@pytest.mark.parametrize("spec", [COVER_LOG, BivariantSpec("quotient_length", RANK),
                                  BivariantSpec("quotient_length", NU)], ids=str)
def test_upgrading_draws_are_pinned(monkeypatch, spec):
    records = []
    original = mwl.bivariant.bivariant_eval

    def recording(spec, g, a, b, *args, **kwargs):
        _record(records, g, a, b)
        return original(spec, g, a, b, *args, **kwargs)

    monkeypatch.setattr(mwl.bivariant, "bivariant_eval", recording)
    check_upgrading_proper(spec, SEED, UPGRADING_BUDGET)
    assert _digest(records) == UPGRADING_DIGESTS[str(spec)]
