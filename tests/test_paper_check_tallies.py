"""`paper-check` at its defaults: the exact case count of every suite.

Every suite is exhaustive, so each count is a property of the code, not of
a seed: a change that makes a suite skip, repeat or lose cases shows here
even when no case fails.
"""

from laxtop.harness import HarnessConfig, paper_check

PASSED = {
    "allw-join-coherence": 28541,
    "continuity-open-preimage": 1368,
    "effective-implies-descent": 19702,
    "expo-join-vs-lan": 89,
    "exponential-underlying": 324,
    "fam-descent-pullback-stability": 1132,
    "fam-effective-crosscheck": 180,
    "fam-pullback-preservation": 861,
    "finite-sober": 24,
    "heyting-adjunction": 460,
    "lan-minimality": 720,
    "lan-order-formula": 5378,
    "lattice-equivalences": 14,
    "lax-sum-extensivity": 324,
    "lower-adjoint-continuity": 19,
    "lower-lattice-meets": 5,
    "poset-count-calibration": 12,
    "product-sum-distributivity": 1458,
    "product-sum-universality": 296,
    "pullback-meet-identity": 266,
    "sierpinski-effective": 7556,
    "space-order-roundtrip": 53,
    "t0-reflection": 53,
    "three-topologies": 24,
    "vietoris-algebra-equivalence": 24,
    "vietoris-free-algebra": 8,
    "vietoris-lower-topology": 8,
}


def test_every_suite_passes_its_exact_count_at_the_defaults():
    report = paper_check(HarnessConfig())
    assert {s.name: (s.passed, s.failed) for s in report.suites} == {
        name: (passed, 0) for name, passed in PASSED.items()
    }
    assert report.ok
