import pytest

from repro.serving.policies import (
    POLICY_NAMES,
    DeadlineAware,
    DropLate,
    NoShed,
    ShedPolicy,
    make_policy,
)


class TestMakePolicy:
    def test_builtin_names(self):
        for name in POLICY_NAMES:
            policy = make_policy(name)
            assert isinstance(policy, ShedPolicy)
            assert policy.name == name

    def test_none_means_no_shedding(self):
        assert isinstance(make_policy(None), NoShed)

    def test_instance_passthrough(self):
        policy = DeadlineAware(slack=1.5)
        assert make_policy(policy) is policy

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_policy("random")


class TestNoShed:
    def test_admits_everything(self):
        policy = NoShed()
        assert policy.admit(wait_s=10.0, service_s=10.0, sla_s=0.001)


class TestDropLate:
    def test_admits_within_wait_budget(self):
        policy = DropLate()
        assert policy.admit(wait_s=0.009, service_s=0.5, sla_s=0.010)
        assert policy.admit(wait_s=0.010, service_s=0.5, sla_s=0.010)

    def test_sheds_when_wait_alone_exceeds_sla(self):
        assert not DropLate().admit(wait_s=0.011, service_s=0.0, sla_s=0.010)

    def test_ignores_service_time(self):
        """drop-late is the seed semantics: only queue wait matters."""
        assert DropLate().admit(wait_s=0.0, service_s=99.0, sla_s=0.010)


class TestDeadlineAware:
    def test_sheds_projected_misses(self):
        policy = DeadlineAware()
        assert policy.admit(wait_s=0.004, service_s=0.005, sla_s=0.010)
        assert not policy.admit(wait_s=0.004, service_s=0.007, sla_s=0.010)

    def test_sheds_slow_service_even_with_no_wait(self):
        """Stricter than drop-late: a query that would start instantly but
        finish late is refused."""
        assert not DeadlineAware().admit(wait_s=0.0, service_s=0.02, sla_s=0.010)

    def test_slack_loosens_the_deadline(self):
        loose = DeadlineAware(slack=2.0)
        assert loose.admit(wait_s=0.004, service_s=0.014, sla_s=0.010)

    def test_rejects_non_positive_slack(self):
        for slack in (0.0, float("nan")):
            with pytest.raises(ValueError):
                DeadlineAware(slack=slack)
