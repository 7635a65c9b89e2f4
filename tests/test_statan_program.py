"""Whole-program statan passes: seed provenance, races, RES003.

Covers the ISSUE 7 acceptance fixtures — an unthreaded RNG two call
levels below the function that holds the experiment's generator
(SEED002), a read-yield-write hazard in a process generator (RACE001) —
and the negative shapes the passes must NOT flag: Resource-guarded
sections, properly threaded ``default_rng([seed, tag])`` helpers,
atomic aug-assigns after a yield, and snapshot iteration.
"""

import ast
import textwrap

import pytest

from repro.statan import check_paths
from repro.statan.callgraph import (
    CallGraph,
    build_modules,
    module_name_for_path,
)
from repro.statan.dataflow import summarize
from repro.statan.program import PROGRAM_RULES, check_program


def run(source: str, path: str = "pkg/mod.py"):
    source = textwrap.dedent(source)
    return check_program([(path, source, ast.parse(source))])


def codes(findings):
    return [finding.code for finding in findings]


# -- project index / call graph -------------------------------------------

class TestCallGraph:
    def test_module_name_strips_src_prefix(self):
        assert module_name_for_path(
            "src/repro/sim/core.py") == "repro.sim.core"
        assert module_name_for_path(
            "/abs/checkout/src/repro/__init__.py") == "repro"
        assert module_name_for_path("tools/gen.py") == "tools.gen"

    def test_resolves_calls_across_modules(self):
        lib = textwrap.dedent("""
            def helper(x):
                return x + 1
        """)
        app = textwrap.dedent("""
            from pkg.lib import helper

            def entry(n):
                return helper(n)
        """)
        modules = build_modules([
            ("src/pkg/lib.py", lib, ast.parse(lib)),
            ("src/pkg/app.py", app, ast.parse(app)),
        ])
        graph = CallGraph(modules)
        assert "pkg.lib::helper" in graph.callees_of("pkg.app::entry")
        assert "pkg.app::entry" in graph.callers_of("pkg.lib::helper")

    def test_self_method_resolution_walks_bases(self):
        source = textwrap.dedent("""
            class Base:
                def shared(self):
                    return 1

            class Child(Base):
                def go(self):
                    return self.shared()
        """)
        graph = CallGraph(build_modules(
            [("src/pkg/m.py", source, ast.parse(source))]))
        assert "pkg.m::Base.shared" in graph.callees_of("pkg.m::Child.go")

    def test_reachability_chain(self):
        source = textwrap.dedent("""
            def a(rng):
                return b()

            def b():
                return c()

            def c():
                return 1
        """)
        graph = CallGraph(build_modules(
            [("src/pkg/m.py", source, ast.parse(source))]))
        parents = graph.reachable_from(["pkg.m::a"])
        assert parents["pkg.m::c"] == "pkg.m::b"
        assert graph.chain(parents, "pkg.m::c") == [
            "pkg.m::a", "pkg.m::b", "pkg.m::c"]


# -- summaries -------------------------------------------------------------

class TestSummaries:
    def _summary(self, source, name=None):
        tree = ast.parse(textwrap.dedent(source))
        funcs = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)]
        if name is not None:
            funcs = [f for f in funcs if f.name == name]
        return summarize(funcs[0])

    def test_rng_param_detected(self):
        assert self._summary("def f(env, rng): pass").rng_available()
        assert self._summary("def f(env, seed): pass").rng_available()
        assert not self._summary("def f(env): pass").rng_available()

    def test_returns_rng_from_params(self):
        summary = self._summary("""
            import numpy as np
            def tagged_rng(seed, tag):
                return np.random.default_rng([seed, tag])
        """)
        assert summary.returns_rng_from == {"seed", "tag"}

    def test_param_writes_and_ret_reads(self):
        summary = self._summary("""
            class T:
                def _set(self, n):
                    self.pending = n
        """)
        assert summary.param_writes == {"n": {("self", "pending")}}
        summary = self._summary("""
            class T:
                def _get(self):
                    return len(self.queue)
        """)
        assert ("self", "queue") in summary.ret_reads

    def test_returns_acquired_direct_and_wrapped(self):
        direct = self._summary("""
            class M:
                def grab(self):
                    return self.pool.acquire()
        """)
        assert direct.returns_acquired
        wrapped = self._summary("""
            class M:
                def grab(self):
                    slot = self.pool.acquire()
                    return Endpoint(self, slot)
        """)
        assert wrapped.returns_acquired
        plain = self._summary("""
            class M:
                def grab(self):
                    return self.size
        """)
        assert not plain.returns_acquired


# -- seed provenance -------------------------------------------------------

class TestSeedProvenance:
    def test_seed002_two_call_levels_deep(self):
        findings = run("""
            import numpy as np

            def top(env, rng):
                return mid(env)

            def mid(env):
                return leaf(env)

            def leaf(env):
                gen = np.random.default_rng(1234)
                return gen
        """)
        assert codes(findings) == ["SEED002"]
        (finding,) = findings
        assert "top -> mid -> leaf" in finding.message

    def test_fallback_shape_with_rng_param_is_exempt(self):
        findings = run("""
            import numpy as np

            def build(env, rng=None):
                if rng is None:
                    rng = np.random.default_rng(7)
                return rng
        """)
        assert codes(findings) == []

    def test_threaded_tagged_rng_helper_not_flagged(self):
        findings = run("""
            import numpy as np

            def tagged_rng(seed, tag):
                return np.random.default_rng([seed, tag])

            def top(env, rng):
                return mid(env, 7)

            def mid(env, seed):
                return use(env, seed)

            def use(env, seed):
                return tagged_rng(seed, 3)
        """)
        assert codes(findings) == []

    def test_constant_seeded_helper_call_flagged(self):
        findings = run("""
            import numpy as np

            def tagged_rng(seed, tag):
                return np.random.default_rng([seed, tag])

            def top(env, rng):
                return mid(env)

            def mid(env):
                return tagged_rng(1234, 3)
        """)
        assert "SEED002" in codes(findings)

    def test_unreachable_constant_rng_not_seed002(self):
        # Nothing above it ever held a generator: nothing to thread.
        findings = run("""
            import numpy as np

            def standalone(env):
                return np.random.default_rng(99)
        """)
        assert codes(findings) == []

    def test_seed003_flags_every_site_sharing_a_constant(self):
        findings = run("""
            import numpy as np

            SHARED = 7

            def a(env, rng=None):
                return rng or np.random.default_rng(SHARED)

            def b(env, rng=None):
                return rng or np.random.default_rng(7)
        """)
        assert codes(findings) == ["SEED003", "SEED003"]
        for finding in findings:
            assert "constant seed 7" in finding.message

    def test_distinct_constants_are_fine(self):
        findings = run("""
            import numpy as np

            def a(env, rng=None):
                return rng or np.random.default_rng(1)

            def b(env, rng=None):
                return rng or np.random.default_rng(2)
        """)
        assert codes(findings) == []

    def test_derived_seed_is_clean(self):
        findings = run("""
            import numpy as np

            def spawn(env, rng):
                return np.random.default_rng(rng.integers(2 ** 63))
        """)
        assert codes(findings) == []


# -- yield atomicity -------------------------------------------------------

class TestYieldAtomicity:
    def test_race001_read_yield_write(self):
        findings = run("""
            class Tier:
                def work(self, env):
                    count = self.pending
                    yield env.timeout(1.0)
                    self.pending = count + 1
        """)
        assert codes(findings) == ["RACE001"]
        assert "self.pending" in findings[0].message

    def test_race001_through_helper_summaries(self):
        findings = run("""
            class Tier:
                def _get(self):
                    return self.pending

                def _set(self, n):
                    self.pending = n

                def work(self, env):
                    n = self._get()
                    yield env.timeout(1.0)
                    self._set(n + 1)
        """)
        assert codes(findings) == ["RACE001"]

    def test_no_yield_between_is_clean(self):
        findings = run("""
            class Tier:
                def work(self, env):
                    count = self.pending
                    self.pending = count + 1
                    yield env.timeout(1.0)
        """)
        assert codes(findings) == []

    def test_resource_guard_exempts_region(self):
        findings = run("""
            class Tier:
                def work(self, env):
                    with self.pool.request() as req:
                        yield req
                        count = self.pending
                        yield env.timeout(1.0)
                        self.pending = count + 1
        """)
        assert codes(findings) == []

    def test_aug_assign_after_yield_is_atomic(self):
        findings = run("""
            class Prober:
                def loop(self, env):
                    while True:
                        yield env.timeout(1.0)
                        self.probes_sent += 1
        """)
        assert codes(findings) == []

    def test_race002_check_then_act(self):
        findings = run("""
            class LB:
                def dispatch(self, env, member):
                    if member.healthy:
                        yield env.timeout(0.5)
                        member.healthy = False
        """)
        assert codes(findings) == ["RACE002"]
        assert "member.healthy" in findings[0].message

    def test_race002_recheck_after_yield_is_clean(self):
        findings = run("""
            class LB:
                def dispatch(self, env, member):
                    if member.healthy:
                        yield env.timeout(0.5)
                        if member.healthy:
                            member.healthy = False
        """)
        assert codes(findings) == []

    def test_race003_yield_inside_shared_iteration(self):
        findings = run("""
            class LB:
                def drain(self, env):
                    for item in self.queue:
                        yield env.timeout(item)
        """)
        assert codes(findings) == ["RACE003"]

    def test_race003_snapshot_iteration_is_clean(self):
        findings = run("""
            class LB:
                def drain(self, env):
                    for item in list(self.queue):
                        yield env.timeout(item)
        """)
        assert codes(findings) == []

    def test_non_process_generators_are_skipped(self):
        # A plain data generator (no eventish yields, no docstring
        # marker) is not a sim process; no preemption happens inside.
        findings = run("""
            class Table:
                def rows(self):
                    snapshot = self.count
                    yield snapshot
                    self.count = snapshot + 1
        """)
        assert codes(findings) == []


# -- resource escape -------------------------------------------------------

_ESCAPE_PRELUDE = """
    class Member:
        def try_acquire(self):
            slot = self.pool.acquire()
            return Endpoint(self, slot)

    class Endpoint:
        def __init__(self, member, slot):
            self.member = member
            self.slot = slot

        def release(self):
            self.member.pool.release()
"""


def run_escape(snippet: str):
    # Dedent each piece separately: concatenating literals with
    # different indent levels would defeat a single dedent pass.
    return run(textwrap.dedent(_ESCAPE_PRELUDE)
               + textwrap.dedent(snippet))


class TestResourceEscape:
    def test_res003_leaked_handle(self):
        findings = run_escape("""
            class LB:
                def send(self, env, member):
                    endpoint = member.try_acquire()
                    yield env.timeout(1.0)
        """)
        assert codes(findings) == ["RES003"]
        assert "endpoint" in findings[0].message

    def test_res003_discarded_result(self):
        findings = run_escape("""
            class LB:
                def poke(self, env, member):
                    member.try_acquire()
                    yield env.timeout(1.0)
        """)
        assert codes(findings) == ["RES003"]
        assert "discarded" in findings[0].message

    def test_released_handle_is_clean(self):
        findings = run_escape("""
            class LB:
                def send(self, env, member):
                    endpoint = member.try_acquire()
                    yield env.timeout(1.0)
                    endpoint.release()
        """)
        assert codes(findings) == []

    def test_handle_passed_on_is_clean(self):
        findings = run_escape("""
            class LB:
                def send(self, env, member):
                    endpoint = member.try_acquire()
                    yield from self._ship(endpoint)

                def _ship(self, endpoint):
                    yield endpoint.member
        """)
        assert codes(findings) == []

    def test_handle_returned_is_clean(self):
        findings = run_escape("""
            class LB:
                def grab_endpoint(self, member):
                    endpoint = member.try_acquire()
                    return endpoint
        """)
        assert codes(findings) == []

    def test_attribute_type_picks_the_constructed_class(self):
        # ``self.user`` is built as a Tracker, so neither ``.acquire``
        # on it nor on a local bound to it can reach the slot-returning
        # Bulkhead.acquire of the same name; ``self.gate`` really is a
        # Bulkhead, and discarding its slot still fires.
        findings = run("""
            class Bulkhead:
                def acquire(self, request):
                    slot = self.pool.request()
                    return slot

            class Tracker:
                def acquire(self, now):
                    self.busy += 1

            class Cpu:
                def __init__(self):
                    self.user = Tracker()
                    self.gate = Bulkhead()

                def execute(self, env):
                    user = self.user
                    user.acquire(env.now)
                    self.user.acquire(env.now)
                    yield env.timeout(1.0)

                def admit(self, env, request):
                    self.gate.acquire(request)
                    yield env.timeout(1.0)
        """)
        assert codes(findings) == ["RES003"]
        assert "Bulkhead.acquire" in findings[0].message
        assert findings[0].line == 23  # self.gate.acquire(request)

    def test_untyped_receiver_falls_back_to_name_union(self):
        # ``self.user`` is reassigned from a parameter in a subclass, so
        # its type is unknown and every same-named method stays a target.
        source = textwrap.dedent("""
            class Bulkhead:
                def acquire(self, request):
                    return self.pool.request()

            class Tracker:
                def acquire(self, now):
                    self.busy += 1

            class Cpu:
                def __init__(self):
                    self.user = Tracker()

                def execute(self, now):
                    user = self.user
                    user.acquire(now)

            class InjectedCpu(Cpu):
                def __init__(self, user):
                    self.user = user
        """)
        graph = CallGraph(build_modules(
            [("src/pkg/m.py", source, ast.parse(source))]))
        assert graph.callees_of("pkg.m::Cpu.execute") == {
            "pkg.m::Bulkhead.acquire", "pkg.m::Tracker.acquire"}

    def test_yield_from_binding_counts_as_bound(self):
        findings = run_escape("""
            class Mech:
                def get_endpoint(self, member):
                    endpoint = member.try_acquire()
                    return endpoint
                    yield

            class LB:
                def send(self, env, member):
                    endpoint = yield from self.mech.get_endpoint(member)
                    yield env.timeout(1.0)
                    endpoint.release()
        """)
        assert codes(findings) == []


# -- engine integration ----------------------------------------------------

class TestEngineIntegration:
    def test_check_paths_runs_program_passes(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text(textwrap.dedent("""
            class Tier:
                def work(self, env):
                    count = self.pending
                    yield env.timeout(1.0)
                    self.pending = count + 1
        """))
        result = check_paths([str(module)])
        assert "RACE001" in [f.code for f in result.findings]

    def test_no_program_opt_out(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text(textwrap.dedent("""
            class Tier:
                def work(self, env):
                    count = self.pending
                    yield env.timeout(1.0)
                    self.pending = count + 1
        """))
        result = check_paths([str(module)], program_rules=None)
        assert [f.code for f in result.findings] == []

    def test_suppression_comment_silences_program_finding(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text(textwrap.dedent("""
            class Tier:
                def work(self, env):
                    count = self.pending
                    yield env.timeout(1.0)
                    self.pending = count + 1  # statan: ignore[RACE001]
        """))
        result = check_paths([str(module)])
        assert [f.code for f in result.findings] == []
        assert result.suppressed == 1

    def test_select_program_rule_by_family_and_code(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text(textwrap.dedent("""
            import time

            class Tier:
                def work(self, env):
                    t = time.time()
                    count = self.pending
                    yield env.timeout(1.0)
                    self.pending = count + 1
        """))
        only_races = check_paths(
            [str(module)], select=["yield-atomicity"])
        assert {f.code for f in only_races.findings} == {"RACE001"}
        only_race001 = check_paths([str(module)], select=["RACE001"])
        assert {f.code for f in only_race001.findings} == {"RACE001"}
        without = check_paths([str(module)], ignore=["RACE001"])
        assert "RACE001" not in {f.code for f in without.findings}
        assert "DET001" in {f.code for f in without.findings}

    def test_program_rules_have_ids_and_codes(self):
        assert [rule.id for rule in PROGRAM_RULES] == [
            "seed-provenance", "yield-atomicity", "resource-escape"]
        all_codes = [code for rule in PROGRAM_RULES
                     for code in rule.codes]
        assert all_codes == [
            "SEED002", "SEED003", "RACE001", "RACE002", "RACE003",
            "RES003"]
        for rule in PROGRAM_RULES:
            assert rule.description


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
