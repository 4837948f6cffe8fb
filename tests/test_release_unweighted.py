import importlib
import inspect
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import privcc.graphs as graphs_module
from privcc import (
    Clustering,
    ContractViolation,
    PrivacyParams,
    SignedGraph,
    WeightedChannel,
    disagreement,
    neighbor_distance,
)
from privcc._rng import make_rng
from privcc.experiments import InstanceSpec, generate_instance
from privcc.graphs import _AUDIT_BLOCK, CutFamily, CutRows
from privcc.release_unweighted import (
    _PATIENCE,
    _RESYNC,
    MergeConfig,
    _loosen,
    _max_violation,
    _shared_pairs,
    laplace_release,
    release_unweighted,
    round_to_signed,
    solve_merge_lp,
)

import dp_harness
from helpers import cut_sizes, family_rows, packed_family_reference, random_graph

# the package's ``release_unweighted`` attribute is the function
release_unweighted_module = importlib.import_module("privcc.release_unweighted")


def indicator_channels(graph):
    return (
        WeightedChannel(graph.n, graph.channel_flat(1)),
        WeightedChannel(graph.n, graph.channel_flat(-1)),
    )


class TestLaplace:
    def test_unbiased_single_edge(self):
        rng = make_rng(51)
        b = 2.0
        ch = WeightedChannel(2, np.array([1.0]))
        draws = np.array(
            [laplace_release(ch, b, rng).values[0] for _ in range(20000)]
        )
        assert abs(draws.mean() - 1.0) <= 4 * b / math.sqrt(20000)

    def test_variance_matches_formula(self):
        rng = make_rng(52)
        b = 1.5
        ch = WeightedChannel(2, np.array([0.0]))
        draws = np.array(
            [laplace_release(ch, b, rng).values[0] for _ in range(20000)]
        )
        assert draws.var() == pytest.approx(2 * b * b, rel=0.10)

    def test_zero_scale_is_deterministic_mode(self):
        rng = make_rng(53)
        g = random_graph(rng, 6, complete=True)
        ch, _ = indicator_channels(g)
        out = laplace_release(ch, 0.0, rng)
        assert np.array_equal(out.values, ch.values)

    def test_rejects_bad_inputs(self):
        rng = make_rng(54)
        with pytest.raises(ContractViolation):
            laplace_release(WeightedChannel(2, np.array([1.0])), -1.0, rng)

    def test_every_pair_noised(self):
        rng = make_rng(55)
        g = random_graph(rng, 10, complete=True)
        ch, _ = indicator_channels(g)
        out = laplace_release(ch, 2.0, rng)
        assert out.values.size == 45
        assert np.all(out.values != ch.values)  # a.s. for continuous noise

    def test_unbiased_over_pair_sets(self):
        rng = make_rng(56)
        g = random_graph(rng, 10, complete=True)
        ch, _ = indicator_channels(g)
        b, releases = 2.0, 2000
        acc = np.zeros(45)
        for _ in range(releases):
            acc += laplace_release(ch, b, rng).values
        means = acc / releases
        for _ in range(30):
            f = rng.random(45) < 0.5
            se = b * math.sqrt(2 * f.sum()) / math.sqrt(releases)
            assert abs(means[f].sum() - ch.values[f].sum()) <= 5 * se


def dense_gradient_merge(wplus, wminus, budget, rng, iterations):
    """The sampled-LP training loop with the dense float cut gradient.

    Reference for the solver's masked cut step: the gradient
    ``s t' + t s' - r r'`` (diagonal zeroed) has entries 0 or 1, so both
    steps give the same x bit for bit.  Returns (flat best x, iterations).
    """
    n = wplus.n
    wp, wm = wplus.values, wminus.values
    wp_mat, wm_mat = wplus.matrix(), wminus.matrix()
    iu, iv = np.triu_indices(n, 1)
    x_mat = np.clip((wp_mat + 1.0 - wm_mat) / 2.0, 0.0, 1.0)
    np.fill_diagonal(x_mat, 0.0)
    s_rows, t_rows = CutFamily(n, budget, rng).masks()
    rows, sizes = CutRows(s_rows, t_rows), cut_sizes(s_rows, t_rows)
    tp, tm = rows.sums(wp_mat), rows.sums(wm_mat)
    best_lam, best_x, stale, run = np.inf, x_mat.copy(), 0, 0
    for t in range(1, iterations + 1):
        xp, cs = x_mat[iu, iv], rows.sums(x_mat)
        lam, kind, idx, signed = _max_violation(
            xp - wp, (1.0 - xp) - wm, cs - tp, (sizes - cs) - tm
        )
        if not np.isfinite(best_lam) or lam < best_lam - 1e-6 * max(best_lam, 1.0):
            best_lam, best_x, stale = lam, x_mat.copy(), 0
        else:
            stale += 1
            if stale >= _PATIENCE:
                break
        run = t
        step = t ** -0.5
        if kind.startswith("pair"):
            u, v = int(iu[idx]), int(iv[idx])
            x_mat[u, v] -= step * (signed if kind == "pair+" else -signed)
            x_mat[v, u] = x_mat[u, v]
        else:
            s = s_rows[idx].astype(np.float64)
            tt = t_rows[idx].astype(np.float64)
            r = (s_rows[idx] & t_rows[idx]).astype(np.float64)
            grad = np.outer(s, tt)
            grad = grad + grad.T - np.outer(r, r)
            np.fill_diagonal(grad, 0.0)
            delta = signed if kind == "cut+" else -signed
            x_mat -= (step * delta / max(sizes[idx], 1.0)) * grad
        np.clip(x_mat, 0.0, 1.0, out=x_mat)
        np.fill_diagonal(x_mat, 0.0)
    return best_x[iu, iv], run


class TestMerge:
    def test_cut_step_matches_dense_gradient_reference(self):
        rng = make_rng(61)
        for n in (5, 12, 30):
            g = random_graph(rng, n, complete=True)
            wp, wm = indicator_channels(g)
            noisy_p = laplace_release(wp, 2.0, rng)
            noisy_m = laplace_release(wm, 2.0, rng)
            for budget in (3, None):
                sol = solve_merge_lp(noisy_p, noisy_m, budget, make_rng(n), iterations=120)
                want_x, want_run = dense_gradient_merge(
                    noisy_p, noisy_m, budget or 4 * n, make_rng(n), 120
                )
                np.testing.assert_allclose(sol.x, want_x, rtol=0, atol=1e-12)
                assert sol.iterations_run == want_run

    @staticmethod
    def spied_merge(monkeypatch, noisy_p, noisy_m, budget, seed, iterations, paths=None):
        """``solve_merge_lp`` and the reference, with the solver's paths logged.

        Returns one ``[kind, row, recomputed]`` entry per step taken
        (``recomputed``: every cut sum was summed again after the step),
        the ``(step, row)`` of every ``_shared_pairs`` call, and the
        solution, after checking it against ``dense_gradient_merge``.  A
        ``paths`` dict also gets the steps the clamp cut short
        (``"clipped"``) and the ``(step, rows)`` of each re-sum of a row
        subset after a step (``"partial"``), told from a whole re-sum by
        its row count.
        """
        steps, asked = [], []
        paths = {} if paths is None else paths
        paths["clipped"], paths["partial"] = [], []
        pick, shared, loosen = release_unweighted_module._max_violation, _shared_pairs, _loosen

        def spy_pick(*args):
            out = pick(*args)
            steps.append([out[1], out[2], False])
            return out

        def spy_shared(rows, i):
            asked.append((len(steps), i))
            return shared(rows, i)

        def spy_loosen(*args):
            paths["clipped"].append(len(steps))
            return loosen(*args)

        whole = 2 * (budget or 4 * noisy_p.n)

        class SpiedRows(CutRows):
            def sums(self, matrix):
                count = self.s.shape[0]
                # the sums taken before the first step are no recompute
                if steps and count == whole:
                    steps[-1][2] = True
                elif steps:
                    paths["partial"].append((len(steps), count))
                return super().sums(matrix)

        monkeypatch.setattr(release_unweighted_module, "_max_violation", spy_pick)
        monkeypatch.setattr(release_unweighted_module, "_shared_pairs", spy_shared)
        monkeypatch.setattr(release_unweighted_module, "_loosen", spy_loosen)
        monkeypatch.setattr(release_unweighted_module, "CutRows", SpiedRows)
        sol = solve_merge_lp(noisy_p, noisy_m, budget, make_rng(seed), iterations=iterations)
        monkeypatch.undo()
        want_x, want_run = dense_gradient_merge(
            noisy_p, noisy_m, budget or 4 * noisy_p.n, make_rng(seed), iterations
        )
        np.testing.assert_allclose(sol.x, want_x, rtol=0, atol=1e-12)
        assert sol.iterations_run == want_run
        return steps[: sol.iterations_run], asked, sol

    @staticmethod
    def cut_step_paths(steps):
        """Counts of incremental and of clipped cut steps, off the resync schedule."""
        off = [
            full for t, (kind, _, full) in enumerate(steps, 1) if kind.startswith("cut") and t % _RESYNC
        ]
        return off.count(False), off.count(True)

    @staticmethod
    def noisy_channels(seed, n):
        rng = make_rng(seed)
        wp, wm = indicator_channels(random_graph(rng, n, complete=True))
        return laplace_release(wp, 2.0, rng), laplace_release(wm, 2.0, rng)

    @staticmethod
    def planted_channels(n):
        graph, _ = generate_instance(
            InstanceSpec(kind="planted", n=n, clusters=4, flip_prob=0.05, seed=1)
        )
        rng = make_rng(1)
        return tuple(laplace_release(ch, 2.0, rng) for ch in indicator_channels(graph))

    def test_clipped_cut_steps_match_reference(self, monkeypatch):
        # noisy per-edge starts sit on the box bounds, so cut steps clip; a
        # clipped step keeps the unclipped update, and the next step re-sums
        # only the rows that can still hold the largest violation
        paths = {}
        steps, _, _ = self.spied_merge(
            monkeypatch, *self.noisy_channels(62, 30), None, 30, 120, paths=paths
        )
        cut_steps = {t for t, (kind, _, _) in enumerate(steps, 1) if kind.startswith("cut")}
        clipped = {t for t in paths["clipped"] if t % _RESYNC}
        assert clipped and cut_steps - clipped  # both the clipped and the unclipped path ran
        assert clipped <= cut_steps
        # most clipped steps are followed by no full re-sum, a few re-sums of a subset
        assert sum(not steps[t - 1][2] for t in clipped) > len(clipped) // 2
        partial = paths["partial"]
        assert partial and all(0 < k <= 8 * 30 // 4 for _, k in partial)

    def test_pair_steps_match_reference(self, monkeypatch):
        pair_steps = 0
        for n in (3, 4, 5):
            for budget in (1, 2, 3):
                steps, _, _ = self.spied_merge(
                    monkeypatch, *self.noisy_channels(63 + n, n), budget, n, 80
                )
                pair_steps += sum(kind.startswith("pair") for kind, _, _ in steps)
        assert pair_steps > 0

    def test_long_run_matches_reference(self, monkeypatch):
        # incremental updates run across several periodic exact recomputations
        steps, _, sol = self.spied_merge(monkeypatch, *self.noisy_channels(64, 30), None, 30, 400)
        assert sol.iterations_run > 3 * _RESYNC
        assert self.cut_step_paths(steps)[0] > _RESYNC

    def test_repeated_cut_row_matches_reference(self, monkeypatch):
        # on a noisy planted instance the loop steps one cut over and over,
        # reusing that row's pair indices and shared-pair counts
        noisy_p, noisy_m = self.planted_channels(48)
        steps, asked, _ = self.spied_merge(monkeypatch, noisy_p, noisy_m, None, 1, 300)
        cut_rows = [row for kind, row, _ in steps if kind.startswith("cut")]
        row, count = Counter(cut_rows).most_common(1)[0]
        incremental = sum(r == row and not full for _, r, full in steps)
        assert count > 200 and incremental > 200
        # its counts are summed once per run of steps on it, not once per step
        runs = sum(r == row and (i == 0 or cut_rows[i - 1] != row) for i, r in enumerate(cut_rows))
        assert 0 < sum(r == row for _, r in asked) <= runs < incremental // 10

    def test_shared_pairs_follow_the_row_asked(self, monkeypatch):
        # the loop asks for counts on the row it steps, once per run of cut
        # steps on that row, clipped or not, and asks again after another row
        # was stepped; stale counts from the previous row would move x off
        # the reference
        paths = {}
        steps, asked, _ = self.spied_merge(
            monkeypatch, *self.noisy_channels(64, 30), None, 30, 400, paths=paths
        )
        assert len({row for _, row in asked}) > 1
        cut_steps = [(t, row) for t, (kind, row, _) in enumerate(steps, 1) if kind.startswith("cut")]
        runs = [(t, row) for i, (t, row) in enumerate(cut_steps) if i == 0 or cut_steps[i - 1][1] != row]
        assert asked == runs
        # a clipped step's update needs the counts too
        assert {t for t, _ in asked} & set(paths["clipped"])

    @pytest.mark.parametrize("instance", ["noisy n=30", "planted n=48"])
    def test_rows_left_unsummed_stay_inside_their_bounds(self, monkeypatch, instance):
        # every row is summed again before every pick: the row stepped holds
        # the largest true violation, and a row the loop did not re-sum has
        # its true sum inside the bounds the clipped steps left on it
        if instance == "noisy n=30":
            (noisy_p, noisy_m), seed, iterations = self.noisy_channels(62, 30), 30, 120
        else:
            (noisy_p, noisy_m), seed, iterations = self.planted_channels(48), 1, 300
        n = noisy_p.n
        wp, wm = noisy_p.values, noisy_m.values
        s_rows, t_rows = CutFamily(n, 4 * n, make_rng(seed)).masks()
        family, sizes = CutRows(s_rows, t_rows), cut_sizes(s_rows, t_rows)
        tp, tm = family.sums(noisy_p.matrix()), family.sums(noisy_m.matrix())
        pick, open_rows = release_unweighted_module._max_violation, release_unweighted_module._open_rows
        opened, seen = [], Counter()

        def spy_open(cs, above, below, *rest):
            out = open_rows(cs, above, below, *rest)
            opened.append((above.copy(), below.copy(), out))
            return out

        def spy_pick(pair_plus, pair_minus, cut_plus, cut_minus):
            out = pick(pair_plus, pair_minus, cut_plus, cut_minus)
            x = pair_plus + wp  # the cap below makes the loop pass its pair residuals
            true = family.sums(WeightedChannel(n, x).matrix())
            residuals = {
                "pair+": x - wp,
                "pair-": (1.0 - x) - wm,
                "cut+": true - tp,
                "cut-": (sizes - true) - tm,
            }
            top = max(np.abs(r).max() for r in residuals.values())
            _, kind, idx, _ = out
            assert abs(residuals[kind][idx]) >= top * (1.0 - 1e-9)
            above = below = np.zeros(true.size)
            if opened:  # the bounds left after this step's re-sum
                above, below, tight = opened.pop()
                if tight.size > true.size / 4:
                    above[:] = below[:] = 0.0
                above[tight] = below[tight] = 0.0
                seen["loose"] += int(((above > 0) | (below > 0)).sum())
            cs, tol = cut_plus + tp, 1e-9 * max(np.abs(true).max(), 1.0)
            assert np.all(true >= cs - below - tol) and np.all(true <= cs + above + tol)
            seen["picks"] += 1
            return out

        want = solve_merge_lp(noisy_p, noisy_m, None, make_rng(seed), iterations=iterations)
        monkeypatch.setattr(release_unweighted_module, "_open_rows", spy_open)
        monkeypatch.setattr(release_unweighted_module, "_max_violation", spy_pick)
        monkeypatch.setattr(release_unweighted_module, "_pair_cap", lambda wp, wm: np.inf)
        got = solve_merge_lp(noisy_p, noisy_m, None, make_rng(seed), iterations=iterations)
        monkeypatch.undo()
        assert seen["picks"] >= got.iterations_run and seen["loose"] > 0
        # skipping the pair residuals when no pair can win changes nothing
        assert got.x.tobytes() == want.x.tobytes()
        assert (got.lam, got.iterations_run) == (want.lam, want.iterations_run)

    def test_loop_stops_at_its_last_pick(self, monkeypatch):
        # no pick scores a step past the last one, so the loop takes none:
        # after the last pick every cut sum is the audit's.  300 iterations
        # end on the resync schedule, where a last step would re-sum the family
        noisy_p, noisy_m = self.planted_channels(48)
        events = []
        pick, sums, deviation = (release_unweighted_module._max_violation,
                                 CutRows.sums, CutFamily.deviation)

        def spy_pick(*args):
            events.append("pick")
            return pick(*args)

        def spy_sums(self, matrix):
            events.append("sums")
            return sums(self, matrix)

        def spy_deviation(self, *args, **kwargs):
            events.append("audit")
            out = deviation(self, *args, **kwargs)
            events.append("audited")
            return out

        monkeypatch.setattr(release_unweighted_module, "_max_violation", spy_pick)
        monkeypatch.setattr(CutRows, "sums", spy_sums)
        monkeypatch.setattr(CutFamily, "deviation", spy_deviation)
        sol = solve_merge_lp(noisy_p, noisy_m, None, make_rng(1), iterations=300)
        assert (sol.iterations_run, sol.stop) == (300, "budget") and 300 % _RESYNC == 0
        after = events[len(events) - events[::-1].index("pick"):]
        assert after[0] == "audit" and after[-1] == "audited"
        inside = 0
        for event in after:
            inside += {"audit": 1, "audited": -1}.get(event, 0)
            assert event != "sums" or inside == 1
        assert after.count("sums") > 0

    def test_shared_pairs_equal_cut_sums_of_pair_mask(self):
        # rows of every kind: overlapping S != T, S == T, disjoint and
        # complement; the count is exact, so equality is exact too
        rng = make_rng(110)
        for trial in range(30):
            n = int(rng.integers(2, 26))
            s_rows, t_rows = [], []
            for _ in range(3):
                s_rows.append(rng.random(n) < 0.5)
                t_rows.append(rng.random(n) < 0.5)
                same = rng.random(n) < 0.5
                s_rows.append(same)
                t_rows.append(same.copy())
                z = rng.integers(0, 3, size=n)
                s_rows.append(z == 1)
                t_rows.append(z == 2)
                s_rows.append(rng.random(n) < 0.5)
                t_rows.append(~s_rows[-1])
            s_rows, t_rows = np.array(s_rows), np.array(t_rows)
            rows = CutRows(s_rows, t_rows)
            pu, pv = np.triu_indices(n, 1)
            for i in range(len(s_rows)):
                s, t = s_rows[i], t_rows[i]
                hit = (s[pu] & t[pv]) | (s[pv] & t[pu])
                mask = WeightedChannel(n, hit.astype(np.float64)).matrix()
                got = _shared_pairs(rows, i)
                assert got.tolist() == rows.sums(mask).tolist()
                assert got[i] == hit.sum()

    def test_best_iteration_and_training_lambda(self):
        noisy_p, noisy_m = self.noisy_channels(64, 30)
        lp = solve_merge_lp(noisy_p, noisy_m, None, make_rng(30), iterations=120)
        assert 0 < lp.best_iteration < lp.iterations_run
        # the same run cut short just after the best iterate returns it
        short = solve_merge_lp(
            noisy_p, noisy_m, None, make_rng(30), iterations=lp.best_iteration + 1
        )
        assert short.x.tobytes() == lp.x.tobytes()
        assert (short.best_iteration, short.training_lambda) == (
            lp.best_iteration, lp.training_lambda
        )
        # the training lambda is the returned x's worst violation on the training rows
        s_rows, t_rows = CutFamily(30, 120, make_rng(30)).masks()
        rows, sizes = CutRows(s_rows, t_rows), cut_sizes(s_rows, t_rows)
        tp, tm = rows.sums(noisy_p.matrix()), rows.sums(noisy_m.matrix())
        cs = rows.sums(WeightedChannel(30, lp.x).matrix())
        lam, _, _, _ = _max_violation(
            lp.x - noisy_p.values, (1.0 - lp.x) - noisy_m.values, cs - tp, (sizes - cs) - tm
        )
        assert lp.training_lambda == pytest.approx(lam, rel=1e-9)
        per_edge = solve_merge_lp(noisy_p, noisy_m, None, make_rng(30), strategy="per-edge")
        assert (per_edge.best_iteration, per_edge.training_lambda) == (0, None)

    def test_per_edge_singleton_solution(self):
        # one pair, W+ = 0.7, W- = 0.3: the midpoint rule gives x = 0.7
        # and both singleton constraints are met exactly
        sol = solve_merge_lp(
            WeightedChannel(2, np.array([0.7])),
            WeightedChannel(2, np.array([0.3])),
            1,
            make_rng(57),
            strategy="per-edge",
        )
        assert sol.strategy == "per-edge"
        assert sol.x[0] == pytest.approx(0.7)
        assert sol.lam == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_refused(self, budget):
        with pytest.raises(ContractViolation):
            MergeConfig(constraint_budget=budget)
        ch = WeightedChannel(3, np.array([0.5, 0.2, 0.9]))
        for strategy in ("sampled-lp", "per-edge"):
            with pytest.raises(ContractViolation):
                solve_merge_lp(ch, ch, budget, make_rng(57), strategy=strategy)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_instances_run_to_budget(self, n):
        # at n = 1 every cut row is empty, so the loop steps a cut of no pairs
        zero = WeightedChannel(n, np.zeros(n * (n - 1) // 2))
        sol = solve_merge_lp(zero, zero, None, make_rng(1), iterations=5)
        assert (sol.iterations_run, sol.stop) == (5, "budget")
        assert np.all(sol.x == 0.5)

    def test_noiseless_channels_zero_residual(self):
        rng = make_rng(58)
        g = random_graph(rng, 12, complete=True)
        wp, wm = indicator_channels(g)
        sol = solve_merge_lp(wp, wm, None, rng)
        assert np.array_equal(sol.x, wp.values)
        assert sol.lam == pytest.approx(0.0, abs=1e-9)

    def test_stop_reasons(self):
        rng = make_rng(58)
        wp, wm = indicator_channels(random_graph(rng, 12, complete=True))
        exact = solve_merge_lp(wp, wm, None, rng)  # the start is never improved on
        assert (exact.stop, exact.iterations_run) == ("patience", _PATIENCE)
        short = solve_merge_lp(wp, wm, None, rng, iterations=5)
        assert (short.stop, short.iterations_run) == ("budget", 5)
        per_edge = solve_merge_lp(wp, wm, None, rng, strategy="per-edge")
        assert (per_edge.stop, per_edge.iterations_run) == ("per-edge", 0)

    def test_x_in_box(self):
        rng = make_rng(59)
        g = random_graph(rng, 15, complete=True)
        wp, wm = indicator_channels(g)
        noisy_p = laplace_release(wp, 2.0, rng)
        noisy_m = laplace_release(wm, 2.0, rng)
        for strategy in ("sampled-lp", "per-edge"):
            sol = solve_merge_lp(noisy_p, noisy_m, 16, rng, strategy=strategy)
            assert np.all(sol.x >= 0.0) and np.all(sol.x <= 1.0)
            assert sol.lam >= 0.0

    def test_sampled_lp_beats_per_edge_audit(self):
        # the clamped midpoint rule carries a per-edge bias that adds up
        # over large cuts; the subgradient phase removes most of it, which
        # shows clearly from n ~ 100 up
        rng = make_rng(60)
        g = random_graph(rng, 100, complete=True)
        wp, wm = indicator_channels(g)
        noisy_p = laplace_release(wp, 2.0, rng)
        noisy_m = laplace_release(wm, 2.0, rng)
        lam_lp = solve_merge_lp(noisy_p, noisy_m, None, make_rng(1)).lam
        lam_pe = solve_merge_lp(
            noisy_p, noisy_m, None, make_rng(1), strategy="per-edge"
        ).lam
        assert lam_lp < 0.8 * lam_pe

    def test_post_processing_isolation_by_signature(self):
        # neither post-processing stage can even accept the private graph
        merge_params = set(inspect.signature(solve_merge_lp).parameters)
        assert merge_params == {
            "wplus", "wminus", "constraint_budget", "rng", "iterations", "strategy",
        }
        round_params = set(inspect.signature(round_to_signed).parameters)
        assert round_params == {"solution", "rng"}


def audit_stream(rng):
    """The stream the merge's audit draws from when ``rng`` is in this state."""
    return np.random.Generator(rng.bit_generator.jumped())


def three_product_lambda(sol, wp, wm, s_rows, t_rows):
    """The audit as one whole family with cut sums of x, W+ and W- taken apart."""
    x, rows = sol.x, CutRows(s_rows, t_rows)
    x_mat = WeightedChannel(wp.n, x).matrix()
    cs, tp, tm = (rows.sums(m) for m in (x_mat, wp.matrix(), wm.matrix()))
    return _max_violation(
        x - wp.values, (1.0 - x) - wm.values, cs - tp, (cut_sizes(s_rows, t_rows) - cs) - tm
    )[0]


def integer_channel(rng, n):
    # integer weights keep every cut sum exact, whatever the BLAS blocking
    return WeightedChannel(n, rng.integers(-3, 4, size=n * (n - 1) // 2).astype(float))


def near_tied_family(n, rng):
    """A ``CutFamily`` whose rows are balanced halves S, cut against S and then V minus S.

    The complement rows all count the same n^2 / 4 pairs.
    """
    budget = 2 * n + 3
    family = CutFamily(n, budget, rng)
    halves = np.packbits(np.argsort(rng.random((2 * budget, n)), axis=1) < n // 2, axis=1)
    family._s, family._t = halves, np.concatenate([halves[:budget], ~halves[budget:]])
    return family


def near_tied_residual(n, rng):
    """1 plus offsets of 1e-7 * n / 2 relative, one per pair.

    On a :func:`near_tied_family` the complement rows' sums then spread by
    about 1e-7 relative, which float32 does not resolve: only the float64
    re-sum can order them.
    """
    return 1.0 + 5e-8 * n * rng.standard_normal(n * (n - 1) // 2)


def assert_deviation_is_float64(family, residual, top):
    """``deviation`` gives the float64 kernel's value and top rows bit for bit; returns |sums|."""
    matrix = np.empty((family.n, family.n))
    got, rows = family.deviation(residual, matrix, top)
    cuts = np.abs(family.sums(matrix))
    assert got == max(np.abs(residual).max(initial=0.0), cuts.max())
    assert np.array_equal(rows, np.argsort(-cuts, kind="stable")[:top])
    return cuts


class TestAudit:
    # audit row counts 2 * budget just below, at and just above one block,
    # and just above two
    BUDGETS = (_AUDIT_BLOCK // 2 - 1, _AUDIT_BLOCK // 2, _AUDIT_BLOCK // 2 + 1, _AUDIT_BLOCK + 1)

    @pytest.mark.parametrize("block", [1, 7, _AUDIT_BLOCK, 2 * _AUDIT_BLOCK])
    def test_blocks_match_one_draw(self, monkeypatch, block):
        # budgets 3 and 10 put the mixed/complement boundary inside a block
        # of 7, and every budget in BUDGETS inside a block of _AUDIT_BLOCK;
        # a block of twice as many rows holds all but the last family whole;
        # n = 1, 2 and 13 leave padding bits in the last byte, n = 16 none
        monkeypatch.setattr(graphs_module, "_AUDIT_BLOCK", block)
        shapes = []

        def spy_rows(s_rows, t_rows):
            shapes.append(s_rows.shape)
            return CutRows(s_rows, t_rows)

        monkeypatch.setattr(graphs_module, "CutRows", spy_rows)
        for n in (1, 2, 13, 16):
            m = integer_channel(make_rng(n), n).matrix()
            for budget in (1, 3, 10) + self.BUDGETS:
                rng, ref = make_rng(budget + n), make_rng(budget + n)
                family = CutFamily(n, budget, rng)
                want = packed_family_reference(n, budget, ref)
                got = family_rows(family, 2 * budget)
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])
                assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)
                # integer weights keep every cut sum exact, whatever the blocking
                whole = CutRows(*want)
                shapes.clear()
                sums = family.sums(m)
                assert all(shape == (block, n) for shape in shapes[:-1])
                assert np.array_equal(sums, whole.sums(m))

    @pytest.mark.parametrize("n", [1, 13, 16])
    def test_masks_read_the_rows_asked(self, n):
        # every row, a slice across the mixed/complement boundary, an
        # unsorted index array with repeats, and no rows at all
        budget = 10
        family = CutFamily(n, budget, make_rng(97, n))
        want_s, want_t = packed_family_reference(n, budget, make_rng(97, n))
        for rows in (
            slice(None),
            slice(3, 17),
            np.array([19, 0, 7, 7, 12, 0]),
            np.empty(0, dtype=np.int64),
        ):
            s, t = family.masks(rows)
            assert s.dtype == t.dtype == bool
            assert np.array_equal(s, want_s[rows]) and np.array_equal(t, want_t[rows])

    @pytest.mark.parametrize("n", [13, 64])
    def test_packed_family_is_the_sampled_family(self, n):
        budget = 1500
        s_rows, t_rows = family_rows(CutFamily(n, budget, make_rng(90 + n)), 2 * budget)
        coloured = make_rng(90 + n).random(budget) >= 0.5  # the coins come first
        bernoulli = np.flatnonzero(~coloured)
        assert np.array_equal(t_rows[budget:], ~s_rows[budget:])
        assert not np.any(s_rows[:budget][coloured] & t_rows[:budget][coloured])

        def within_4_sd(hits, trials, p):
            return abs(hits - p * trials) <= 4 * math.sqrt(trials * p * (1 - p))

        assert within_4_sd(coloured.sum(), budget, 0.5)
        for mask in (s_rows[bernoulli], t_rows[bernoulli], s_rows[budget:]):
            assert within_4_sd(mask.sum(), mask.size, 0.5)
        for mask in (s_rows[:budget][coloured], t_rows[:budget][coloured]):
            assert within_4_sd(mask.sum(), mask.size, 1 / 3)

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_blocked_sums_match_one_family(self, n):
        rng = make_rng(70 + n)
        mats = [integer_channel(rng, n).matrix() for _ in range(3)]
        for budget in self.BUDGETS:
            family = CutFamily(n, budget, rng)
            whole = CutRows(*family_rows(family, 2 * budget))
            for m in mats:
                assert np.array_equal(family.sums(m), whole.sums(m))

    @pytest.mark.parametrize("rows", [127, 128, 129, 257])
    def test_deviation_is_exact_at_block_edges(self, rows):
        # the constructor draws an even row count; trimming its packed rows
        # gives the odd counts, one row short of, at and past a block edge
        n = 20
        family = CutFamily(n, -(-rows // 2), make_rng(72, rows))
        family._s, family._t = family._s[:rows], family._t[:rows]
        s_rows, t_rows = family_rows(family, rows)
        pu, pv = np.triu_indices(n, 1)
        meets = (s_rows[:, pu] & t_rows[:, pv]) | (s_rows[:, pv] & t_rows[:, pu])
        # the largest cut is a block's last row, then the family's last row:
        # weight pairs + 1 on its pairs and -1 elsewhere puts every other
        # cut's |sum| below its own, so a family that drops it reads less
        for top in {min(rows, _AUDIT_BLOCK) - 1, rows - 1}:
            assert meets[top].any()
            residual = np.where(meets[top], pu.size + 1.0, -1.0)
            want_cuts = meets.astype(np.float64) @ residual  # integers: exact
            want = max(pu.size + 1.0, float(np.abs(want_cuts).max()))
            assert np.flatnonzero(np.abs(want_cuts) == want).tolist() == [top]
            matrix = np.full((n, n), np.nan)  # deviation writes every cell
            got, rows = family.deviation(residual, matrix)
            assert got == want
            assert rows.tolist() == [top]
            assert np.array_equal(matrix, WeightedChannel(n, residual).matrix())
            assert np.array_equal(family.sums(matrix), want_cuts)

    @pytest.mark.parametrize("n", [1, 2, 13, 64])
    @pytest.mark.parametrize("block", [1, 7, _AUDIT_BLOCK])
    def test_deviation_certifies_near_ties(self, monkeypatch, n, block):
        monkeypatch.setattr(graphs_module, "_AUDIT_BLOCK", block)
        rng = make_rng(95, n)
        family = near_tied_family(n, rng)
        for base in (1.0, -3.0):
            residual = base * near_tied_residual(n, rng)
            for top in (1, 8):
                cuts = assert_deviation_is_float64(family, residual, top)
            if n >= 13:
                # the test bites: the top two sums differ, by less than float32's spacing
                first, second = np.sort(cuts)[::-1][:2]
                assert 0 < first - second < np.spacing(np.float32(first))

    @pytest.mark.parametrize("scale", [1e39, 1e30, 1e-30, 1e-40, 1e-44, 1e-320, 0.0])
    def test_deviation_at_range_edges(self, scale):
        # unscaled, 1e39 overflows float32 (a RuntimeWarning, which
        # pyproject.toml makes an error), and below about 1e-38 float32 is
        # subnormal: at 1e-44 it holds a few steps of 1.4e-45, where a
        # bound relative to the sums alone is false; 1e-320 is subnormal in
        # float64, and scaling it to [1/2, 1) would need 2^1064
        rng = make_rng(96, 5)
        family = near_tied_family(40, rng)
        for residual in (rng.standard_normal(40 * 39 // 2), near_tied_residual(40, rng)):
            assert_deviation_is_float64(family, scale * residual, 8)

    def test_family_needs_a_budget(self):
        with pytest.raises(ContractViolation):
            CutFamily(5, 0, make_rng(71))

    @pytest.mark.parametrize("n", [1, 2, 9])
    @pytest.mark.parametrize("block", [1, 7, _AUDIT_BLOCK, 2 * _AUDIT_BLOCK])
    def test_audit_matches_one_family(self, monkeypatch, n, block):
        monkeypatch.setattr(graphs_module, "_AUDIT_BLOCK", block)
        rng = make_rng(80 + n)
        wp, wm = integer_channel(rng, n), integer_channel(rng, n)
        pairs = n * (n - 1) // 2
        for budget in self.BUDGETS:
            sol = solve_merge_lp(wp, wm, budget, make_rng(budget), strategy="per-edge")
            s_rows, t_rows = packed_family_reference(n, budget, audit_stream(make_rng(budget)))
            # integer channels keep every cut sum exact, so two products give
            # the three-product lambda bit for bit
            assert sol.lam == three_product_lambda(sol, wp, wm, s_rows, t_rows)
            # every pair twice and every audit row twice, as before blocking
            assert sol.constraints_checked == 2 * pairs + 4 * budget

    @pytest.mark.parametrize("strategy", ["per-edge", "sampled-lp"])
    def test_two_products_match_three(self, strategy):
        n, budget = 37, 40
        rng = make_rng(85)
        g = random_graph(rng, n, complete=True)
        noisy = [laplace_release(ch, 2.0, rng) for ch in indicator_channels(g)]
        for wp, wm, exact in (
            (integer_channel(rng, n), integer_channel(rng, n), True),
            (*noisy, False),
        ):
            sol = solve_merge_lp(wp, wm, budget, make_rng(86), iterations=30, strategy=strategy)
            ref = make_rng(86)
            if strategy == "sampled-lp":
                CutFamily(n, budget, ref)  # the training draws come before the jump
            family = packed_family_reference(n, budget, audit_stream(ref))
            want = three_product_lambda(sol, wp, wm, *family)
            assert sol.lam == (want if exact else pytest.approx(want, rel=1e-12))


class TestRounding:
    def test_extremes_deterministic(self):
        from privcc.release_unweighted import MergeSolution

        rng = make_rng(61)
        ones = MergeSolution(x=np.ones(45), lam=0.0, strategy="per-edge")
        g = round_to_signed(ones, rng)
        assert g.complete and np.all(g.pos_w == 1.0)
        zeros = MergeSolution(x=np.zeros(45), lam=0.0, strategy="per-edge")
        g = round_to_signed(zeros, rng)
        assert np.all(g.neg_w == 1.0)

    def test_hoeffding_count_n60(self):
        # x = 1/2 on 1770 pairs: |#positive - 885| <= 2*sqrt(1770)
        # fails with probability <= 2 exp(-8) ~ 6.7e-4 per seed
        from privcc.release_unweighted import MergeSolution

        m, t = 1770, 2 * math.sqrt(1770)
        sol = MergeSolution(x=np.full(m, 0.5), lam=0.0, strategy="per-edge")
        hits = 0
        for seed in range(500):
            g = round_to_signed(sol, make_rng(62, seed))
            hits += abs(g.pos_w.sum() - 885.0) <= t
        assert hits / 500 >= 0.99

    def test_hoeffding_fixed_cut(self):
        rng = make_rng(63)
        n = 40
        x = rng.random(n * (n - 1) // 2)
        from privcc.release_unweighted import MergeSolution

        sol = MergeSolution(x=x, lam=0.0, strategy="per-edge")
        s = rng.random(n) < 0.5
        t_set = rng.random(n) < 0.5
        pu, pv = np.triu_indices(n, 1)
        in_cut = (s[pu] & t_set[pv]) | (t_set[pu] & s[pv])
        expect = x[in_cut].sum()
        n_cut = int(in_cut.sum())
        # threshold with Hoeffding failure probability 0.01
        thresh = math.sqrt(n_cut * math.log(2 / 0.01) / 2)
        hits = 0
        seeds = 1000
        for seed in range(seeds):
            g = round_to_signed(sol, make_rng(64, seed))
            got = g.pos_w[in_cut].sum()
            hits += abs(got - expect) <= thresh
        assert hits / seeds >= 0.99


class TestReleaseUnweighted:
    def test_zero_noise_identity(self):
        rng = make_rng(65)
        g = random_graph(rng, 12, complete=True)
        h, audit = release_unweighted(
            g, PrivacyParams(1.0), None, rng, engine="zero-noise-test"
        )
        assert neighbor_distance(g, h) == 0.0
        assert not audit.private

    def test_output_shape_and_audit(self):
        rng = make_rng(66)
        g = random_graph(rng, 20, complete=True)
        h, audit = release_unweighted(g, PrivacyParams(1.0), None, rng)
        assert h.complete and h.is_unweighted and h.n == 20
        assert audit.noise_scale == 2.0
        assert audit.channel_budgets == (0.5, 0.5)
        assert audit.lambda_residual is not None and audit.lambda_residual >= 0
        assert set(audit.audit_dict()) == {
            "mechanism", "epsilon", "delta", "noise_scale", "channel_budgets",
            "lambda", "merge_strategy", "constraints_checked", "seed", "private",
            "merge_iterations", "merge_stop", "merge_best_iteration", "merge_training_lambda",
        }

    def test_released_graph_does_not_depend_on_the_audit(self):
        # the audit draws from a stream of its own, so its budget moves
        # only lambda; the per-edge x and the rounding are the same
        graph, _ = generate_instance(
            InstanceSpec(kind="planted", n=40, clusters=4, flip_prob=0.05, seed=3)
        )
        outs = [
            release_unweighted(
                graph, PrivacyParams(1.0), MergeConfig(strategy="per-edge", constraint_budget=b),
                make_rng(68),
            )
            for b in (1, None)
        ]
        assert outs[0][0].pos_w.tobytes() == outs[1][0].pos_w.tobytes()
        assert outs[0][1].constraints_checked < outs[1][1].constraints_checked

    def test_per_edge_release_peak_memory(self):
        # tracemalloc's peak over one release, in n-by-n float64 matrices:
        # 7.8 while the audit held two residual matrices and each block's
        # masks were made beside the last one's; 4.7 with one of each; 4.3
        # with the float32 pass in the residual buffer's own bytes, its
        # blocks half the bytes of the float64 ones
        n = 400
        graph, _ = generate_instance(
            InstanceSpec(kind="planted", n=n, clusters=4, flip_prob=0.05, seed=1)
        )
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            release_unweighted(
                graph, PrivacyParams(1.0), MergeConfig(strategy="per-edge"), make_rng(1)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert (peak - before) / (8 * n * n) < 5.25

    def test_preconditions(self):
        rng = make_rng(67)
        sparse = random_graph(rng, 8, density=0.5)
        with pytest.raises(ContractViolation):
            release_unweighted(sparse, PrivacyParams(1.0), None, rng)
        weighted = random_graph(rng, 8, weighted=True, complete=True)
        assert weighted.complete
        with pytest.raises(ContractViolation):
            release_unweighted(weighted, PrivacyParams(1.0), None, rng)
        g = random_graph(rng, 8, complete=True)
        with pytest.raises(ContractViolation):
            release_unweighted(g, PrivacyParams(1.0, 0.2), None, rng)
        with pytest.raises(ContractViolation):
            release_unweighted(g, PrivacyParams(1.0), None, None)

    def test_deterministic_given_stream(self):
        rng1 = make_rng(68)
        rng2 = make_rng(68)
        g = random_graph(make_rng(1), 10, complete=True)
        h1, _ = release_unweighted(g, PrivacyParams(1.0), None, rng1)
        h2, _ = release_unweighted(g, PrivacyParams(1.0), None, rng2)
        assert neighbor_distance(h1, h2) == 0.0


class TestPrivacyArithmetic:
    def test_laplace_density_ratio_analytic(self):
        # moving one coordinate by 1 at scale b shifts log densities by
        # at most 1/b; both channels together spend exactly epsilon
        eps, b = 1.0, 2.0

        def logpdf(y, mu):
            return -abs(y - mu) / b - math.log(2 * b)

        ys = np.linspace(-30, 30, 20001)
        worst = max(abs(logpdf(y, 0.0) - logpdf(y, 1.0)) for y in ys)
        assert worst == pytest.approx(1.0 / b, abs=1e-12)
        assert 2 * worst == pytest.approx(eps, abs=1e-12)

    def test_discrete_end_to_end_dp_n4(self):
        # exact output distribution over the 64 sign patterns, per-edge
        # merge variant; every single-edge flip must respect the budget
        for eps in (0.5, 1.0, 5.0):
            bound = math.exp(eps) * (1 + 1e-6)
            b = 2.0 / eps
            p1 = dp_harness.edge_positive_probability(1, b)
            p0 = dp_harness.edge_positive_probability(0, b)
            assert p0 == pytest.approx(1 - p1, abs=1e-12)
            for signs_int in range(64):
                signs = np.array([(signs_int >> e) & 1 for e in range(6)])
                base = dp_harness.pattern_distribution(signs, eps)
                assert base.sum() == pytest.approx(1.0, abs=1e-12)
                for e in range(6):
                    flipped = signs.copy()
                    flipped[e] = 1 - flipped[e]
                    other = dp_harness.pattern_distribution(flipped, eps)
                    ratio = np.max(base / other)
                    assert ratio <= bound

    def test_discrete_noise_channel_ratio(self):
        # per-channel: shifting the mean by 64 grid steps costs exp(1/b)
        b = 2.0
        r = math.exp(-dp_harness.GRID / b)
        assert r**-64 == pytest.approx(math.exp(1.0 / b), rel=1e-12)
