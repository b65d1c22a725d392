"""The four benchmark workloads: seeded inputs, timed calls, and oracles.

Each workload is a closed loop with one client.  Its ops follow a fixed
round of input classes, so the mix proportions never depend on the seed;
the seed only picks the inputs inside each class.  `run` makes the calls
into gerbedex, each inside a tracer span named `<module>.<function>`;
`check` compares the outputs with an oracle that does not repeat the
code path under test.  `wrong=True` makes the oracle expect a wrong value,
which the benchmark's self-test uses to prove that failures are counted.
"""

import math

import numpy as np

import gerbedex as gx

TWO_PI = 2.0 * math.pi


def _coboundary(nerve, values, q):
    """Integer coboundary of a q-cochain, computed from the simplex lists."""
    index = {s: i for i, s in enumerate(nerve.simplices[q])}
    return [sum((-1) ** i * values[index[s[:i] + s[i + 1:]]]
                for i in range(len(s)))
            for s in nerve.simplices[q + 1]]


def _prime_powers(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append(q)
        p += 1
    if n > 1:
        out.append(n)
    return out


def _elementary_divisors(orders):
    """Prime-power factors of a finite abelian group given as cyclic orders."""
    return sorted(q for order in orders for q in _prime_powers(order))


def universal_coefficients_hold(mod_orders, h2_orders, h3_orders, k):
    """H^2(X;Z/k) = H^2(X;Z) (x) Z/k  +  Tor(H^3(X;Z), Z/k), up to iso."""
    tensor = [k if d == 0 else math.gcd(d, k) for d in h2_orders]
    torsion = [math.gcd(d, k) for d in h3_orders if d != 0]
    return (_elementary_divisors(mod_orders)
            == _elementary_divisors(tensor + torsion))


def _quad_nodes(atlas):
    return sum(math.prod(chart.shape) for chart in atlas.charts.values())


class TorusIndex:
    """Gauge-transformed flux backgrounds: lattice index against quadrature."""

    name = "torus-index"
    why = ("dense eigvalsh of the 2N^2 Wilson operator dominates (N=16/24/32); "
           "torus quadrature is cheap, so spectral is busy and geometry idle")
    # Two N=24 ops per round put two samples under the median.
    round = (16, 24, 24, 32)
    smoke_round = (16,)

    def setup(self, tr, scratch):
        return {"bench": tr.call("registry.benchmark_registry",
                                 gx.benchmark_registry, "T2")}

    def make_input(self, ctx, rng, size):
        bound = (size + 2) // 4
        return {"size": size,
                "flux": int(rng.integers(-bound, bound + 1)),
                "phase": np.exp(1j * rng.uniform(0.0, TWO_PI, (size, size)))}

    def run(self, tr, ctx, inp):
        size, flux, phase = inp["size"], inp["flux"], inp["phase"]
        background = tr.call("spectral.build_flux_background",
                             gx.build_flux_background, size, flux)
        links_x = (phase * background.links_x
                   * np.conj(np.roll(phase, -1, axis=0)))
        links_y = (phase * background.links_y
                   * np.conj(np.roll(phase, -1, axis=1)))
        gauge = tr.call("spectral.LatticeGauge", gx.LatticeGauge,
                        size, flux, links_x, links_y)
        spectral = tr.call("spectral.overlap_index", gx.overlap_index, gauge)
        twist = tr.call("registry.flux_connection",
                        ctx["bench"].flux_connection, flux)
        report = tr.call("characteristic.topological_index",
                         gx.topological_index, ctx["bench"], twist)
        return spectral, report

    def check(self, ctx, inp, out, wrong=False):
        # A gauge transform leaves the index at the flux it was built with.
        spectral, report = out
        expected = inp["flux"] + (1 if wrong else 0)
        return (spectral == expected and report.nearest == expected
                and report.gap < 1e-6)

    def counts(self, ctx, inp):
        dim = 2 * inp["size"] ** 2
        return {"spectral.operator_dim": dim,
                "spectral.dense_bytes": 16 * dim * dim,
                "geometry.quad_nodes": _quad_nodes(ctx["bench"].atlas)}


class SphereIndex:
    """Perturbed monopole connections: curvature index against the kernel."""

    name = "sphere-index"
    why = ("overlap interpolation, gluing and descent checks and the curvature "
           "character dominate; the sphere spectrum is closed form, so "
           "spectral is idle")
    round = (-3, -2, -1, 0, 1, 2, 3)
    smoke_round = (1,)

    def setup(self, tr, scratch):
        bench = tr.call("registry.benchmark_registry",
                        gx.benchmark_registry, "S2")
        for charge in self.round:
            tr.call("registry.monopole_connection",
                    bench.monopole_connection, charge)
        return {"bench": bench}

    def make_input(self, ctx, rng, charge):
        return {"charge": charge, "form_seed": int(rng.integers(1 << 31))}

    def run(self, tr, ctx, inp):
        bench, charge = ctx["bench"], inp["charge"]
        conn = tr.call("registry.monopole_connection",
                       bench.monopole_connection, charge)
        form = tr.call("registry.perturbation_form", bench.perturbation_form,
                       1, inp["form_seed"])
        perturbed = tr.call("registry.perturbed_connection",
                            gx.perturbed_connection, conn, form)
        report = tr.call("characteristic.topological_index",
                         gx.topological_index, bench, perturbed)
        kernel = tr.call("spectral.monopole_kernel", gx.monopole_kernel,
                         charge)
        return report, kernel

    def check(self, ctx, inp, out, wrong=False):
        report, kernel = out
        expected = inp["charge"] + (1 if wrong else 0)
        return (report.nearest == kernel.index == expected
                and report.gap < 1e-6)

    def counts(self, ctx, inp):
        return {"geometry.quad_nodes": _quad_nodes(ctx["bench"].atlas)}


def _random_rotation(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class FrameLift:
    """Randomized relifts of the sphere frame manifest, and SO(4)/SO(6) lifts."""

    name = "frame-lift"
    why = ("Clifford-element churn in lift_transitions and in canonical and "
           "nearest lifts dominates; cech only solves tiny systems on one "
           "repeated 3-vertex nerve")
    # Sorted by latency the round reads so4 < relift < so6, which puts the
    # median inside the relift block and the tail inside the so6 block.
    round = ("so4", "relift", "so6", "relift")
    smoke_round = ("so4", "relift")

    def setup(self, tr, scratch):
        doc = tr.call("manifest.sphere_frame_manifest",
                      gx.sphere_frame_manifest)
        parsed = tr.call("manifest.parse_manifest", gx.parse_manifest, doc)
        data = parsed.transitions.validate()
        _, cocycle = tr.call("gerbe.lift_transitions", gx.lift_transitions,
                             data)
        return {"data": data, "cocycle": cocycle}

    def make_input(self, ctx, rng, kind):
        if kind == "relift":
            graphs = ctx["data"].edges
            edges = sorted(graphs)
            flips = [e for e in edges if rng.random() < 0.5]
            basepoints = {e: int(rng.integers(graphs[e].count))
                          for e in edges}
            return {"kind": kind, "flips": flips, "basepoints": basepoints,
                    "seed": int(rng.integers(1 << 30))}
        n = 4 if kind == "so4" else 6
        return {"kind": kind, "n": n, "rotation": _random_rotation(rng, n),
                "sign": 1 if rng.random() < 0.5 else -1}

    def run(self, tr, ctx, inp):
        if inp["kind"] == "relift":
            return self._relift(tr, ctx, inp)
        rotation = inp["rotation"]
        canonical = tr.call("clifford.canonical_lift", gx.canonical_lift,
                            rotation)
        reference = canonical if inp["sign"] > 0 else -canonical
        nearest = tr.call("clifford.nearest_lift", gx.nearest_lift,
                          rotation, reference)
        return canonical, reference, nearest

    def _relift(self, tr, ctx, inp):
        data, base = ctx["data"], ctx["cocycle"]
        lifted, cocycle = tr.call(
            "gerbe.lift_transitions", gx.lift_transitions, data,
            seed=inp["seed"], sign_flips=inp["flips"],
            basepoints=inp["basepoints"])
        diff = gx.Cochain(2, 2, tuple(
            a + b for a, b in zip(base.cochain.values, cocycle.cochain.values)))
        closed = tr.call("cech.is_cocycle", gx.is_cocycle, diff, data.nerve)
        witness = tr.call("cech.solve_coboundary", gx.solve_coboundary,
                          diff, data.nerve)
        module = tr.call("gerbe.spin_module", gx.spin_module, lifted)
        verdict = tr.call("gerbe.verify_module", gx.verify_module,
                          module, cocycle)
        return diff, closed, witness, module, cocycle, verdict

    def check(self, ctx, inp, out, wrong=False):
        if inp["kind"] != "relift":
            canonical, reference, nearest = out
            rotation = inp["rotation"]
            recovers = all(
                np.abs(g.adjoint_matrix() - rotation).max() < 1e-10
                for g in (canonical, nearest))
            # nearest must be the candidate +-canonical that equals reference
            same = nearest.distance(reference) < 1e-9
            return recovers and same == (not wrong)
        diff, closed, witness, module, cocycle, verdict = out
        nerve = ctx["data"].nerve
        # The class is invariant: the witness must really bound the difference.
        invariant = (closed and witness is not None and all(
            (a - b) % 2 == 0 for a, b in
            zip(_coboundary(nerve, witness.values, 1), diff.values)))
        residual = 0.0
        for simplex in nerve.simplices[2]:
            a, b, c = simplex
            sign = -1.0 if cocycle.value_on(simplex) else 1.0
            for i, j, l in module.triples[simplex]:
                prod = (module.transitions[(a, b)][i]
                        @ module.transitions[(b, c)][j]
                        @ module.transitions[(a, c)][l].conj().T)
                residual = max(residual, float(
                    np.abs(prod - sign * np.eye(module.rank)).max()))
        return (invariant == (not wrong) and verdict.ok
                and verdict.max_residual < 1e-9 and residual < 1e-9)

    def counts(self, ctx, inp):
        if inp["kind"] != "relift":
            # canonical_lift, then nearest_lift, of one rotation
            return {f"clifford.lifts.n{inp['n']}": 2}
        edges = ctx["data"].edges.values()
        nerve = ctx["data"].nerve
        sizes = [nerve.n_simplices(q) for q in range(4)]
        return {
            "gerbe.samples_lifted": sum(g.count for g in edges),
            # base lift, tree transport, and one closure lift per adjacency
            "clifford.lifts.n2": sum(g.count + len(g.adjacency) for g in edges),
            # is_cocycle needs delta_2, solve_coboundary needs delta_1
            "cech.coboundary_entries": sizes[2] * sizes[3] + sizes[1] * sizes[2],
        }


class NerveCohomology:
    """Fresh relabelled lens nerves through the nerve file format and SNF."""

    name = "nerve-cohomology"
    why = ("dense pure-Python Smith normal form on a fresh relabelled lens "
           "nerve (k=3/5/7) per op, read from a nerve file; no query repeats")
    # Two k=5 nerves per round put two samples under the median.
    round = (3, 5, 5, 7)
    smoke_round = (3,)

    def setup(self, tr, scratch):
        bases = {k: tr.call("cech.lens_complex", gx.lens_complex, k)
                 for k in self.round}
        return {"bases": bases, "path": scratch / "nerve.txt"}

    def make_input(self, ctx, rng, k):
        base = ctx["bases"][k]
        perm = rng.permutation(base.vertex_count)
        simplices = [tuple(int(perm[v]) for v in s)
                     for level in base.simplices for s in level]
        return {"k": k, "nerve": gx.Nerve.from_simplices(
            simplices, vertex_count=base.vertex_count)}

    def run(self, tr, ctx, inp):
        k, path = inp["k"], ctx["path"]
        tr.call("manifest.write_nerve", gx.write_nerve, path, inp["nerve"])
        nerve = tr.call("manifest.read_nerve", gx.read_nerve, path)
        h2_mod = tr.call("cech.cohomology", gx.cohomology, nerve, 2, k)
        h2 = tr.call("cech.cohomology", gx.cohomology, nerve, 2, "Z")
        h3 = tr.call("cech.cohomology", gx.cohomology, nerve, 3, "Z")
        beta = tr.call("cech.bockstein", gx.bockstein,
                       h2_mod.generators[0], nerve)
        return nerve, h2_mod, h2, h3, beta

    def check(self, ctx, inp, out, wrong=False):
        nerve, h2_mod, h2, h3, beta = out
        k = inp["k"]
        expected = (k + 1) if wrong else k
        generator = list(h2_mod.generators[0].values)
        # The generator is a mod-k cocycle, and beta is delta(lift) / k.
        delta = _coboundary(nerve, generator, 2)
        return (nerve == inp["nerve"]
                and h2_mod.orders == (expected,) and h2.orders == ()
                and h3.orders == (expected,)
                and universal_coefficients_hold(h2_mod.orders, h2.orders,
                                                h3.orders, k)
                and all(v % k == 0 for v in delta)
                and list(beta.beta.values) == [v // k for v in delta]
                and not beta.trivial)

    def counts(self, ctx, inp):
        nerve = inp["nerve"]
        d1 = nerve.n_simplices(1) * nerve.n_simplices(2)
        d2 = nerve.n_simplices(2) * nerve.n_simplices(3)
        # H^2 twice (delta_2, delta_1 each), H^3 (delta_2), and the Bockstein
        # (delta_2 for the lift, delta_2 for the triviality solve)
        return {"cech.coboundary_entries": 5 * d2 + 2 * d1}


WORKLOADS = {w.name: w for w in (TorusIndex, SphereIndex, FrameLift,
                                 NerveCohomology)}
