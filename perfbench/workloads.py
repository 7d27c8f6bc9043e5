"""The benchmark's workloads: seeded inputs, the problems each pass solves,
and the checks every output must pass.

A workload has a ``setup(seed)`` that builds its meshes and seeded inputs and a
``run(inputs, variant, p)`` that solves every problem once (one pass).  The
inputs hold a list of ``variants``: ``VARIANTS`` seeded input variants
(eigensolver seeds, distance sources, impulse vertices, boundary colors), or a
single one where nothing is random.  One cycle of the benchmark runs one pass
per variant, so a run always measures the same inputs whatever the speed of
the code.

Checks do not depend on the solver path the package takes: eigenpairs must
pass ``EigenResult.validate``, Neumann square spectra must match the analytic
lattice to the square-spectrum validator's tolerance, Dirichlet data must be
reproduced exactly, diffusion must conserve mass, colors must stay in their
bounds with the boundary pinned, and distances must vanish at the source and
strictly decrease along descent paths.
"""

import time
import warnings
from inspect import signature

import numpy as np

import framefieldops as ff
from framefieldops import meshgen
from framefieldops.apps import square_wave_boundary
from framefieldops.errors import NumericalError
from framefieldops.solve import DENSE_THRESHOLD
from framefieldops.validation import validate_anisotropy, validate_square_spectrum

VARIANTS = 2
BCS = ("neumann", "natural")
TASKS = ("field", "refine", "operator", "eigs", "distance", "dirichlet", "diffuse", "color")
CAP_WARNING = "box QP hit the iteration cap"

_square_defaults = signature(validate_square_spectrum).parameters
SQUARE_REL_TOL = _square_defaults["rel_tol"].default
SQUARE_MODES = _square_defaults["finest_modes"].default
_anisotropy_defaults = signature(validate_anisotropy).parameters
DIFFUSE_TAU = _anisotropy_defaults["tau"].default
DIFFUSE_EPSILONS = _anisotropy_defaults["epsilons"].default
# Implicit Euler conserves M-mass up to the solve residual, which solve_spd
# accepts at 1e-7 relative; the check leaves a decade of headroom over that.
MASS_RTOL = 1e-6
ZERO_MODE_RELTOL = 1e-8
REFERENCE_LOOP = 50_000
REFERENCE_REPEATS = 2


class CheckFailed(Exception):
    """A problem returned an output that fails its correctness check."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


def reference_s():
    """Seconds of a fixed pure-Python loop (best of two): the host's current speed.

    On a shared VM the speed of the whole host drifts, by up to half, within
    seconds.  The loop's time moves with it, and no package code runs in it.
    """
    best = float("inf")
    for _ in range(REFERENCE_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOP):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


class Pass:
    """One pass over a workload: task timers and one record per problem.

    The reference loop runs between problems.  ``wall_ref`` sums each
    problem's time divided by the mean of the loop's times just before and
    after it; ``gauge_s`` is the time the loop took, which the pass's
    ``wall_s`` leaves out.
    """

    def __init__(self):
        self.task_s = {}
        self.problems = []
        self.variant = None
        self.wall_s = None
        self.wall_ref = 0.0
        self.gauge_s = 0.0
        self.layers = None
        self._last_ref = None

    def _gauge(self):
        t0 = time.perf_counter()
        self._last_ref = reference_s()
        self.gauge_s += time.perf_counter() - t0
        return self._last_ref

    def call(self, task, fn, *args, **kwargs):
        """Call a public function, adding its time to ``task`` if it returns."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.task_s[task] = self.task_s.get(task, 0.0) + time.perf_counter() - t0
        return out

    def attempt(self, name, solve, *inputs):
        """Solve and check one problem; return its output, or None if it failed.

        ``solve(record, *inputs)`` fills ``record`` with sizes and returns the
        output.  A problem whose input problem failed is not run and counts as
        failed ("blocked").
        """
        record = {"problem": name}
        self.problems.append(record)
        if any(x is None for x in inputs):
            record.update(status="blocked", error="an input problem failed")
            return None
        out = None
        ref_before = self._last_ref or self._gauge()
        t0 = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                out = solve(record, *inputs)
                status = "ok"
            except CheckFailed as exc:
                status, record["error"] = "check", str(exc)
            except Exception as exc:  # recorded as a failed problem; the pass goes on
                status, record["error"] = "raised", f"{type(exc).__name__}: {exc}"
        record["seconds"] = time.perf_counter() - t0
        self.wall_ref += record["seconds"] / ((ref_before + self._gauge()) / 2)
        messages = sorted({str(w.message) for w in caught})
        if status == "ok" and any(CAP_WARNING in m for m in messages):
            status = "capped"
        record["status"] = status
        record["warnings"] = len(caught)
        record["runtime_warnings"] = sum(issubclass(w.category, RuntimeWarning) for w in caught)
        if messages:
            record["warning_messages"] = messages
        return None if status in ("check", "raised") else out


def warm(mesh):
    """Fill the mesh's lazy caches, so that every pass does the same work."""
    mesh.shape_gradients()
    mesh.vertex_neighbors()
    return mesh


# -- checks --------------------------------------------------------------------


def describe(record, op, eigs=False):
    n = op.matrix.shape[0]
    record.update(nv=n, nnz=int(op.matrix.nnz))
    if eigs:
        record["eigs_path"] = "dense" if n < DENSE_THRESHOLD else "iterative"


def check_field(field, mesh):
    c = field.components
    check(field.mesh is mesh and np.all(np.isfinite(c)), "field is not finite on its mesh")
    gram = np.einsum("vad,vbd->vab", c, c)
    check(np.max(np.abs(gram - np.eye(mesh.dim))) <= 1e-8, "frames are not orthonormal")


def check_operator(op):
    try:
        op.validate()
    except NumericalError as exc:
        raise CheckFailed(f"operator: {exc}") from exc


def check_eigs(eig, op, k):
    check(len(eig.values) == k and np.all(np.diff(eig.values) >= 0), "eigenvalues not k ascending")
    try:
        eig.validate(op, op.vertex_mass)
    except NumericalError as exc:
        raise CheckFailed(f"eigenpairs: {exc}") from exc


def nonzero_modes(values, count):
    return values[values > ZERO_MODE_RELTOL * np.max(values)][:count]


def check_square_spectrum(values, eps):
    ana = nonzero_modes(ff.square_spectrum(eps, 4 * len(values)).values, SQUARE_MODES)
    disc = nonzero_modes(values, SQUARE_MODES)
    check(len(disc) == SQUARE_MODES, f"fewer than {SQUARE_MODES} nonzero modes")
    rel = float(np.max(np.abs(disc - ana) / ana))
    check(rel < SQUARE_REL_TOL, f"square spectrum off by {rel:.3g} (tolerance {SQUARE_REL_TOL})")


# -- problems shared by several workloads ----------------------------------------


def harmonic(record, p, mesh):
    field = p.call("field", ff.harmonic_cross_field_2d, mesh)
    record["nv"] = mesh.num_vertices
    check_field(field, mesh)
    return field


def refine(record, p, mesh):
    fine = p.call("refine", ff.refine_uniform, mesh)
    record["nv"] = fine.num_vertices
    factor = 4 if mesh.dim == 2 else 8
    check(fine.num_elements == factor * mesh.num_elements, "wrong element count")
    before, after = mesh.element_volumes.sum(), fine.element_volumes.sum()
    check(abs(after - before) <= 1e-12 * before, "refinement changed the volume")
    return fine


def assembly(record, p, mesh, field, eps, bc):
    op = p.call("operator", ff.assemble_operator, mesh, field, eps, bc)
    describe(record, op)
    check_operator(op)
    return op


def eigenproblem(record, p, mesh, field, eps, bc, k, seed):
    op = p.call("operator", ff.assemble_operator, mesh, field, eps, bc)
    eig = p.call("eigs", ff.eigs_generalized, op, op.vertex_mass, k, seed=seed)
    describe(record, op, eigs=True)
    check_eigs(eig, op, k)
    return eig


# -- spectral --------------------------------------------------------------------


class Spectral:
    name = "spectral"
    # 961 and 4,225 vertices: either side of DENSE_THRESHOLD.
    SQUARES = (30, 64)
    EPS = 0.1
    K = 24
    # 3,997 vertices: build_embedding and the field's solve take the
    # factorized and CG paths.
    DISK_RINGS = 36
    MODES = 32
    SOURCES = 4
    STARTS = 5

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        disk = warm(meshgen.disk(self.DISK_RINGS))
        nv = disk.num_vertices
        variants = [
            {
                "eigs_seed": int(rng.integers(2**31)),
                "sources": rng.choice(nv, self.SOURCES, replace=False),
                "starts": rng.integers(nv, size=(self.SOURCES, self.STARTS)),
            }
            for _ in range(VARIANTS)
        ]
        return {
            "squares": {n: warm(meshgen.structured_square(n)) for n in self.SQUARES},
            "disk": disk,
            "vertex_index": {tuple(x): i for i, x in enumerate(disk.vertices)},
            "variants": variants,
        }

    def run(self, inputs, variant, p):
        for n, mesh in inputs["squares"].items():
            for bc in BCS:
                p.attempt(f"square{n}-{bc}", self.square, p, mesh, bc, variant["eigs_seed"])
        disk = inputs["disk"]
        name = f"disk{self.DISK_RINGS}"
        field = p.attempt(f"{name}-field", harmonic, p, disk)
        emb = p.attempt(f"{name}-embedding", self.embedding, p, disk, field)
        for i, (source, starts) in enumerate(zip(variant["sources"], variant["starts"])):
            p.attempt(
                f"{name}-distance{i}", self.distance, p, disk, inputs["vertex_index"],
                emb, int(source), starts,
            )

    def square(self, record, p, mesh, bc, seed):
        field = ff.constant_field(mesh, ff.axis_frame(2))
        eig = eigenproblem(record, p, mesh, field, self.EPS, bc, self.K, seed)
        if bc == "neumann":
            check_square_spectrum(eig.values, self.EPS)
        return eig

    def embedding(self, record, p, mesh, field):
        op = p.call("operator", ff.assemble_operator, mesh, field, self.EPS, "neumann")
        emb = p.call("distance", ff.build_embedding, op, n_modes=self.MODES)
        describe(record, op, eigs=True)
        lam = emb.eigenvalues
        check(emb.n_modes == self.MODES and np.all(lam > 0) and np.all(np.diff(lam) >= 0),
              "embedding eigenvalues not positive ascending")
        check(np.all(np.isfinite(emb.coordinates)), "embedding not finite")
        return emb

    def distance(self, record, p, mesh, vertex_index, emb, source, starts):
        d = p.call("distance", ff.distance_field, emb, source)
        record["nv"] = len(d)
        check(d[source] == 0.0 and np.all(d >= 0) and np.all(np.isfinite(d)),
              "distance not zero at the source")
        for start in starts:
            path = p.call("distance", ff.trace_descent_path, mesh, d, int(start))
            visited = [vertex_index[tuple(x)] for x in path]
            check(visited[0] == start, "descent path does not begin at its start")
            check(np.all(np.diff(d[visited]) < 0), "distance not strictly decreasing on a path")
        return d


# -- boundary --------------------------------------------------------------------


class Boundary:
    name = "boundary"
    # 1,801 and 4,921 vertices: solve_spd's dense and ILU/CG branches.
    RINGS = (24, 40)
    DIRICHLET_EPS = 0.05

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        disks = {}
        for r in self.RINGS:
            mesh = warm(meshgen.disk(r))
            measures = ff.compute_measures(mesh)
            interior = np.setdiff1d(np.arange(mesh.num_vertices), measures.boundary_vertices)
            disks[r] = {
                "mesh": mesh,
                "square_wave": square_wave_boundary(mesh, measures),
                "interior": interior,
            }
        variants = [
            {r: int(rng.choice(d["interior"])) for r, d in disks.items()} for _ in range(VARIANTS)
        ]
        return {"disks": disks, "variants": variants}

    def run(self, inputs, variant, p):
        for r, d in inputs["disks"].items():
            mesh = d["mesh"]
            impulse = np.zeros(mesh.num_vertices)
            impulse[variant[r]] = 1.0
            field = p.attempt(f"disk{r}-field", harmonic, p, mesh)
            p.attempt(f"disk{r}-dirichlet", self.dirichlet, p, mesh, field, d["square_wave"])
            for eps in DIFFUSE_EPSILONS:
                p.attempt(
                    f"disk{r}-diffuse-eps{eps}", self.diffusion, p, mesh, field, eps, impulse
                )

    def dirichlet(self, record, p, mesh, field, values):
        op = p.call("operator", ff.assemble_operator, mesh, field, self.DIRICHLET_EPS, "neumann")
        u = p.call("dirichlet", ff.apply_dirichlet_partition, op, values)
        describe(record, op)
        check(np.all(np.isfinite(u)), "Dirichlet solution not finite")
        check(np.array_equal(u[op.boundary_vertices], values), "boundary values not reproduced")
        return u

    def diffusion(self, record, p, mesh, field, eps, u0):
        op = p.call("operator", ff.assemble_operator, mesh, field, eps, "natural")
        u = p.call("diffuse", ff.diffuse, op, u0, DIFFUSE_TAU)
        describe(record, op)
        m = op.vertex_mass
        before, after = m @ u0, m @ u
        check(abs(after - before) <= MASS_RTOL * abs(before),
              f"mass changed by {after - before:.3e}")
        return u


# -- color -----------------------------------------------------------------------


class Color:
    name = "color"
    RINGS = (24, 40)
    EPS = 0.01

    def setup(self, seed):
        disks = {}
        for r in self.RINGS:
            mesh = warm(meshgen.disk(r))
            disks[r] = {"mesh": mesh, "nb": len(ff.compute_measures(mesh).boundary_vertices)}
        rng = np.random.default_rng(seed)
        variants = [
            {r: rng.uniform(0.0, 1.0, (d["nb"], 3)) for r, d in disks.items()}
            for _ in range(VARIANTS)
        ]
        return {"disks": disks, "variants": variants}

    def run(self, inputs, variant, p):
        for r, d in inputs["disks"].items():
            mesh = d["mesh"]
            field = p.attempt(f"disk{r}-field", harmonic, p, mesh)
            p.attempt(f"disk{r}-color", self.color, p, mesh, field, variant[r])

    def color(self, record, p, mesh, field, rgb):
        op = p.call("operator", ff.assemble_operator, mesh, field, self.EPS, "natural")
        out = p.call("color", ff.color_by_boundary, op, rgb)
        describe(record, op)
        check(np.array_equal(out[op.boundary_vertices], rgb), "boundary colors not pinned")
        check(np.all(out >= rgb.min(axis=0)) and np.all(out <= rgb.max(axis=0)),
              "colors leave their bounds")
        return out


# -- hierarchy -------------------------------------------------------------------


class Hierarchy:
    name = "hierarchy"
    DISK_RINGS = 16
    DISK_LEVELS = 2
    EPSILONS = (1.0, 0.1, 0.01)
    # 2,057 vertices.  At level 4 (14,993 vertices) the ball's refinement and
    # assembly are memory-bound, and their time drifts with the host's load
    # more than the reference loop corrects for.
    BALL_LEVELS = 3
    BALL_EPS = 0.1

    def setup(self, seed):
        # Nothing here is random, so there is one variant; the seed is
        # accepted like every workload's.
        return {
            "disk": warm(meshgen.disk(self.DISK_RINGS)),
            "ball": warm(meshgen.ball()),
            "variants": [None],
        }

    def run(self, inputs, variant, p):
        levels = [inputs["disk"]]
        for i in range(1, self.DISK_LEVELS + 1):
            levels.append(p.attempt(f"disk-refine{i}", refine, p, levels[-1]))
        fine_field = p.attempt(f"disk-l{self.DISK_LEVELS}-field", harmonic, p, levels[-1])
        fields = [
            p.attempt(f"disk-l{i}-resample", self.resample, p, fine_field, mesh)
            for i, mesh in enumerate(levels[:-1])
        ] + [fine_field]
        for i, (mesh, field) in enumerate(zip(levels, fields)):
            for bc in BCS:
                for eps in self.EPSILONS:
                    p.attempt(f"disk-l{i}-{bc}-eps{eps}", assembly, p, mesh, field, eps, bc)
        balls = [inputs["ball"]]
        for i in range(1, self.BALL_LEVELS + 1):
            balls.append(p.attempt(f"ball-refine{i}", refine, p, balls[-1]))
        for bc in BCS:
            p.attempt(f"ball-l{self.BALL_LEVELS}-{bc}", self.ball, p, balls[-1], bc)

    def resample(self, record, p, field, mesh):
        out = p.call("field", ff.resample_field, field, mesh)
        record["nv"] = mesh.num_vertices
        check_field(out, mesh)
        return out

    def ball(self, record, p, mesh, bc):
        field = ff.constant_field(mesh, ff.axis_frame(3))
        return assembly(record, p, mesh, field, self.BALL_EPS, bc)


# -- volume ----------------------------------------------------------------------


class Volume:
    name = "volume"
    BALL_LEVELS = 3
    JITTER_SIDE = 16
    AXIS = (0.0, 0.0, 1.0)
    PITCH = 2.0
    EPS = 0.05
    K = 20

    def setup(self, seed):
        ball = meshgen.ball()
        for _ in range(self.BALL_LEVELS):
            ball = ff.refine_uniform(ball)
        rng = np.random.default_rng(seed)
        return {
            "meshes": {
                f"ball{self.BALL_LEVELS}": warm(ball),
                f"jittered{self.JITTER_SIDE}": warm(
                    meshgen.jittered_delaunay(3, self.JITTER_SIDE, seed=seed)
                ),
            },
            "variants": [int(rng.integers(2**31)) for _ in range(VARIANTS)],
        }

    def run(self, inputs, eigs_seed, p):
        for name, mesh in inputs["meshes"].items():
            field = p.attempt(f"{name}-field", self.helical, p, mesh)
            for bc in BCS:
                p.attempt(
                    f"{name}-{bc}", eigenproblem, p, mesh, field, self.EPS, bc, self.K, eigs_seed
                )

    def helical(self, record, p, mesh):
        field = p.call("field", ff.helical_field_3d, mesh, self.AXIS, self.PITCH)
        record["nv"] = mesh.num_vertices
        check_field(field, mesh)
        return field


WORKLOADS = {w.name: w for w in (Spectral(), Boundary(), Hierarchy(), Color(), Volume())}
