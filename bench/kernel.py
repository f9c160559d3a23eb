"""Instances of the kernel-large workload and their reference digests.

Every instance is drawn with the benchmark's own seeded ``random.Random``
and built through bracekit's public constructors.  A spec fixes the call,
the space and the shapes; a variant fixes the random draw.  Variants whose
inputs or result are zero are redrawn, and the accepted draw is recorded in
``kernel_pool.json`` together with the digest of the result, so a run never
has to compute a result to decide whether its input is usable.

Regenerate the pool (only when the specs change) with::

    python3 bench/kernel.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

POOL_PATH = Path(__file__).resolve().parent / "kernel_pool.json"
VARIANTS = 8
MAX_ATTEMPTS = 200
COEFFS = (-2, -1, 1, 2)
MAX_ARITY = 4  # truncation of the homotopy relations

# Mixed parities: degree -1 and 1 are odd, 0 is even.
DEGREES = {3: (-1, 0, 1), 4: (-1, 0, 0, 1)}
DENSITIES = {"sparse": 0.10, "dense": 0.60}


@dataclass(frozen=True)
class Spec:
    name: str
    call: str
    dim: int  # space dimension, or n for the matrix algebra M_n(Q)
    density: float
    shape: tuple  # arities of the input maps, grouped per role


def _specs():
    shapes = [
        # (call, dim, shape); output arity in the trailing comment
        ("brace", 4, ((3,), (2, 2))),  # 5
        ("brace", 4, ((3,), (3, 2))),  # 6
        ("symmetrize", 4, ((3,), (2, 2))),  # 5
        ("antisymmetrize", 4, ((5,),)),  # 5
        ("antisymmetrize", 3, ((6,),)),  # 6
        ("symbrace", 4, ((3,), (2, 2))),  # 5
        ("symbrace", 3, ((3,), (3, 2))),  # 6
        ("brace-sides", 4, ((2,), (2,), (2, 1))),  # 4
        ("symbrace-sides", 4, ((2,), (2,), (2,))),  # 4
        ("symmetrized-sides", 4, ((2,), (2,), (2,))),  # 4
        ("asbrace-sides", 4, ((3,), (2,))),  # 4
    ]
    specs = []
    for call, dim, shape in shapes:
        label = "-".join(".".join(str(a) for a in role) for role in shape)
        for dname, density in DENSITIES.items():
            specs.append(Spec(f"{call}-d{dim}-{label}-{dname}", call, dim, density, shape))
    # 25 specs in all: with whole rounds the median op is then the typical
    # time of one spec, not the gap between two
    for call, n in (("ainfty", 4), ("linfty", 3), ("linfty", 4)):
        specs.append(Spec(f"{call}-M{n}", call, n, 1.0, ()))
    return tuple(specs)


SPECS = _specs()


def random_map(bk, rng, space, arity, density):
    """Fill each degree-admissible cell with probability ``density``."""
    degree = rng.choice((-1, 0, 1))
    entries = {}
    for key in space.tuples(arity):
        target = degree + sum(space.degrees[i] for i in key)
        out = {
            j: rng.choice(COEFFS)
            for j in range(space.dim)
            if space.degrees[j] == target and rng.random() < density
        }
        if out:
            entries[key] = out
    return bk.MultiMap(space, arity, degree, entries)


def _matrix_family(bk, rng, n):
    """M_n(Q) on matrix units E_ij of degree d_j - d_i, conjugated by
    random diagonal weights; associative by construction."""
    d = [rng.choice((0, 1)) for _ in range(n)]
    space = bk.GradedSpace(
        (f"E{i}{j}", d[j] - d[i]) for i in range(n) for j in range(n)
    )
    w = [rng.choice((1, 2, 3)) for _ in range(n * n)]
    entries = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                a, b, c = i * n + j, j * n + k, i * n + k
                entries[(a, b)] = {c: Fraction(w[a] * w[b], w[c])}
    product = bk.MultiMap(space, 2, 0, entries)
    return bk.StructureFamily(space, [product], bk.A_INFINITY)


# call -> (bracekit module, function), looked up when the op runs so that
# a traced run sees the wrapped function
CALLS = {
    "brace": ("brace", "brace_eval"),
    "symmetrize": ("symbrace", "symmetrize_brace"),
    "symbrace": ("symbrace", "symbrace_eval"),
    "antisymmetrize": ("multimap", "antisymmetrize"),
    "brace-sides": ("brace", "brace_axiom_sides"),
    "symbrace-sides": ("symbrace", "symbrace_axiom_sides"),
    "symmetrized-sides": ("symbrace", "symbrace_axiom_sides"),
    "asbrace-sides": ("symbrace", "antisymmetrized_brace_sides"),
    "ainfty": ("homotopy", "a_infinity_defects"),
    "linfty": ("homotopy", "l_infinity_defects"),
}


def build(bk, spec: Spec, variant: int, attempt: int):
    """The input of one op as (op, input maps); deterministic."""
    rng = random.Random(f"{spec.name}/{variant}/{attempt}")
    if spec.call in ("ainfty", "linfty"):
        fam = _matrix_family(bk, rng, spec.dim)
        if spec.call == "linfty":
            fam = bk.antisymmetrize_structure(fam)
        args = (fam, MAX_ARITY)
        maps = list(fam.components)
    else:
        space = bk.GradedSpace(
            (f"e{i + 1}", deg) for i, deg in enumerate(DEGREES[spec.dim])
        )
        roles = [
            [random_map(bk, rng, space, a, spec.density) for a in role]
            for role in spec.shape
        ]
        if spec.call in ("symbrace", "symbrace-sides"):
            roles = [[bk.antisymmetrize(m) for m in role] for role in roles]
        maps = [m for role in roles for m in role]
        args = (roles[0][0], *roles[1:])
        if spec.call == "symbrace-sides":
            args += (bk.symbrace.FLAVOR_UNSHUFFLE,)
        elif spec.call == "symmetrized-sides":
            args += (bk.symbrace.FLAVOR_SYMMETRIZED,)
    module, name = CALLS[spec.call]

    def op():
        return getattr(getattr(bk, module), name)(*args)

    return op, maps


def result_maps(result) -> list:
    """The maps a call returned: one map, a pair of sides, or defects."""
    if isinstance(result, dict):
        return [result[r] for r in sorted(result)]
    if isinstance(result, tuple):
        return list(result)
    return [result]


def nnz(maps) -> int:
    return sum(len(m.entries) for m in maps)


def digest(bk, result) -> str:
    """Digest of the canonical serialization; an int and a Fraction of the
    same value serialize identically, so it only sees exact values."""
    objs = [bk.workspace.map_to_obj(m) for m in result_maps(result)]
    text = json.dumps(objs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def verdict(spec: Spec, result) -> bool:
    """The identity the call states holds; plain evaluations state none."""
    maps = result_maps(result)
    if spec.call in ("ainfty", "linfty"):
        return all(m.is_zero() for m in maps)
    if spec.call.endswith("-sides"):
        return maps[0] == maps[1]
    return True


def load_pool() -> dict:
    return json.loads(POOL_PATH.read_text(encoding="utf-8"))


def _make_pool(bk) -> dict:
    pool = {}
    for spec in SPECS:
        variants = []
        for variant in range(VARIANTS):
            for attempt in range(MAX_ATTEMPTS):
                call, inputs = build(bk, spec, variant, attempt)
                if any(m.is_zero() for m in inputs):
                    continue
                result = call()
                out = result_maps(result)
                if not verdict(spec, result):
                    raise SystemExit(f"{spec.name} variant {variant}: identity fails")
                # defects are zero when the identity holds; every other
                # call must produce a nonzero map
                if spec.call not in ("ainfty", "linfty") and out[0].is_zero():
                    continue
                variants.append(
                    {
                        "attempt": attempt,
                        "in_nnz": nnz(inputs),
                        "out_nnz": nnz(out),
                        "digest": digest(bk, result),
                    }
                )
                break
            else:
                raise SystemExit(f"{spec.name}: no nonzero draw in {MAX_ATTEMPTS}")
        pool[spec.name] = variants
        print(spec.name, [v["attempt"] for v in variants], file=sys.stderr)
    return pool


if __name__ == "__main__":
    from source import import_bracekit

    pool = _make_pool(import_bracekit())
    POOL_PATH.write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n", encoding="utf-8")
