"""Shared test helpers: small homogeneous random tables, the per-key
validation loop of the MultiMap constructor, point-by-point reference
evaluators built on the tensor-block oracle _tensor_core, among them a
second bracket_sum, wrong brace, unshuffle-bracket, riffle and
block-interleaving signs, the staged rearrangements dealt by slicing, Lemma
4.1's first defect over every input tuple, the sign of a word summed over
its inverted pairs, the adjacent-swap walk through S_n and the orbit writer
built on it, the orbit stabilizer counted letter by letter, the flags that
replay a check's record, and the environment and runner of a CLI
subprocess."""

import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Sequence

import bracekit
from bracekit import brace
from bracekit.brace import beta_parity, brace_eval, symmetrize_brace
from bracekit.errors import InputError
from bracekit.graded import (
    _ints,
    antisym_koszul_sign,
    enumerate_permutations,
    enumerate_unshuffles,
    insertion_patterns,
    interleave_block_permutation,
    koszul_sign,
    staged_rearrangements,
)
from bracekit.multimap import GradedVector, MultiMap, antisymmetrize
from bracekit.symbrace import delta_parity, symbrace_eval


def random_map(rng, space, arity, density=0.6):
    """Homogeneous-by-construction random table over a small space.

    The internal degree is anchored so at least one entry is admissible,
    then each admissible (input tuple, output) pair is kept with the given
    density and a small nonzero integer coefficient.
    """
    anchor = tuple(rng.randrange(space.dim) for _ in range(arity))
    out = rng.randrange(space.dim)
    degree = space.degrees[out] - sum(space.degrees[i] for i in anchor)
    entries = {}
    for key in space.tuples(arity):
        target = degree + sum(space.degrees[i] for i in key)
        hits = {
            j: rng.choice((-2, -1, 1, 2))
            for j in range(space.dim)
            if space.degrees[j] == target and rng.random() < density
        }
        if hits:
            entries[key] = hits
    return MultiMap(space, arity, degree, entries)


def random_antisym_map(rng, space, arity, density=0.6):
    return antisymmetrize(random_map(rng, space, arity, density))


def per_key_entries(space, arity, degree, entries):
    """The entry table MultiMap(space, arity, degree, entries) stores, by
    the loop the constructor ran on every table before it checked whole
    tables first: each key must be ints (graded._ints), stored as a plain
    tuple, and is checked for length and range, each row's indices must be
    ints, its zeros are pruned and it is checked for range and homogeneity,
    in table order; the first fault raises."""
    arity, degree = _ints((arity, degree), "map arity and degree")
    if arity < 1:
        raise InputError(f"map arity must be at least 1, got {arity}")
    dim, degrees = space.dim, space.degrees
    clean = {}
    for key, out in entries.items():
        key = _ints(key, "input letters")
        if len(key) != arity:
            raise InputError(f"entry {key}: expected {arity} inputs")
        if min(key) < 0 or max(key) >= dim:
            i = next(i for i in key if not 0 <= i < dim)
            raise InputError(f"entry {key}: basis index {i} out of range")
        target = degree + sum(map(degrees.__getitem__, key))
        if isinstance(out, GradedVector):
            out = out.coeffs
        _ints(out, "output indices")
        pruned = {}
        for j, c in out.items():
            if not c:
                continue
            if not 0 <= j < dim:
                raise InputError(f"entry {key}: output index {j} out of range")
            if degrees[j] != target:
                names = tuple(space.names[i] for i in key)
                raise InputError(
                    f"entry {names} -> {space.names[j]} violates homogeneity: "
                    f"output degree {space.degrees[j]}, expected {target}"
                )
            pruned[j] = c
        if pruned:
            clean[key] = pruned
    return clean


def _arg_parities(args: Sequence[GradedVector]):
    """Degree parities of homogeneous args, or None if any arg is zero."""
    pars = []
    for a in args:
        d = a.degree()
        if d is None:
            return None
        pars.append(d & 1)
    return pars


def _tensor_core(
    f: MultiMap,
    gs: Sequence[MultiMap],
    slots: Sequence[int],
    args: Sequence[GradedVector],
) -> GradedVector:
    """Evaluate (1^{k_0} (x) g_1 (x) 1^{k_1} (x) ... (x) g_n (x) 1^{k_n})
    then f, on already-validated homogeneous args."""
    pars = _arg_parities(args)
    if pars is None:
        return f.space.zero_vector()
    outer = []
    sign_exp = 0
    prefix = 0
    pos = 0
    for i, g in enumerate(gs):
        for _ in range(slots[i]):
            outer.append(args[pos])
            prefix ^= pars[pos]
            pos += 1
        sign_exp ^= (g.degree & 1) & prefix
        chunk = args[pos : pos + g.arity]
        for p in pars[pos : pos + g.arity]:
            prefix ^= p
        pos += g.arity
        outer.append(g(chunk))
    outer.extend(args[pos:])
    val = f(outer)
    return val.scale(-1) if sign_exp else val


def tensor_block_eval(
    f: MultiMap,
    gs: Sequence[MultiMap],
    slots: Sequence[int],
    args: Sequence[GradedVector],
) -> GradedVector:
    """Evaluate f after feeding blocks of args through the maps gs.

    slots gives the counts of untouched arguments before, between and after
    the n maps; f must have arity n + sum(slots).  Each g consumes the next
    g.arity arguments as a block.  The Koszul sign moves each g past all
    arguments standing before its block: a factor (-1)^{deg g * deg x} per
    argument x crossed.  The reference for multimap.compose_into.
    """
    gs = tuple(gs)
    slots = tuple(int(k) for k in slots)
    if len(slots) != len(gs) + 1:
        raise InputError(f"expected {len(gs) + 1} slot counts, got {len(slots)}")
    if any(k < 0 for k in slots):
        raise InputError("slot counts must be nonnegative")
    if f.arity != len(gs) + sum(slots):
        raise InputError(
            f"outer map arity {f.arity} does not match "
            f"{len(gs)} insertions plus {sum(slots)} free slots"
        )
    expected = sum(g.arity for g in gs) + sum(slots)
    if len(args) != expected:
        raise InputError(f"expected {expected} arguments, got {len(args)}")
    for g in gs:
        if g.space != f.space:
            raise InputError("all maps must share one space")
    for a in args:
        if not isinstance(a, GradedVector) or a.space != f.space:
            raise InputError("arguments must be vectors in the maps' space")
        a.degree()  # raises on non-homogeneous input
    return _tensor_core(f, gs, slots, args)


def pointwise_compose(f, gs, slots):
    """f o (1^{k_0} (x) g_1 (x) ... (x) g_n (x) 1^{k_n}) as a table, from
    tensor_block_eval on every basis tuple."""
    space = f.space
    out_arity = sum(g.arity for g in gs) + sum(slots)
    entries = {}
    for t in space.tuples(out_arity):
        v = tensor_block_eval(f, gs, slots, [space.basis_vector(i) for i in t])
        if not v.is_zero():
            entries[t] = v.coeffs
    return MultiMap(space, out_arity, f.degree + sum(g.degree for g in gs), entries)


def pointwise_brace(f, gs):
    """The brace f{gs} as the beta-signed sum of pointwise_compose over the
    insertion patterns: the reference for brace_eval."""
    gs = tuple(gs)
    if not gs:
        return f
    n, N = len(gs), f.arity
    arities = tuple(g.arity for g in gs)
    degrees = tuple(g.degree for g in gs)
    total = MultiMap.zero(f.space, sum(arities) + N - n, f.degree + sum(degrees))
    for slots in insertion_patterns(N - n, n + 1):
        parity = beta_parity(N, arities, degrees, slots)
        sign = -1 if parity else 1
        total = total + pointwise_compose(f, gs, slots).scale(sign)
    return total


# Sign mutants: beta with one of its terms dropped, for monkeypatching
# over bracekit.brace.beta_parity.  Each wraps the beta_parity imported
# above, so it keeps working while the module global is patched.


def beta_without_leading_slot_term(N, a, q, k):
    """beta without its j = 0 slot term sum_i (a_i - 1) k_0."""
    return beta_parity(N, a, q, k) ^ ((k[0] * sum(x - 1 for x in a)) & 1)


def beta_without_degree_shift_term(N, a, q, k):
    """beta without sum_i (N - i) q_i."""
    dropped = sum((N - i) * qi for i, qi in enumerate(q, 1))
    return beta_parity(N, a, q, k) ^ (dropped & 1)


def beta_without_crossing_term(N, a, q, k):
    """beta without sum_{j < i} q_i a_j."""
    dropped = sum(qi * sum(a[:i]) for i, qi in enumerate(q))
    return beta_parity(N, a, q, k) ^ (dropped & 1)


# Sign mutants of the unshuffle bracket: delta with one of its terms
# dropped, for monkeypatching over bracekit.symbrace.delta_parity, each
# wrapping the delta_parity imported above.


def delta_without_degree_shift_term(N, a, q):
    """delta without sum_i (N - i) q_i."""
    dropped = sum((N - i) * qi for i, qi in enumerate(q, 1))
    return delta_parity(N, a, q) ^ (dropped & 1)


def delta_without_crossing_term(N, a, q):
    """delta without sum_{j < i} q_i a_j."""
    dropped = sum(qi * sum(a[:i]) for i, qi in enumerate(q))
    return delta_parity(N, a, q) ^ (dropped & 1)


def delta_without_arity_pair_term(N, a, q):
    """delta without sum_{j < i} a_i a_j."""
    dropped = sum(ai * sum(a[:i]) for i, ai in enumerate(a))
    return delta_parity(N, a, q) ^ (dropped & 1)


def delta_without_arity_shift_term(N, a, q):
    """delta without sum_i (n - i) a_i."""
    dropped = sum((len(a) - i) * ai for i, ai in enumerate(a, 1))
    return delta_parity(N, a, q) ^ (dropped & 1)


# Sign mutant of the staged rearrangements behind Lemmas 4.1 and 5.1, for
# monkeypatching over the staged_rearrangements bound in bracekit.brace,
# whose checks of both lemmas read it; it wraps the one imported above.


def eta_without_parity_crossing(items, parities, n, chi):
    """staged_rearrangements with eta lacking sum_i |y_i| * (parities of
    the z's placed before y_i).  It rearranges the indexes of items, so
    heads (indexes below n) and tails stay apart when items repeat, and
    maps them back to the items."""
    indexes = tuple(range(len(items)))
    for sign, seq in staged_rearrangements(indexes, parities, n, chi):
        crossing = zprefix = 0
        for i in seq:
            if i < n:
                crossing += parities[i] * zprefix
            else:
                zprefix += parities[i]
        yield (-sign if crossing & 1 else sign), tuple(items[i] for i in seq)


def dense_first_defect(f):
    """The oracle of brace.decomposition_first_defect: the same first defect
    found by visiting every one of the dim**k input tuples, ascending, for
    each split.  It reads staged_rearrangements and antisymmetrize through
    bracekit.brace at call time, so a mutant patched in there reaches it."""
    k = f.arity
    asf = brace.antisymmetrize(f)
    par, rows = f.space.parities, f.entries
    for n in range(k + 1):
        for t in f.space.tuples(k):
            total: dict = {}
            for sign, w in brace.staged_rearrangements(t, [par[i] for i in t], n, True):
                for j, c in rows[w].items() if w in rows else ():
                    total[j] = total.get(j, 0) + sign * c
            if {j: c for j, c in total.items() if c} != asf.entries.get(t, {}):
                return {"split": [n, k - n], "inputs": [f.space.names[i] for i in t]}
    return None


def sliced_staged_rearrangements(items, parities, n, chi):
    """The oracle of graded.staged_rearrangements: the same (sign, word)
    list in the same order, each riffled word built by slicing the permuted
    z's at an insertion pattern (k_0, ..., k_n), k_0 before y_1 and k_i
    after y_i, and eta summed term by term, sum_{i=0..n} (n - i) k_i for
    chi."""
    m = len(items) - n
    hpar, tpar = parities[:n], parities[n:]
    head_perms = [
        (pair_word_parity(w, hpar, chi), [items[i] for i in w], [hpar[i] for i in w])
        for w in itertools.permutations(range(n))
    ]
    riffles = [
        (slots, sum((n - i) * k for i, k in enumerate(slots)) if chi else 0)
        for slots in insertion_patterns(m, n + 1)
    ]
    for w in itertools.permutations(range(m)):
        zneg, zpar = pair_word_parity(w, tpar, chi), [tpar[i] for i in w]
        zs = tuple(items[n + i] for i in w)
        for yneg, ys, ypar in head_perms:
            for slots, eta in riffles:
                pos = slots[0]
                seq, zprefix = zs[:pos], sum(zpar[:pos])
                for y, p, k in zip(ys, ypar, slots[1:]):
                    eta += p * zprefix
                    seq += (y,) + zs[pos : pos + k]
                    zprefix += sum(zpar[pos : pos + k])
                    pos += k
                yield -1 if (eta + yneg + zneg) & 1 else 1, seq


# Sign mutants of the block interleaving behind Lemma 4.3: alpha1 or alpha2
# with one term dropped, for monkeypatching over
# bracekit.graded.interleave_block_permutation, each wrapping the
# interleave_block_permutation imported above.


def _alpha_terms(pi, sigma, blocks, slots, degrees):
    """The terms the alpha mutants drop, mod 2: sum_i |block sigma(i)| *
    (parity of free chunks 0..i), and sum_i b_{sigma(i)} * (slots 0..i)."""
    cuts = list(itertools.accumulate((0, *blocks, *slots)))
    chunks = [pi.images[a:b] for a, b in zip(cuts, cuts[1:])]
    par = [sum(degrees[v - 1] for v in chunk) & 1 for chunk in chunks]
    n = len(blocks)
    crossing = sum(
        par[s - 1] * sum(par[n : n + i + 1]) for i, s in enumerate(sigma.images)
    )
    slot = sum(blocks[s - 1] * sum(slots[: i + 1]) for i, s in enumerate(sigma.images))
    return crossing & 1, slot & 1


def alpha1_without_crossing_term(pi, sigma, blocks, slots, degrees):
    """alpha1 without its block-crosses-free-chunk term; alpha2, which adds
    alpha1, loses it too."""
    flat, alpha1, alpha2 = interleave_block_permutation(pi, sigma, blocks, slots, degrees)
    dropped, _ = _alpha_terms(pi, sigma, blocks, slots, degrees)
    return flat, alpha1 ^ dropped, alpha2 ^ dropped


def alpha2_without_slot_term(pi, sigma, blocks, slots, degrees):
    """alpha2 without sum_i b_{sigma(i)} * (slots of free chunks 0..i)."""
    flat, alpha1, alpha2 = interleave_block_permutation(pi, sigma, blocks, slots, degrees)
    _, dropped = _alpha_terms(pi, sigma, blocks, slots, degrees)
    return flat, alpha1, alpha2 ^ dropped


def inverted_pairs(word: Sequence[int]) -> list:
    """The pairs (a, b) of letters of word with a before b and a > b: the
    pairs of objects the word puts out of order."""
    return [(a, b) for i, a in enumerate(word) for b in word[i + 1 :] if a > b]


def pair_word_parity(word: Sequence[int], parities: Sequence[int], chi: bool) -> int:
    """The oracle of graded.word_parity: eps adds |x_a||x_b| per inverted
    pair (a, b) of the word, and chi adds 1 more per pair."""
    pairs = inverted_pairs(word)
    crossings = sum(parities[a] & parities[b] for a, b in pairs)
    return (crossings + len(pairs) if chi else crossings) & 1


def adjacent_swap_order(n: int) -> list:
    """Positions of adjacent swaps that walk through all of S_n.

    Starting from any arrangement of n objects and applying the returned
    swaps (position j means swap slots j and j+1, 0-based) visits every
    rearrangement exactly once.  Length is n! - 1.
    """
    if n < 0:
        raise InputError("n must be nonnegative")
    seq: list = []
    for m in range(2, n + 1):
        # object m sweeps right to left and back between the swaps of the
        # walk on the other m - 1, shifted by one while it stands leftmost
        down, up = list(range(m - 2, -1, -1)), list(range(m - 1))
        walk, at_left = list(down), True
        for j in seq:
            walk.append(j + 1 if at_left else j)
            walk.extend(up if at_left else down)
            at_left = not at_left
        seq = walk
    return seq


def walk_expand_orbits(reps, arity, parities):
    """The oracle of multimap.orbit_map: each nonzero row written to
    every rearrangement of its sorted word along the adjacent-swap walk,
    k! writes per word, negated per swap of letters not both odd.  A word
    repeating a letter m times has each key rewritten m! times over."""
    swaps = adjacent_swap_order(arity)
    table: dict = {}
    for rep, row in reps.items():
        if not row:
            continue
        rows, word, flip = (row, {j: -c for j, c in row.items()}), list(rep), 0
        table[rep] = row
        for s in swaps:
            a, b = word[s], word[s + 1]
            word[s], word[s + 1] = b, a
            flip ^= not parities[a] & parities[b]
            table[tuple(word)] = rows[flip]
    return table


def counter_stabilizer(word, parities):
    """The oracle of multimap._stabilizer, for a word in any order: m! per
    letter of word repeated m times, 0 if an even letter repeats."""
    counts = Counter(word).items()
    return math.prod(math.factorial(m) if parities[x] else m == 1 for x, m in counts)


def pointwise_antisymmetrize(f):
    """as(f) on every basis tuple: the chi-signed sum of f over all
    rearrangements of the argument vectors."""
    space = f.space
    entries = {}
    perms = list(enumerate_permutations(f.arity))
    for t in space.tuples(f.arity):
        args = [space.basis_vector(i) for i in t]
        degrees = [space.degrees[i] for i in t]
        total = space.zero_vector()
        for p in perms:
            total = total + f(list(p.apply(args))).scale(antisym_koszul_sign(p, degrees))
        if not total.is_zero():
            entries[t] = total.coeffs
    return MultiMap(space, f.arity, f.degree, entries)


def pointwise_symbrace(f, gs):
    """The unshuffle bracket f<gs> on every basis tuple: the chi-signed
    unshuffle sum through _tensor_core, scaled by (-1)^delta.  The
    reference for symbrace_eval, which evaluates only sorted words."""
    gs = tuple(gs)
    if not gs:
        return f
    n = len(gs)
    N = f.arity
    arities = tuple(g.arity for g in gs)
    degrees = tuple(g.degree for g in gs)
    free = N - n
    out_arity = sum(arities) + free
    out_degree = f.degree + sum(degrees)
    base = -1 if delta_parity(N, arities, degrees) else 1
    gammas = list(enumerate_unshuffles(arities + (free,)))
    slots = (0,) * n + (free,)

    space = f.space
    basis = [space.basis_vector(i) for i in range(space.dim)]
    entries = {}
    for t in space.tuples(out_arity):
        degs = [space.degrees[i] for i in t]
        args = [basis[i] for i in t]
        acc: dict = {}
        for gamma in gammas:
            sign = antisym_koszul_sign(gamma, degs)
            v = _tensor_core(f, gs, slots, gamma.apply(args))
            for j, c in v.coeffs.items():
                acc[j] = acc.get(j, 0) + sign * c
        if acc:
            entries[t] = {j: base * c for j, c in acc.items() if c}
    return MultiMap(space, out_arity, out_degree, entries)


def pointwise_symmetrize(f, gs):
    """symmetrize_brace as the koszul_sign-signed sum, in brace parities,
    of pointwise_brace over every Permutation of the g's."""
    gs = tuple(gs)
    if not gs:
        return f
    parities = [g.brace_parity for g in gs]
    total = None
    for sigma in enumerate_permutations(len(gs)):
        term = pointwise_brace(f, sigma.apply(gs)).scale(koszul_sign(sigma, parities))
        total = term if total is None else total + term
    return total


# each bracket a bracket_sum expression may name, and its reference
POINTWISE_BRACKETS = {
    brace_eval: pointwise_brace,
    symmetrize_brace: pointwise_symmetrize,
    symbrace_eval: pointwise_symbrace,
}


def pointwise_value(expr):
    """The map a bracket_sum expression stands for, every bracket node
    evaluated by its reference, as often as it occurs."""
    if isinstance(expr, MultiMap):
        return expr
    bracket, outer, inner = expr
    reference = POINTWISE_BRACKETS[bracket]
    return reference(pointwise_value(outer), [pointwise_value(e) for e in inner])


def pointwise_bracket_sum(space, signature, terms):
    """The second evaluator of bracket_sum's term lists: sign * value of
    each term by pointwise_value, summed with MultiMap addition."""
    total = MultiMap.zero(space, *signature)
    for sign, expr in terms:
        total = total + pointwise_value(expr).scale(sign)
    return total


def replay_flags(values: dict) -> list:
    """One `--key=value` flag per value of a check's record, lists
    comma-separated: a counterexample's args, or an integer check's lists."""
    argv = []
    for key, value in values.items():
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        argv.append(f"--{key.replace('_', '-')}={text}")
    return argv


def cli_env():
    """Environment for a `python -m bracekit` subprocess: PYTHONPATH starts
    with the directory this test run imported bracekit from, so the child
    finds the same package from any working directory."""
    src = str(Path(bracekit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_cli(*args, cwd, timeout=300):
    """`python -m bracekit *args` in ``cwd``, with its output captured."""
    return subprocess.run(
        [sys.executable, "-m", "bracekit", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(),
        timeout=timeout,
    )
