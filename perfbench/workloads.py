"""The three benchmark workloads: seeded request lists, execution, checks.

A request is plain data (tuples of ints and strings) generated from the
seed before any timing starts.  Running one request has three steps:

* ``prepare`` turns the plain data into kvlie objects (not timed);
* ``execute`` makes the calls the request stands for (timed);
* ``check`` verifies the answer against a fact known independently of the
  timed call (not timed).  It returns an error string, or None when the
  answer is right.

Request kinds follow a fixed cycle, the same for every seed; the seed draws
every input (terms, coefficients, signs, selectors, Monte Carlo seeds).
That keeps the mix of every list prefix, and so the figures, steady from
seed to seed.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

WORKLOADS = ("transport2", "associator3", "graph_weights")

# Requests per generated list.  A run walks the list in order and starts
# over from the top if it ever reaches the end.
LIST_LENGTH = 1000

# Seed of the fixed warm-up requests, the same for every run.
WARMUP_SEED = 0
# Variants left out of the warm-up: a degree-5 membership costs about two
# seconds and fills only some fifty Lyndon cache entries beyond what the
# degree-4 membership fills, well under a millisecond of work.
WARMUP_SKIP = {("membership", 5)}

# -- transport2 ---------------------------------------------------------

TRANSPORT_DEGREE = 6
TERM_COUNTS = tuple(range(4, 11))
# Terms of low degree make every image dense and set most of a request's
# cost: a u with both linear terms (x_1 -> [x_1, x_2], x_2 -> [x_2, x_1]) and
# a degree-2 term costs about seven times one with neither.  Each group of
# four derivations holds three of the first kind and one of the second, as
# (linear, degree-2) term counts; the seed picks every other term.  The
# median then falls inside the light class and the 11th-largest latency
# inside the dense one, away from the edge between the two.
TAUT_PROFILES = ((0, 0), (0, 0), (0, 0), (2, 1))
CLI_VERBS = (("kv-solve", "--degree", "4", "--gauge", "symmetric"),
             ("kv-solve", "--degree", "4", "--gauge", "minimal-norm"),
             ("duflo", "--degree", "8"))

# -- associator3 --------------------------------------------------------

ASSOC_DEGREE = 3
# A cycle of sixteen alternates solves and memberships.  Solves are of even
# parity (the paper's Phi) but for one unconstrained solve, which costs more
# than twice as much; memberships are at degree 4 but for two at degree 5,
# which cost about nine times as much, a little more than an even solve.
# The even solves then hold the latencies from about the 38th to the 81st
# percentile, where both the median and the 11th-largest latency fall for
# any run of 20 to 58 requests.
ASSOC_PARITIES = ("even",) * 3 + ("unconstrained",) + ("even",) * 4
MEMBERSHIP_DEGREES = (4,) * 3 + (5,) + (4,) * 3 + (5,)
BRAID_PAIRS = ((1, 2), (1, 3), (2, 3))

# -- graph_weights ------------------------------------------------------

MC_SAMPLES = 200_000
MC_STREAMS = (1, 2, 4)
# (edges, closed-form weight, allowed error in standard errors).  The
# one-vertex graph is the anchor every estimate must meet at 4 sigma; the
# two-vertex trees carry the BCH coefficient 1/12, the wheels the Duflo
# coefficient -1/24 or vanish by symmetry.
ANCHOR_GRAPHS = (
    (((1, "g1"), (1, "g2")), 0.5, 4.0),
    (((1, "g1"), (1, 2), (2, "g1"), (2, "g2")), 1 / 12, 6.0),
    (((1, 2), (1, "g2"), (2, "g1"), (2, "g2")), 1 / 12, 6.0),
    (((1, 2), (1, "g1"), (2, 1), (2, "g1")), 0.0, 6.0),
    (((1, 2), (1, "g1"), (2, 1), (2, "g2")), -1 / 24, 6.0),
    (((1, 2), (1, "g2"), (2, 1), (2, "g2")), 0.0, 6.0),
)
ENUMERATIONS = (("lie", 5), ("lie", 6), ("wheel", 5), ("wheel", 6))
# Row counts of the enumerations, pinned at the commit that defined the benchmark.
ENUMERATION_ROWS = {("lie", 5): 32, ("lie", 6): 86, ("wheel", 5): 38, ("wheel", 6): 114}


# -- plain-data helpers (no kvlie) --------------------------------------


def lyndon_words(letters: int, length: int) -> List[Tuple[int, ...]]:
    """Lyndon words of one length, by brute force over all words."""
    out = []
    for code in range(letters ** length):
        word = []
        for _ in range(length):
            code, r = divmod(code, letters)
            word.append(r)
        word = tuple(reversed(word))
        if all(word < word[i:] + word[:i] for i in range(1, length)):
            out.append(word)
    return sorted(out)


def standard_bracketing(word: Tuple[int, ...]):
    """Nested pairs of the standard factorization (least proper suffix)."""
    if len(word) == 1:
        return word[0]
    split = min(range(1, len(word)), key=lambda i: word[i:])
    return (standard_bracketing(word[:split]), standard_bracketing(word[split:]))


def _bag(rng: random.Random, items: Sequence) -> Iterator:
    """Endless draws that use every item once per round, in seeded order."""
    while True:
        round_ = list(items)
        rng.shuffle(round_)
        yield from round_


def _coefficient(rng: random.Random) -> Tuple[int, int]:
    return rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 6)


def _taut_candidates() -> Tuple[list, list, list]:
    """Terms a component of u may hold, as (k, word), by word length:
    (length 1, length 2, longer).

    Component k may hold any Lyndon word but the generator x_k itself; words
    of length TRANSPORT_DEGREE would vanish in the truncation.
    """
    terms = [(k, w) for length in range(1, TRANSPORT_DEGREE)
             for w in lyndon_words(2, length) for k in (0, 1) if w != (k,)]
    return tuple([t for t in terms if len(t[1]) == n] for n in (1, 2)) + (
        [t for t in terms if len(t[1]) > 2],)


def _gen_transport2(rng: random.Random) -> Iterator[tuple]:
    linear, quadratic, longer = _taut_candidates()
    # one bag of term counts per profile, so each cost class sees every
    # term count equally often
    counts = {profile: _bag(rng, TERM_COUNTS) for profile in set(TAUT_PROFILES)}
    for verb in itertools.cycle(CLI_VERBS):
        for n1, n2 in TAUT_PROFILES:
            n = next(counts[n1, n2])
            picks = (rng.sample(linear, n1) + rng.sample(quadratic, n2)
                     + rng.sample(longer, n - n1 - n2))
            yield ("taut", tuple(sorted((k, w) + _coefficient(rng) for k, w in picks)))
        yield ("cli", verb)


def _gen_associator3(rng: random.Random) -> Iterator[tuple]:
    while True:
        for parity, degree in zip(ASSOC_PARITIES, MEMBERSHIP_DEGREES):
            sign = rng.choice((1, -1))
            which = rng.choice(("duality", "pentagon", "hexagon+" if sign > 0 else "hexagon-"))
            yield ("assoc", parity, sign, which)
            pair = tuple(rng.sample(range(len(BRAID_PAIRS)), 2))
            words = rng.sample(lyndon_words(2, degree), rng.randint(1, 3))
            yield ("membership", degree, pair,
                   tuple((w,) + _coefficient(rng) for w in sorted(words)))


def _gen_graph_weights(rng: random.Random) -> Iterator[tuple]:
    # every (graph, streams) pair in turn; streams=1 runs the 200,000
    # samples as one batch, which is slower than two or four
    estimates = itertools.cycle(itertools.product(range(len(ANCHOR_GRAPHS)), MC_STREAMS))
    for enumeration in itertools.cycle(ENUMERATIONS):
        for _ in range(4):
            graph, streams = next(estimates)
            yield ("mc", graph, rng.randrange(2 ** 31), streams)
        yield ("enumerate",) + enumeration


_GENERATORS = {"transport2": _gen_transport2, "associator3": _gen_associator3,
               "graph_weights": _gen_graph_weights}


def generate(workload: str, seed: int, length: int = LIST_LENGTH) -> List[tuple]:
    """The fixed, ordered request list of a workload for one seed."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    stream = _GENERATORS[workload](rng)
    return [next(stream) for _ in range(length)]


def variant(request: tuple) -> tuple:
    """The code path a request takes, ignoring its seeded inputs."""
    kind = request[0]
    if kind in ("cli", "enumerate"):
        return request
    if kind in ("membership", "mc"):
        return request[:2]
    return (kind,)


def warmup_requests(workload: str) -> List[tuple]:
    """One request of every variant, from the fixed warm-up seed."""
    seen, out = set(WARMUP_SKIP), []
    for request in generate(workload, WARMUP_SEED, 100):
        key = variant(request)
        if key not in seen:
            seen.add(key)
            out.append(request)
    return out


# -- running requests ---------------------------------------------------


class Runner:
    """Prepares, executes and checks requests against an imported kvlie."""

    def __init__(self, kvlie_modules):
        self.m = kvlie_modules
        self.serialized_bytes = 0

    # prepare ------------------------------------------------------------

    def prepare(self, request: tuple):
        kind = request[0]
        m = self.m
        if kind == "taut":
            alphabet = m.words.Alphabet(2)
            tables = ({}, {})
            for k, word, num, den in request[1]:
                tables[k][word] = Fraction(num, den)
            return m.derivations.TDer([m.lie.LieSeries(alphabet, TRANSPORT_DEGREE, t)
                                       for t in tables])
        if kind == "membership":
            _, degree, pair, terms = request
            gens = self._braid_gens(degree)
            a, b = gens[pair[0]], gens[pair[1]]
            u = None
            for word, num, den in terms:
                term = self._realize(standard_bracketing(word), (a, b)).scale(Fraction(num, den))
                u = term if u is None else u + term
            if not u:
                raise ValueError("membership input is zero")
            return u
        if kind == "mc":
            edges, _value, _sigmas = ANCHOR_GRAPHS[request[1]]
            return m.graphs.KGraph(max(v for e in edges for v in e if isinstance(v, int)),
                                   edges)
        return None

    def _braid_gens(self, degree: int):
        d = self.m.derivations
        return [d.braid_embed(d.BraidGenerator(i, j, 3), degree) for i, j in BRAID_PAIRS]

    def _realize(self, struct, gens):
        if isinstance(struct, int):
            return gens[struct]
        return self._realize(struct[0], gens).bracket(self._realize(struct[1], gens))

    # execute (timed) ----------------------------------------------------

    def execute(self, request: tuple, prepared):
        kind = request[0]
        m = self.m
        if kind == "taut":
            u = prepared
            g = m.automorphisms.taut_exp(u)
            rebuilt = m.automorphisms.TAutElem(g.images)
            log = m.automorphisms.taut_log(rebuilt)
            inverse = g.invert()
            cocycle = m.automorphisms.j_group_cocycle(g)
            image = g.apply(m.lie.bch_xy(TRANSPORT_DEGREE))
            text = json.dumps(m.serialize.encode_taut(g), sort_keys=True)
            back = m.serialize.decode_taut(json.loads(text))
            self.serialized_bytes += len(text)
            return g, log, inverse, cocycle, image, back
        if kind == "cli":
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = m.cli.main(list(request[1]))
            return code, out.getvalue()
        if kind == "assoc":
            _, parity, sign, which = request
            candidate, report = m.solvers.solve_associator(ASSOC_DEGREE, parity, sign)
            axiom = m.solvers.check_associator_axioms(candidate, which)
            return candidate, report, axiom
        if kind == "membership":
            return m.derivations.tn_membership(prepared)
        if kind == "mc":
            return m.weights.weight_montecarlo(prepared, samples=MC_SAMPLES,
                                               seed=request[2], streams=request[3])
        if kind == "enumerate":
            _, which, n = request
            if which == "lie":
                return m.graphs.enumerate_lie_graphs(n)
            return m.graphs.enumerate_wheel_graphs(n)
        raise ValueError(f"unknown request kind {kind!r}")

    # check ----------------------------------------------------------------

    def check(self, request: tuple, prepared, result) -> Optional[str]:
        kind = request[0]
        if kind == "taut":
            u = prepared
            g, log, inverse, _cocycle, _image, back = result
            if log != u:
                return "taut_log of the rebuilt element differs from u"
            if inverse.log_certificate != -u:
                return "inverse does not carry the log -u"
            if back != g or back.log_certificate != g.log_certificate:
                return "JSON round trip changed the element"
            return None
        if kind == "cli":
            return self._check_cli(request[1], *result)
        if kind == "assoc":
            _candidate, report, axiom = result
            if not report.all_zero():
                return "associator solve left a nonzero residual"
            if not axiom.all_zero():
                return f"axiom check {request[3]} failed"
            return None
        if kind == "membership":
            if result is None:
                return "braid bracket reported outside the span"
            gens = self._braid_gens(request[1])
            total = None
            for label, c in result:
                term = self._realize(self._label_struct(label), gens).scale(c)
                total = term if total is None else total + term
            if total != prepared:
                return "membership coordinates do not rebuild the input"
            return None
        if kind == "mc":
            _edges, value, sigmas = ANCHOR_GRAPHS[request[1]]
            est = result
            if est.samples < MC_SAMPLES * 0.99 or not math.isfinite(est.value):
                return "Monte Carlo estimate lost samples"
            if abs(est.value - value) > sigmas * est.stderr + 1e-12:
                return f"Monte Carlo estimate {est.value} is not within {sigmas} sigma of {value}"
            return None
        if kind == "enumerate":
            want = ENUMERATION_ROWS[request[1:]]
            if len(result) != want:
                return f"enumeration gave {len(result)} rows, expected {want}"
            return None
        return f"unknown request kind {kind!r}"

    @staticmethod
    def _label_struct(label):
        """Braid bracket label -> nested pairs of generator indices."""
        if isinstance(label[0], int):
            return BRAID_PAIRS.index(tuple(label))
        return (Runner._label_struct(label[0]), Runner._label_struct(label[1]))

    @staticmethod
    def _check_cli(argv: Tuple[str, ...], code: int, stdout: str) -> Optional[str]:
        if code != 0:
            return f"{' '.join(argv)} exited with {code}"
        doc = json.loads(stdout)
        if argv[0] == "kv-solve":
            report = doc["report"]
            if not all(r["residual_zero"] for r in report["records"]):
                return "KV report has a nonzero residual"
            if report["notes"].get("defining_residual_zero") is not True:
                return "KV defining residual is nonzero"
            return None
        if argv[0] == "duflo":
            # the Duflo density opens with -(1/24) tr(xy) and has no linear part
            terms = {t["necklace"]: Fraction(t["coeff"]) for t in doc["terms"]}
            degree2 = {w: c for w, c in terms.items() if len(w) == 2}
            if degree2 != {"xy": Fraction(-1, 24)} or any(len(w) < 2 for w in terms):
                return "Duflo density does not open with -(1/24) tr(xy)"
            return None
        return f"no check for verb {argv[0]}"
