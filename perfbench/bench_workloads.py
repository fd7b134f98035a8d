"""The four benchmark workloads: seeded inputs, one operation, output checks.

Every workload calls cyclorank only through module attributes looked up at
call time (`self.cr.scan.scan_rank3`, ...), so the tracer's wrappers are seen
while installed and the originals once restored.  All checks run outside the
timed operations:

* scans: every rendered CSV and JSON must hash to the digest recorded in
  `expected.json`;
* queries: a digest of every returned field, failed queries included, must
  repeat on every pass over the inputs, and its prefix must match the digest
  recorded for the seed when `expected.json` has one;
* all: a seeded sample is cross-checked against an independent oracle
  (`represent_4n_bruteforce`, the factorial criterion, `m_class_direct`, or
  the Euler-criterion alpha below).

Each disagreement is a failed operation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import bench_inputs

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# A failed operation's entry in the query digests.
FAILED = "!{}"


def load_expected() -> dict:
    if not EXPECTED_PATH.is_file():
        return {}
    return json.loads(EXPECTED_PATH.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reference_alpha(n: int, p: int) -> int:
    """alpha by the Euler criterion: U^((N-1)/p) == 1, with U in plain integers."""
    e = (n - 1) // p
    g = 2
    while pow(g, e, n) == 1:
        g += 1
    f = pow(g, e, n)
    alpha = 0
    for i in range(2, p - 2, 2):
        k = p - 1 - i
        u = 1
        for j in range(1, p):
            u = u * pow((1 - pow(f, j, n)) % n, j**k, n) % n
        alpha += pow(u, e, n) == 1
    return alpha


class Workload:
    """Base: subclasses define `op`, `units` and the checks."""

    name = ""
    trace_ops = 1  # operations in the traced pass (and its untraced reference)
    block = 1  # a time-bounded run stops only after a multiple of this many operations

    def __init__(self, cr, seed: int, expected: dict) -> None:
        self.cr = cr
        self.seed = seed
        self.expected = expected.get(self.name, {})
        self.problems: list[str] = []
        self.warm_up()

    def warm_up(self) -> None:
        """Touch every code path once so lazy set-up is paid in set-up time."""

    def op(self, i: int):
        raise NotImplementedError

    def units(self, result) -> int:
        """Primes handled by one operation."""
        return 1

    def input_of(self, i: int) -> int:
        """Which distinct input operation i runs."""
        return 0

    def record(self, i: int, result, error: str | None) -> None:
        """Check one operation's output; called outside the timed region."""

    def oracle_check(self) -> None:
        """Cross-check a seeded sample against independent oracles."""

    def rendered_bytes(self, result) -> int:
        return 0

    def digest(self) -> str | None:
        return None


# -- scans -----------------------------------------------------------------


class _ScanWorkload(Workload):
    def rendered_bytes(self, result) -> int:
        return sum(len(t.encode()) for t in result[1].values())

    def units(self, result) -> int:
        return result[0]

    def __init__(self, cr, seed: int, expected: dict) -> None:
        self.observed: dict[str, str] = {}
        super().__init__(cr, seed, expected)

    def record(self, i: int, result, error: str | None) -> None:
        if error is not None:
            return
        for key, text in result[1].items():
            got = self.observed[key] = sha256(text)
            want = self.expected.get(key)
            if want is None:
                self.problems.append(f"{self.name}: no recorded digest for {key}")
            elif got != want:
                self.problems.append(f"{self.name}: {key} digest {got[:12]} != {want[:12]}")

    def digest(self) -> str | None:
        return sha256(json.dumps(self.observed, sort_keys=True))


class Rank3Scan(_ScanWorkload):
    name = "rank3_scan"
    LIMIT = 1_500_000
    CLASSES = (1, 4, 7)
    SHARDS = 4

    def warm_up(self) -> None:
        s = self.cr.scan.scan_rank3(20_000, self.CLASSES, shards=self.SHARDS, workers=1)
        self.cr.reporting.render(s, "csv")
        self.cr.reporting.render(s, "json")

    def op(self, i: int):
        s = self.cr.scan.scan_rank3(self.LIMIT, self.CLASSES, shards=self.SHARDS, workers=1)
        render = self.cr.reporting.render
        return s.total, {"csv": render(s, "csv"), "json": render(s, "json")}

    def oracle_check(self) -> None:
        cr = self.cr
        for n in bench_inputs.sample_primes(self.seed, "rank3_rep", 3, 100, self.LIMIT, 200):
            got = cr.eisenstein.represent_4n(n)
            want = cr.eisenstein.represent_4n_bruteforce(n)
            if (got.A, got.B) != (want.A, want.B):
                self.problems.append(f"represent_4n({n}) = {got} != bruteforce {want}")
        for n in bench_inputs.sample_primes(self.seed, "rank3_fact", 9, 100, 200_000, 20):
            got, want = cr.rank.rank3(n), cr.rank.rank3(n, "factorial")
            if got != want:
                self.problems.append(f"rank3({n}) = {got} != factorial {want}")


class AlphaScan(_ScanWorkload):
    name = "alpha_scan"
    LIMIT = 1_000_000
    PS = (5, 7, 13)

    def warm_up(self) -> None:
        for p in self.PS:
            s = self.cr.scan.scan_alpha(p, 20_000, workers=1)
            self.cr.reporting.render(s, "csv")
            self.cr.reporting.render(s, "json")

    def op(self, i: int):
        total = 0
        texts = {}
        render = self.cr.reporting.render
        for p in self.PS:
            s = self.cr.scan.scan_alpha(p, self.LIMIT, workers=1)
            total += s.total
            texts[f"p{p}.csv"] = render(s, "csv")
            texts[f"p{p}.json"] = render(s, "json")
        return total, texts

    def oracle_check(self) -> None:
        inv, modmath = self.cr.invariants, self.cr.modmath
        for p in self.PS:
            for n in bench_inputs.sample_primes(self.seed, f"alpha{p}", p, 100, self.LIMIT, 60):
                got = inv.alpha_count(modmath.ModulusContext(n, p)).alpha
                want = reference_alpha(n, p)
                if got != want:
                    self.problems.append(f"alpha({n}, {p}) = {got} != reference {want}")


# -- query loops -----------------------------------------------------------


class _QueryWorkload(Workload):
    CHECKED = 1  # leading queries covered by the recorded per-seed digest

    def __init__(self, cr, seed: int, expected: dict) -> None:
        self.queries = self.make_queries(seed)
        self.first_pass: list[str] = []
        self.kept: dict[int, object] = {}
        super().__init__(cr, seed, expected)

    def make_queries(self, seed: int) -> list[tuple[int, int]]:
        raise NotImplementedError

    def input_of(self, i: int) -> int:
        return i % len(self.queries)

    def fields(self, result) -> tuple:
        raise NotImplementedError

    def keep(self, i: int, n: int, p: int) -> bool:
        """Whether query i's result is kept for the oracle cross-check."""
        return False

    def record(self, i: int, result, error: str | None) -> None:
        line = FAILED.format(error) if error is not None else repr(self.fields(result))
        j = self.input_of(i)
        if j == len(self.first_pass):
            self.first_pass.append(line)
            if error is None and self.keep(j, *self.queries[j]):
                self.kept[j] = result
        elif self.first_pass[j] != line:
            self.problems.append(f"{self.name}: query {j} changed between passes")

    def digest(self) -> str | None:
        return sha256("\n".join(self.first_pass[: self.CHECKED]))

    def check_digest(self) -> None:
        want = self.expected.get(str(self.seed))
        if want is not None and len(self.first_pass) >= self.CHECKED and self.digest() != want:
            self.problems.append(f"{self.name}: seed {self.seed} digest differs from expected.json")


class PointQueries(_QueryWorkload):
    name = "point_queries"
    trace_ops = 3000
    block = bench_inputs.block_size(bench_inputs.POINT_PS)
    CHECKED = 2000

    def make_queries(self, seed: int) -> list[tuple[int, int]]:
        self.probe = bench_inputs.overflow_probe(seed)
        return bench_inputs.point_queries(seed)

    def warm_up(self) -> None:
        for n, p in ((61, 3), (11, 5), (29, 7), (53, 13)):
            self.cr.rank.bounds(n, p)

    def op(self, i: int):
        n, p = self.queries[self.input_of(i)]
        return self.cr.rank.bounds(n, p)

    def fields(self, r) -> tuple:
        t = r.target_class
        rep = (r.rep.A, r.rep.B) if r.rep is not None else None
        return (r.n, r.p, t.residue_mod_p2, t.pi_ramified, t.zeta_is_norm, rep,
                r.exact_rank3, r.methods_agreed, r.alpha, r.lower, r.upper,
                r.coarse_lower, r.coarse_upper, r.cl_f_upper)

    def keep(self, i: int, n: int, p: int) -> bool:
        if p == 3:
            return n <= 10**6
        return i % 25 == self.seed % 25  # about 300 of the p >= 5 queries

    def oracle_check(self) -> None:
        self.check_digest()
        cr = self.cr
        factorial_left = 40
        for i, r in sorted(self.kept.items()):
            n, p = r.n, r.p
            if p != 3:
                if r.alpha != reference_alpha(n, p):
                    self.problems.append(f"bounds({n}, {p}).alpha = {r.alpha} != reference")
                continue
            if not r.methods_agreed:
                self.problems.append(f"bounds({n}, 3): rank-3 methods disagree")
            brute = cr.eisenstein.represent_4n_bruteforce(n)
            if (r.rep.A, r.rep.B) != (brute.A, brute.B):
                self.problems.append(f"bounds({n}, 3).rep = {r.rep} != bruteforce {brute}")
            if n % 9 == 1 and n <= 200_000 and factorial_left:
                factorial_left -= 1
                if r.exact_rank3 != cr.rank.rank3(n, "factorial"):
                    self.problems.append(f"bounds({n}, 3).exact_rank3 != factorial criterion")

    def probe_errors(self) -> dict[str, int]:
        """Attempt the p = 3 queries above the timed range; count failures by class."""
        errors: dict[str, int] = {}
        for n, p in self.probe:
            try:
                self.cr.rank.bounds(n, p)
            except Exception as exc:  # counted, never raised: the probe measures failures
                key = type(exc).__name__
                errors[key] = errors.get(key, 0) + 1
        return errors


class Invariants(_QueryWorkload):
    name = "invariants"
    block = bench_inputs.block_size(bench_inputs.INVARIANT_PS)
    trace_ops = block
    CHECKED = 16

    def make_queries(self, seed: int) -> list[tuple[int, int]]:
        return bench_inputs.invariant_queries(seed)

    def warm_up(self) -> None:
        self.cr.invariants.invariant_record(1093, 7)

    def op(self, i: int):
        n, p = self.queries[self.input_of(i)]
        return self.cr.invariants.invariant_record(n, p)

    def fields(self, r) -> tuple:
        return (r.n, r.p, r.f, r.m_cls.index,
                tuple((i, c.index) for i, c in sorted(r.mi_classes.items())),
                tuple((k, u.value, u.cls.index) for k, u in sorted(r.mk_products.items())),
                r.mu, r.cl_f_upper, r.alpha, tuple(sorted(r.power_flags.items())))

    def keep(self, i: int, n: int, p: int) -> bool:
        return i % 8 == self.seed % 8

    def oracle_check(self) -> None:
        self.check_digest()
        inv, modmath = self.cr.invariants, self.cr.modmath
        for i, r in sorted(self.kept.items())[:6]:
            want = inv.m_class_direct(modmath.ModulusContext(r.n, r.p), r.f).index
            if r.m_cls.index != want:
                self.problems.append(f"m_class({r.n}, {r.p}) = {r.m_cls.index} != direct {want}")


WORKLOADS = {w.name: w for w in (Rank3Scan, AlphaScan, PointQueries, Invariants)}
