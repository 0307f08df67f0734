"""Acceptance gate for the package guarantees.

Each test checks one advertised guarantee end to end and prints a single
pass/fail line (visible with ``pytest -s``).  Every comparison here is
exact: the arithmetic is rational throughout and no check admits a
tolerance.
"""

import json
import math
import random
from fractions import Fraction

from conftest import family, rand_poly, rand_poly_nonzero
from oracles import divide_by_linear_system
from polydegen import (
    MultiPoly,
    PolyEndo,
    TriangularDerivation,
    build_stabilization,
    check_wild_at_zero,
    factor_kind,
    slice_coefficients,
)
from polydegen.cli import main

LS = (1, 2, 3, 4)
ALPHAS = (1, -1, 2, Fraction(1, 2), 5)


def _run(number, name, body):
    problems = []
    try:
        body(problems)
    except Exception as exc:
        problems.append(f"raised {type(exc).__name__}: {exc}")
    verdict = "PASS" if not problems else "FAIL"
    print(f"acceptance {number:02d} {name}: {verdict}")
    assert not problems, f"{name}: " + "; ".join(problems)


def _need(problems, ok, message):
    if not ok:
        problems.append(message)


def _vars3():
    return (
        MultiPoly.variable(3, 1),
        MultiPoly.variable(3, 2),
        MultiPoly.variable(3, 3),
        MultiPoly.parameter(3),
    )


def _t_free(poly):
    return all(key[-1] == 0 for key, _ in poly.terms())


def test_criterion_01_family_construction():
    def body(problems):
        x1, x2, _, t = _vars3()
        for l in LS:
            c = slice_coefficients(l)
            _need(problems, len(c) == l + 1, f"l={l}: wrong coefficient count")
            _need(problems, c[0] == l + 1, f"l={l}: c_0 != l+1")
            for i in range(1, l + 1):
                _need(
                    problems,
                    (2 * i + 1) * c[i] == -(l - i + 1) * c[i - 1],
                    f"l={l}: recurrence fails at i={i}",
                )
        fam1 = family(1)
        _need(
            problems,
            slice_coefficients(1) == (Fraction(2), Fraction(-2, 3)),
            "l=1 coefficients are not (2, -2/3)",
        )
        g2_expected = x2 - x1**2 * (2 * t) ** -1
        _need(problems, fam1.tau.images[1] == g2_expected, "l=1: g2 != x2 - x1^2/(2t)")

    _run(1, "family construction", body)


def test_criterion_02_kernel_identities():
    def body(problems):
        for l in LS:
            fam = family(l)
            g2, g3 = fam.tau.images[1:]
            for name, poly in (("g2", g2), ("g3", g3), ("h", fam.h)):
                _need(
                    problems,
                    fam.delta.apply(poly).is_zero(),
                    f"l={l}: delta({name}) != 0",
                )

    _run(2, "kernel identities", body)


def test_criterion_03_conjugation_identity():
    def body(problems):
        for l in LS:
            fam = family(l)
            conjugated = fam.tau.compose(fam.epsilon.compose(fam.tau_inv))
            _need(
                problems,
                conjugated == fam.delta.exp(fam.h),
                f"l={l}: tau o epsilon o tau_inv != exp(h*delta)",
            )
            _need(
                problems,
                conjugated == fam.automorphism,
                f"l={l}: stored automorphism disagrees",
            )

    _run(3, "conjugation identity", body)


def test_criterion_04_limit_claim():
    def body(problems):
        x1, x2, x3, _ = _vars3()
        for l in LS:
            fam = family(l)
            _need(problems, fam.h.is_t_regular(), f"l={l}: h has a pole at t=0")
            closed = x1 ** (2 * l) * (x1 * x3 + x2 ** (l + 1))
            _need(
                problems,
                fam.h.specialize_t(0) == closed,
                f"l={l}: h at t=0 is not x1^(2l)*(x1*x3 + x2^(l+1))",
            )
            _need(
                problems,
                fam.automorphism.specialize(0) == fam.delta.specialize(0).exp(closed),
                f"l={l}: t=0 fiber is not exp(h_limit * delta_0)",
            )

    _run(4, "limit claim", body)


def test_criterion_05_wildness_verdict():
    def body(problems):
        for l in LS:
            report = check_wild_at_zero(family(l).delta, family(l).h)
            _need(problems, report.verdict == "wild", f"l={l}: verdict not wild")
            _need(
                problems,
                report.f2_residue_nonzero,
                f"l={l}: first condition flag false",
            )
            _need(
                problems,
                report.h_residue_not_in_x1,
                f"l={l}: second condition flag false",
            )
            _need(
                problems,
                report.derivative_outside_ideal,
                f"l={l}: third condition flag false",
            )
        x1, x2, x3, t = _vars3()
        control = TriangularDerivation((t, x1, x1 * x2))
        control_h = x2**2 - 2 * x3
        report = check_wild_at_zero(control, control_h)
        _need(
            problems,
            report.f2_residue_nonzero and report.h_residue_not_in_x1,
            "control: first two flags should stay true",
        )
        _need(
            problems,
            not report.derivative_outside_ideal,
            "control with f3 = x1*x2: third flag should be false",
        )
        _need(problems, report.verdict == "tame", "control: verdict not tame")

    _run(5, "wildness verdict", body)


def test_criterion_06_tame_fibers():
    def body(problems):
        for l in LS:
            cert = family(l)
            for alpha in ALPHAS:
                from polydegen import specialized_tameness

                word = specialized_tameness(cert, alpha)
                _need(
                    problems,
                    len(word.factors) == 3,
                    f"l={l}, alpha={alpha}: not a three-factor word",
                )
                fiber = cert.automorphism.specialize(alpha)
                _need(
                    problems,
                    word.fiber == fiber,
                    f"l={l}, alpha={alpha}: stored fiber differs",
                )
                _need(
                    problems,
                    PolyEndo.compose_chain(word.factors) == fiber,
                    f"l={l}, alpha={alpha}: word does not compose to the fiber",
                )
                for pos, factor in enumerate(word.factors):
                    _need(
                        problems,
                        all(_t_free(image) for image in factor.images),
                        f"l={l}, alpha={alpha}: factor {pos} not over Q",
                    )
                    kind = factor_kind(factor)
                    _need(
                        problems,
                        kind in ("triangular", "triangular-after-reordering"),
                        f"l={l}, alpha={alpha}: factor {pos} kind {kind}",
                    )

    _run(6, "tame fibers", body)


def test_criterion_07_smith_stabilization():
    def body(problems):
        for l in (1, 2):
            fam = family(l)
            stab = build_stabilization(fam.delta, fam.h)
            word = stab.factor_word()
            _need(problems, len(word) == 4, f"l={l}: not a four-factor word")
            extension = fam.automorphism.extend_arity(4)
            _need(
                problems,
                stab.extension == extension,
                f"l={l}: stored extension differs from extend_arity(4)",
            )
            _need(
                problems,
                PolyEndo.compose_chain(word) == extension,
                f"l={l}: commutator word differs over Q[t]",
            )
            for alpha in (0, 1, -1):
                specialized = tuple(f.specialize(alpha) for f in word)
                _need(
                    problems,
                    PolyEndo.compose_chain(specialized)
                    == extension.specialize(alpha),
                    f"l={l}, alpha={alpha}: specialized word differs",
                )

    _run(7, "smith stabilization", body)


def test_criterion_08_slice_map_properties():
    def body(problems):
        fam = family(1)
        delta = fam.delta
        sigma = delta.sigma
        x1, _, _, t = _vars3()
        _need(problems, sigma(x1).is_zero(), "sigma(x1) != 0")
        rng = random.Random(88001)
        polys = [rand_poly(rng, arity=3, max_degree=5, terms=5) for _ in range(100)]
        sigmas = [sigma(q) for q in polys]
        ratio = x1 * t**-1
        bad_idem = bad_kernel = bad_mult = bad_taylor = 0
        for i, q in enumerate(polys):
            s = sigmas[i]
            if sigma(s) != s:
                bad_idem += 1
            if not delta.apply(s).is_zero():
                bad_kernel += 1
            j = (i + 1) % len(polys)
            if sigma(q * polys[j]) != s * sigmas[j]:
                bad_mult += 1
            total = MultiPoly.zero(3)
            d = q
            k = 0
            while not d.is_zero():
                total = total + sigma(d) * ratio**k / math.factorial(k)
                d = delta.apply(d)
                k += 1
            if total != q:
                bad_taylor += 1
        _need(problems, bad_idem == 0, f"idempotence failed on {bad_idem}/100")
        _need(problems, bad_kernel == 0, f"kernel property failed on {bad_kernel}/100")
        _need(problems, bad_mult == 0, f"multiplicativity failed on {bad_mult}/100")
        _need(
            problems,
            bad_taylor == 0,
            f"Taylor reconstruction failed on {bad_taylor}/100",
        )

    _run(8, "slice map properties", body)


def test_criterion_09_oracle_equivalence():
    def body(problems):
        x1, x2, x3, t = _vars3()
        for l in LS:
            fam = family(l)
            g2_formula = x2 - x1**2 * (2 * t) ** -1
            g3_formula = x3
            for i, c_i in enumerate(slice_coefficients(l)):
                g3_formula = g3_formula + MultiPoly(3, {(2 * i + 1, l - i, 0, -(i + 1)): c_i})
            _need(
                problems,
                fam.delta.sigma(x2) == g2_formula,
                f"l={l}: sigma(x2) differs from the g2 formula",
            )
            _need(
                problems,
                fam.delta.sigma(x3) == g3_formula,
                f"l={l}: sigma(x3) differs from the g3 formula",
            )
        rng = random.Random(99002)
        no_quotient = with_quotient = trials = 0
        while no_quotient < 12 or with_quotient < 8:
            trials += 1
            if trials > 400:
                problems.append(
                    f"could not collect division instances "
                    f"({no_quotient} none, {with_quotient} exact)"
                )
                break
            divisor = rand_poly_nonzero(
                rng, arity=3, max_degree=2, terms=3, min_t=-1, max_t=1
            )
            if rng.random() < 0.5:
                quotient = rand_poly(
                    rng, arity=3, max_degree=2, terms=3, min_t=-1, max_t=1
                )
                dividend = quotient * divisor
            else:
                dividend = rand_poly(
                    rng, arity=3, max_degree=4, terms=4, min_t=-1, max_t=1
                )
            if dividend.is_zero():
                continue
            got = dividend.exact_divide(divisor)
            want = divide_by_linear_system(dividend, divisor)
            if (got is None) != (want is None):
                problems.append(f"divisibility disagreement on trial {trials}")
                break
            if got is None:
                no_quotient += 1
                continue
            if got != want or got * divisor != dividend:
                problems.append(f"quotient mismatch on trial {trials}")
                break
            with_quotient += 1

    _run(9, "oracle equivalence", body)


def test_criterion_10_cli_round_trip(tmp_path):
    def body(problems):
        def emit(args, name):
            path = tmp_path / name
            code = main(args + ["--out", str(path)])
            _need(problems, code == 0, f"emit {name}: exit {code}")
            return path

        def verify(path):
            return main(["verify", "--in", str(path)])

        emitted = {
            "family.json": emit(["family", "--l", "1"], "family.json"),
            "word.json": emit(
                ["specialize", "--l", "1", "--alpha", "2"], "word.json"
            ),
            "wild.json": emit(
                ["specialize", "--l", "1", "--alpha", "0"], "wild.json"
            ),
            "smith.json": emit(["smith", "--l", "1"], "smith.json"),
        }
        for name, path in emitted.items():
            code = verify(path)
            _need(problems, code == 0, f"verify {name}: exit {code}")

        def perturb(doc):
            if doc["kind"] == "family":
                before = doc["g2"]
                doc["g2"] = before.replace("-1/2", "-1/3", 1)
                return doc["g2"] != before
            if doc["kind"] == "tameness_word":
                doc["factors"][0][0] = doc["factors"][0][0] + " + 7"
                return True
            if doc["kind"] == "wildness":
                doc["h"] = doc["h"] + " + 7"
                return True
            if doc["kind"] == "stabilization":
                doc["gamma"][-1] = doc["gamma"][-1] + " + 7"
                return True
            return False

        for name, path in emitted.items():
            doc = json.loads(path.read_text())
            _need(problems, perturb(doc), f"{name}: perturbation did not apply")
            broken = tmp_path / f"broken_{name}"
            broken.write_text(json.dumps(doc))
            code = verify(broken)
            _need(
                problems,
                code == 1,
                f"perturbed {name}: expected exit 1, got {code}",
            )

    _run(10, "cli round trip", body)


def test_criterion_11_smith_l3_round_trip(tmp_path):
    def body(problems):
        doc_path = tmp_path / "smith3.json"
        report_path = tmp_path / "report.json"
        code = main(["smith", "--l", "3", "--out", str(doc_path)])
        _need(problems, code == 0, f"smith --l 3: exit {code}")
        code = main(["verify", "--in", str(doc_path), "--format", "json", "--out", str(report_path)])
        _need(problems, code == 0, f"verify of smith --l 3: exit {code}")
        report = json.loads(report_path.read_text())
        _need(problems, report["transcript_matches"], "transcript does not match")
        _need(problems, len(report["checks"]) > 0, "no identity was checked")
        failed = [c["identity"] for c in report["checks"] if not c["pass"]]
        _need(problems, not failed, f"failed identities: {failed}")

    _run(11, "smith stabilization at l = 3", body)
