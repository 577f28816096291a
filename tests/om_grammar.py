"""Random expressions that are operator monotone by construction, and ones that are not.

Every expression `monotone` builds is operator monotone (OM) on (0, inf),
by these rules (Bhatia, Matrix Analysis, ch. V):
  * t, and any constant;
  * f + g, and c f for c > 0;
  * f^p for p in (0, 1], and sqrt(f), where f >= 0;
  * log(c + f), where c + f > 0;
  * d - d/(e + f) for d, e > 0, where e + f > 0;
  * t/(c + f) for c > 0, where c + f > 0: the Kubo-Ando adjoint.
An OM function on (0, inf) increases, so it lies above its limit at 0+
there. Each node carries that limit, and a rule applies only where the
limit keeps its argument positive (non-negative for a power).

`growing` builds f + c t^p with f from the grammar, c > 0 and p > 1. No
such function is OM: an OM function on (0, inf) grows at most linearly.

Expressions are strings in parse_function's syntax. Every constant is
written to three significant digits, and each limit is computed from the
constant as written.

Run as a script, it counts the expressions of each grammar that the sampler
refutes at the CLI defaults (1,000 trials, seed 42):

    PYTHONPATH=src python tests/om_grammar.py [count] [seed]
"""
import math
import sys

import numpy as np

from opmeans import MonoConfig, is_operator_monotone_sampled, parse_function

# expressions of the grammar that the CLI defaults refuted, found by
# earlier runs with constants drawn from as wide as 1e-12 to 1e12
PINNED = [
    "log(0.00129 + t/(0.0262 + t))",
    "log(0.00319 + t/(0.00262 + (0.000157 + t)))",
    "(t + ((0.00789 + (t)^0.879) + (392000 - 392000/(8.45e-06 + t/(1.19e-06 + t)))))",
    "(1.74 - 1.74/(7.41e-06 + t/(6.09e-06 + t)))",
    "log(0.000123 + t/(0.104 + t))",
    "(238000 - 238000/(1.01 + 5.73*1.09e-05*(t)^0.348))",
    "5.42e+07*log(1.41e-09 + (sqrt(t/(6.19e-09 + t)))^0.151)",
    "(2.58e-06 - 2.58e-06/(4.22e-05 + t/(7.08e-09 + (1.67e-09 + t))))",
    "16300*(2.32 - 2.32/(0.00072 + sqrt(sqrt(t/(0.000159 + t)))))",
    "29000*log(8.06e-06 + t/(1.24e-06 + t))",
    "log(3.3e-09 + t/(1.88e-07 + t))",
    "1.41e+07*(17400 - 17400/(0.0127 + t/(3.38e-06 + t)))",
    "log(2.39e-09 + (((log(584 + t))^0.37)^0.25)^0.073)",
    "(8.38e-09 + (29.3 - 29.3/(0.000233 + (1.33e-09 + t/(0.168 + t)))))",
    "84.8*(4.65e-07 - 4.65e-07/(1.18e-05 + t/(3.71e-05 + t)))",
    "(1.07e-06 - 1.07e-06/(9.89e-08 + (t/(1.43e-05 + t) + t/(1.53e+06 + t))))",
    "(33.6 - 33.6/(0.000541 + t/(2.46e-06 + t)))",
    "(8.13e-09 + (0.00508 - 0.00508/(1.19e-06 + t/(0.000461 + t))))",
    "0.0117*log(1.2e-09 + t/(1.09e-07 + t))",
    "9.81e-10*(547000 - 547000/(0.00983 + t/(0.0317 + t)))",
    "log(3.4e-07 + t/(0.105 + t))",
]


def _constant(rng, lo: float = -9.0, hi: float = 9.0) -> float:
    """A constant drawn log-uniformly from [10^lo, 10^hi], as written."""
    return float(f"{10.0 ** rng.uniform(lo, hi):.3g}")


def monotone(rng, depth=None) -> tuple:
    """(text, limit at 0+) of an OM expression at most depth rules deep (4
    or 5 when not given), its constants drawn from 1e-9 to 1e9."""
    if depth is None:
        depth = int(rng.integers(4, 6))
    if depth == 0 or rng.random() < 0.15:
        if rng.random() < 0.9:
            return "t", 0.0
        c = _constant(rng)
        return f"{c:.3g}", c
    f, low = monotone(rng, depth - 1)
    c, d = _constant(rng), _constant(rng)
    rules = ["sum", "scale"] + ["power", "sqrt"] * (low >= 0.0) + [
        "log", "ratio", "adjoint"] * (c + low > 0.0)
    rule = rules[rng.integers(len(rules))]
    if rule == "sum":
        g, low_g = monotone(rng, depth - 1)
        return f"({f} + {g})", low + low_g
    if rule == "scale":
        return f"{c:.3g}*{f}", c * low
    if rule == "power":
        p = float(f"{rng.uniform(0.05, 1.0):.3g}")
        return f"({f})^{p:.3g}", low ** p
    if rule == "sqrt":
        return f"sqrt({f})", math.sqrt(low)
    if rule == "log":
        return f"log({c:.3g} + {f})", math.log(c + low)
    if rule == "ratio":
        return f"({d:.3g} - {d:.3g}/({c:.3g} + {f}))", d - d / (c + low)
    return f"t/({c:.3g} + {f})", 0.0


def growing(rng) -> str:
    """f + c t^p for an OM f of the grammar, c from 1e-6 to 1 and p in (1, 2]."""
    c = _constant(rng, -6.0, 0.0)
    p = float(f"{rng.uniform(1.01, 2.0):.3g}")
    return f"{monotone(rng)[0]} + {c:.3g}*t^{p:.3g}"


def refuted(expressions) -> list:
    """The expressions that is_operator_monotone_sampled refutes at the CLI defaults."""
    config = MonoConfig(trials=1000, seed=42)
    return [e for e in expressions
            if is_operator_monotone_sampled(parse_function(e), None, config).refuted]


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 150
    rng = np.random.default_rng(int(sys.argv[2]) if len(sys.argv) > 2 else 0)
    batch = [monotone(rng)[0] for _ in range(count)]
    growth = [growing(rng) for _ in range(count)]
    false = refuted(batch)
    for expr in false:
        print("refuted, though operator monotone:", expr)
    print(f"grammar: {len(false)} of {count} refuted; "
          f"growth grammar: {len(refuted(growth))} of {count} refuted")
