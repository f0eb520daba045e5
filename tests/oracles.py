"""Written-out model quantities that the package itself never evaluates."""

from kinctrl.params import STRATEGY_RULES


def drift(p, c, m, x):
    """Drift C(x) of rule c at reference mean m: the rule's drift terms
    weighted by powers of its mean scalar, as the operator build sums them."""
    rule = STRATEGY_RULES[c.strategy]
    s = rule.scalar(m, p)
    return sum(s**k * term for k, term in enumerate(rule.drift_terms(x, p, c)))
