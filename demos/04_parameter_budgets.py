"""
Model-size accounting without building the model
================================================

Every tensor in the separator has a closed-form size, so whole-model
budgets come from arithmetic. This script prints the nine reference
configurations, then verifies one of them against the built model.
"""

from casep.analyzer import REFERENCE_BUDGETS, model_param_report
from casep.model import Separator

print(f"{'configuration':44s} {'analytic':>12s} {'target':>8s} {'off by':>7s}")
for budget in REFERENCE_BUDGETS:
    report = model_param_report(budget.config)
    rel = (report.total_analytic - budget.expected_total) / budget.expected_total
    print(f"{budget.label:44s} {report.total_analytic:12,d} "
          f"{budget.expected_total / 1e6:6.1f}M {rel * 100:+6.2f}%")

# Cross-layer sharing is where the big savings come from: one tied layer
# set serves every repeat, so the masking network shrinks by the repeat
# count while the architecture (and compute) stays identical.
tied = REFERENCE_BUDGETS[6]
untied = REFERENCE_BUDGETS[3]
tied_layers = model_param_report(tied.config).mask_net
untied_layers = model_param_report(untied.config).mask_net
print(f"\nmasking-network layers, untied vs tied: "
      f"{untied_layers:,d} vs {tied_layers:,d} "
      f"({untied_layers // tied_layers}x)")

# The analytic count must match an exact enumeration of the built model.
model = Separator.build(tied.config, seed=0)
report = model_param_report(tied.config, model)
print(f"\n{tied.label}")
print(f"  analytic   {report.total_analytic:,d}")
print(f"  enumerated {report.total_empirical:,d}")
print(f"  equal: {report.total_analytic == report.total_empirical}")
