"""Forward feature selection on a corpus where the answer is known.

Only slots 0 and 1 carry class information; the other 26 slots are pure
noise. The stepwise search should pick up both informative slots and then
stop, because adding a noise slot buys no fit but costs description length.
"""

import numpy as np

from vocalnet.dataset import make_corpus, plan_folds
from vocalnet.features import FEATURE_NAMES
from vocalnet.mlp import TrainingConfig
from vocalnet.pipeline import train_all_folds
from vocalnet.selection import forward_select

rng = np.random.default_rng(3)
centers = [(0, 0), (4, 0), (0, 4)]

paths, labels, rows = [], [], []
for name, (cx, cy) in zip(["species_a", "species_b", "species_c"], centers):
    for i in range(20):
        v = rng.standard_normal(28)
        v[0] = cx + 0.3 * rng.standard_normal()
        v[1] = cy + 0.3 * rng.standard_normal()
        paths.append(f"{name}/{i}")
        labels.append(name)
        rows.append(v)
corpus = make_corpus(paths, labels, rows)

folds = plan_folds(corpus, seed=0)
config = TrainingConfig(max_epochs=200, seed=0)
trace = forward_select(corpus, folds, hidden_width=3, hidden_layers=1,
                       config=config)

print("accepted slots, in order:")
for step in trace.steps:
    if step.accepted:
        print(f"  round {step.round}: slot {step.slot:2d} "
              f"({FEATURE_NAMES[step.slot]}), score {step.mdl:.2f}")
print(f"\nfinal subset: {[FEATURE_NAMES[i] for i in trace.final_subset]}")
print(f"candidate trainings recorded in the trace: {len(trace.steps)}")

run = train_all_folds(corpus, folds, config, feature_slots=trace.final_subset)
print(f"10-fold accuracy with the selected subset: "
      f"{run.summary.mean_accuracy:.2f}%")
