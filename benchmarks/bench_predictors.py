"""Extension — predictor accuracy/overhead trade-off (§IV-A's open question).

Sweeps the predictor functions (lookback-1/2/4/8, adaptive, oracle,
uniform) on representative members and reports spec-1 accuracy plus the
end-to-end RR kernel time under each.  Expected shapes: accuracy is
monotone in the lookback window; the oracle bounds everything; the paper's
lookback-2 sits at a sweet spot (longer windows barely help on these FSMs
but cost more prediction work).
"""

from functools import partial

from benchmarks.conftest import emit
from repro.analysis.tables import render_table
from repro.schemes import RRScheme
from repro.speculation.chunks import partition_input
from repro.speculation.predictor import (
    predict_adaptive,
    predict_oracle,
    predict_start_states,
    predict_uniform,
    true_start_states,
)

INPUT = 32_768
PREDICTORS = [
    ("uniform", predict_uniform),
    *(
        (f"lookback-{w}", partial(predict_start_states, lookback=w))
        for w in (1, 2, 4, 8)
    ),
    ("adaptive", partial(predict_adaptive, target_candidates=4, max_window=16)),
    ("oracle", predict_oracle),
]


def measure(member, predictor):
    training = member.training_input(8_192)
    data = member.generate_input(INPUT, seed=0)
    # Offline accuracy on the training slice.
    p = partition_input(training, 32)
    pred = predictor(member.dfa, p, member.dfa.start)
    truth = true_start_states(member.dfa, p)
    acc = pred.accuracy_against(truth, k=1)
    # End-to-end cost under RR.
    scheme = RRScheme.for_dfa(
        member.dfa, n_threads=128, training_input=training, predictor=predictor
    )
    result = scheme.run(data)
    assert result.end_state == member.dfa.run(data)
    return acc, result.cycles


def test_predictor_tradeoff(benchmark, members):
    def experiment():
        picks = [members["snort"][2], members["snort"][7]]  # sre + rr regimes
        out = {}
        rows = []
        for member in picks:
            per = {}
            for name, predictor in PREDICTORS:
                per[name] = measure(member, predictor)
            out[member.name] = per
            for name, (acc, cycles) in per.items():
                rows.append([member.name, name, acc, cycles])
        table = render_table(
            ["fsm", "predictor", "spec-1 accuracy", "RR cycles"],
            rows,
            precision=3,
            title="Predictor accuracy/overhead trade-off",
        )
        emit("predictors", table)
        return out

    out = benchmark.pedantic(experiment, rounds=1, iterations=1)

    for member_name, per in out.items():
        # Accuracy monotone in window length (within tolerance).
        accs = [per[f"lookback-{w}"][0] for w in (1, 2, 4, 8)]
        assert all(b >= a - 0.05 for a, b in zip(accs, accs[1:])), member_name
        # Oracle dominates everything end-to-end.
        oracle_cycles = per["oracle"][1]
        assert all(
            oracle_cycles <= cycles * 1.01 for _, cycles in per.values()
        ), member_name
        # Uniform is never more accurate than lookback-2.
        assert per["uniform"][0] <= per["lookback-2"][0] + 1e-9, member_name
