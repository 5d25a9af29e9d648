"""The evaluation report pinned to bytes.

For each benchmark workload's seed-1 corpus, the three models built from
the workload's config, as the benchmark's set-up builds them, must report
on the first ``n_predict`` derived records with the sha256 their reports
had before the report was scored in closed form.  The digest is the
benchmark's own: the sha256 of the report's JSON with sorted keys, so
these values equal its seed-1 ``report_sha256``.  They move only if
per-record prediction, the scores or the report format do."""

import hashlib
import json
import sys
import warnings
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.workloads import KINDS, WORKLOADS  # noqa: E402
from poshan.metrics import evaluate_model  # noqa: E402
from poshan.text import RuleTagger, derive_dataset  # noqa: E402
from poshan.train import build_model, build_tables  # noqa: E402
from test_derive_golden import _raws  # noqa: E402

REPORT_SHA256 = {
    "train-caps": {
        "poshan": "0c7db0ccc7a54068a030cfa42f8dd03bde62f82516d22488c4cd34f06b296589",
        "lstm": "2eafa636f551e0c74ead95de5c32f3eff890a3165f74ca510f1c7db9d60cfb57",
        "posat": "85df21dcc9e47f1260f889df23b5eb63105b65b00d2b5b63291b49cca33e7482",
    },
    "train-ragged": {
        "poshan": "a3cffe2e7169f49d1001d2dc6135ff29a4bb8a360e02044f5cc1e1e92fff461f",
        "lstm": "fb35fa10772db6afed53aac439c4c07d108056eacb9619bb399805dd7f50c534",
        "posat": "ff4d4b2532e8a6fc51609b7eb380dd29d39d281027f82d5b2296d131580aefa5",
    },
    "ingest-eval": {
        "poshan": "780e1bd675e7e544dda50760ea3d5d6092388cf7c34eb1a14aa160bb0390e438",
        "lstm": "379724ff520e542bd26d6cc234e7356bbb0db45182956c84df4eda5fb52cfcde",
        "posat": "d59cd371a64fd0740e8cd0ef19fb3420b782a21926452d7f3d13f0a8b8e662b5",
    },
}


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_bytes_are_pinned(name):
    workload = WORKLOADS[name]
    derived, _ = derive_dataset(_raws(name), RuleTagger())
    config = workload.config()
    word_table, pattern_table = build_tables(derived, config)
    records = derived[:workload.n_predict]
    digests = {}
    for kind in KINDS:
        model = build_model(kind, config, word_table, pattern_table)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = evaluate_model(model, records, max_words=config.max_words_per_sentence,
                                    max_sentences=config.max_sentences)
        digests[kind] = hashlib.sha256(
            json.dumps(report.to_json(), sort_keys=True).encode("utf-8")).hexdigest()
    assert digests == REPORT_SHA256[name]
