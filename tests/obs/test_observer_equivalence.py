"""The observation seam is invisible: same simulation, same sink output.

``Switch`` and ``Host`` report each packet-lifecycle point once, to one
handle that fans out to the metrics registry, the event ring and the
span tracer.  On the fig2/fig3/fig4 ``tiny`` configs x 5 architectures:

(a) the ``RunSummary`` is byte-identical bare vs. all three sinks on;
(b) each sink's output is the same alone as beside the other two;
(c) each sink's sha256 equals the constant captured at the commit before
    the seam existed (``e044000``, three inline null-object hierarchies)
    by running this file as a script: ``python
    tests/obs/test_observer_equivalence.py`` prints ``GOLDEN``;
(d) a default ``Fabric`` hands every host and switch ``None``, so the
    disabled path has nothing to call.
"""

import dataclasses
import hashlib
import io
import json

import pytest

from repro.core.architectures import ARCHITECTURES
from repro.exec.summary import summarize_run
from repro.experiments.runner import run_experiment
from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshot import write_trace_jsonl
from repro.obs.tracing import PacketTracer, write_spans_jsonl
from repro.sim.monitor import Trace
from tests.sim.test_engine_differential import _figure_configs

SINKS = ("metrics", "trace", "tracer")

# sha256 of (metrics snapshot JSON, --trace-out JSONL, --trace-spans JSONL)
# per (figure, architecture), captured at parent e044000.
GOLDEN = {
    ("fig2-control", "advanced-2vc"): (
        "7e3eb803e660b8840454fbb40fa355c34e8f948310173dbcbbcd2d7ec0587afa",
        "ca2bad8809f89c42c9c7155464f1cc6be7d08d15317228180f6685229a461280",
        "af9e94593be12d9493bdf43e4797e8505a90dbee53d8fd0a53db2c18d63d0b73",
    ),
    ("fig2-control", "ideal"): (
        "88eee988f79023e58490c5902be296099317f7d394dd472b011b3842db6e7da4",
        "64c7a6c819cdefe3b0251c6a82c611f6f252c82254cf9f8c342840592597414c",
        "75597db7973fa1390bdc157d6b557591a579468a629733b07a8a0a044480aa24",
    ),
    ("fig2-control", "ideal-pipelined"): (
        "54abec858c8589c95f3500c6067a6373390a3ff3f604c391c2679864b8e25913",
        "6f7c81e0722d4422ab21a000a2a9344045ec5f73cf72084c3ab90f9873120a8b",
        "f30ddc64ae877886bed81c8f0f9a068a9804a597046bac9c6ec4330ad4107966",
    ),
    ("fig2-control", "simple-2vc"): (
        "dad03bb9b08b98f1cb844802caeb411938b3e2aa00064434038a8c325678d05f",
        "37e778cbfaf0b5fa4ca4ff62aad05aef5210c23b00f40b1520ccf0b0c1223c64",
        "1ed738054b19b677b866d00ba236ae892b9b1b2679f85a94dd3b936b9a9613cc",
    ),
    ("fig2-control", "traditional-2vc"): (
        "57af4283075b044c82c2cd9d0d9c25355321938c8e19f724e8e2a55a7aa9775b",
        "4919502ff21e3e1a97d8fa5bf5a3a1c153b4e032a2c5e0f44be3bebc72fec63a",
        "dd90f12a54d765b4c3eff2f25f958075227d2bfcb3a31fa1251cdc4b2159e442",
    ),
    ("fig3-video", "advanced-2vc"): (
        "01721ad3a94861a734f0a97f5eb78a86839dd1bd45b3d8420905ac56c9dc8391",
        "9ac231273a2b856631922539895cf6a197682be8e8e4f53deddab46b19662a87",
        "a4224ec4ae1aae2b8e676b01dd572c8a4bcce6fbb5bee26ede1e360bf3562f04",
    ),
    ("fig3-video", "ideal"): (
        "de2512ad7d569ded7da93bbb39847a0b6bc2cb682d2de2659227e0d95f722120",
        "d91a59a5d7cfe4efd0dfd0bffb4bb91d89997397b86c9be23e6926e6e887a7cf",
        "92f29f72be900b7d6335e35a1e21c62ef2ad72a9c39c13430f72ee36a504da15",
    ),
    ("fig3-video", "ideal-pipelined"): (
        "f3116f614bbaa8c6837c0be5a17f820ec945e7cff5e9f67c06fae46fdeb63191",
        "a4d834894ed9239c49bb89974af6b9e0533e15cd1b40f05dda28c6bb1b4923cb",
        "bdd88173e22ecb92a2f4de9e57d3c4fc355bc6611c398fd50b470e5329ee6a20",
    ),
    ("fig3-video", "simple-2vc"): (
        "2465afcc29df37b99e3ebfcc3ce8891645f19afefd3ad036051863cf46bdec35",
        "9ecf0f6bc1f31659c96a888bbb71fcac2b72dc4459d9884f631453a7b1b6c0d3",
        "75909ca23b83bdbc7bc1a4835a74ff971c88f1bd398c42fefa360a62e9b96b81",
    ),
    ("fig3-video", "traditional-2vc"): (
        "287cc4d0c054795926ae1959c49b57e6ff062892ead9c562dd46cb8fb200d143",
        "d2757e2180b05b882a88a4e5f2e3c9350f8cf51e8611cb00ea9f4ebe69f03b6b",
        "864643067a8180080f839bc652497015f12fb7c925afd6264a32dfe460eaab16",
    ),
    ("fig4-best-effort", "advanced-2vc"): (
        "9e44bfe965a6318fb70ebf9248d1dff883a1676dd7fd43464a7c0db0a2b64327",
        "4733488cc321ecf5a89bd17db090132d74384b1de3134a0713fbd44bb5823341",
        "c618655daa9c4bef5787702b3e861ca689aa6ec92195a3ac593a7adc04e98445",
    ),
    ("fig4-best-effort", "ideal"): (
        "5b90a998ebaa302a42425863398be3d83bf54c9ac94b8ac3359e4c1124ac4b68",
        "e18fe6d367b1d3adf6b8dce8d0a8537dcf09282c9ccc93154c9de85df6d87a7f",
        "ef0be03b289e00f840185a937ce2896ee203c7dabcd25dfbc9f870ace7dbbed8",
    ),
    ("fig4-best-effort", "ideal-pipelined"): (
        "4dd41412cd15b716ba3f4cb4844bc21da9c06c457ed148231611477e6f8c0422",
        "eb76f84683de3ff02abe11726f20adecbce7198c0ce6933266d3a1115d02c83c",
        "a405db4389b94a65f0cdd821bb2dd6179c756b6206938c0dcd0d01d5999f7325",
    ),
    ("fig4-best-effort", "simple-2vc"): (
        "fc40c7ae99c5907ede8e0a9253141691171497727d49ed169a7c169402a1a77b",
        "fdef3edc55f6e1a7cc4e9e6bb725d1d9e6bfa694f091be48579400ab5bd0b1f9",
        "ba19d50e9ca85b0d89bd31eff29c2bc11de97f931489f1e7f34e6f577024811d",
    ),
    ("fig4-best-effort", "traditional-2vc"): (
        "729614bf714e3bd2e2afe9ad04a6c73c7df43850864eec07b36031bb837e6dba",
        "9f5df30d815e25cf08dd1f3231a467b39cc8c2dc17181d94bcc73f97e0758b3a",
        "f8b68a0d2f2867cbc5e7b2085ad601103f47d842dfb6acec441c87ee0470ea24",
    ),
}


def _observed_run(config, sinks):
    """Run ``config`` with the named sinks on; return the summary bytes
    and each enabled sink's exported text."""
    kwargs = {}
    if "metrics" in sinks:
        kwargs["metrics"] = MetricsRegistry()
    if "trace" in sinks:
        kwargs["trace"] = Trace()
    if "tracer" in sinks:
        kwargs["tracer"] = PacketTracer(policy="head", rate=1.0, capacity=1 << 14, seed=7)
    result = run_experiment(config, **kwargs)
    doc = summarize_run(result).to_dict()
    doc.pop("wall_seconds")  # the one legitimately nondeterministic field
    out = {"summary": json.dumps(doc, sort_keys=True)}
    if "metrics" in sinks:
        out["metrics"] = json.dumps(kwargs["metrics"].snapshot(), sort_keys=True)
    if "trace" in sinks:
        buf = io.StringIO()
        write_trace_jsonl(kwargs["trace"], buf)
        out["trace"] = buf.getvalue()
    if "tracer" in sinks:
        buf = io.StringIO()
        write_spans_jsonl(kwargs["tracer"], buf)
        out["tracer"] = buf.getvalue()
    return out


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


CASES = [
    (figure, arch_name, dataclasses.replace(config, architecture=arch_name))
    for figure, config in sorted(_figure_configs().items())
    for arch_name in sorted(ARCHITECTURES)
]


@pytest.mark.parametrize(
    "figure, arch_name, config", CASES, ids=[f"{figure}-{arch}" for figure, arch, _ in CASES]
)
def test_sinks_observe_without_disturbing(figure, arch_name, config):
    bare = _observed_run(config, ())
    together = _observed_run(config, SINKS)
    assert together["summary"] == bare["summary"], "observing changed the simulation"
    for sink in SINKS:
        alone = _observed_run(config, (sink,))
        assert alone["summary"] == bare["summary"], f"{sink} alone changed the simulation"
        assert alone[sink] == together[sink], f"{sink} export depends on the other sinks"
    assert tuple(_sha(together[sink]) for sink in SINKS) == GOLDEN[figure, arch_name]


def test_default_fabric_hands_out_no_observer(make_fabric):
    fabric = make_fabric()
    assert all(host.obs is None for host in fabric.hosts)
    assert all(switch.obs is None for switch in fabric.switches.values())


if __name__ == "__main__":
    print("GOLDEN = {")
    for figure, arch_name, config in CASES:
        together = _observed_run(config, SINKS)
        digests = tuple(_sha(together[sink]) for sink in SINKS)
        print(f'    ("{figure}", "{arch_name}"): (')
        for digest in digests:
            print(f'        "{digest}",')
        print("    ),")
    print("}")
