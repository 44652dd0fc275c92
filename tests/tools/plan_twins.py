"""``PYTHONPATH=src python tests/tools/plan_twins.py``: run ``nl-w2020``,
``root-2020`` and ``nz-w2020`` at ``--scale 0.02``, then rebuild
every response plan each server memoised without its key — the path that
sizes every response with the encoder, as a reference server does — and
print each field that differs; exit 1 if any does.

A plan is built once and replayed for every repeat of its key, so a plan
that matches its keyless twin makes every capture row it stamps the row
the reference path would have written.  ``tests/test_oracle.py`` applies
the same check to every oracle case.
"""

import sys

from repro.capture import Transport
from repro.dnscore import Name, Opcode, RRType
from repro.dnscore.edns import EdnsRecord
from repro.sim import run_dataset
from repro.workload import dataset

#: What a plan holds that reaches a response or a capture row.
FIELDS = (
    "qname_text", "qtype", "flags", "rcode", "answers", "authorities",
    "additionals", "edns", "wire_size", "truncated",
)

DATASETS = ("nl-w2020", "root-2020", "nz-w2020")
SCALE = 0.02


def twin(server, key, plan):
    """The plan ``server`` builds for ``key`` without memoising it, asked
    with the exact spelling ``plan`` was built from."""
    __, qtype, (bufsize, dnssec_ok, tcp, rd, opcode) = key
    edns = None if bufsize < 0 else EdnsRecord(
        udp_payload_size=bufsize, dnssec_ok=dnssec_ok
    )
    return server._build_plan(
        Name(plan.qname_labels), RRType.from_code(qtype), edns,
        Transport.TCP if tcp else Transport.UDP, rd, Opcode(opcode), None, None,
    )


def plan_mismatches(servers):
    """``(plans checked, one line per differing field)`` over every plan
    the ``servers`` memoised."""
    checked, wrong = 0, []
    for server in servers:
        for key, plan in list(server._plans.items()):
            checked += 1
            rebuilt = twin(server, key, plan)
            wrong += [
                f"{server.server_id} {plan.qname_text} {key[1:]}: {name} "
                f"{getattr(plan, name)!r} != {getattr(rebuilt, name)!r}"
                for name in FIELDS
                if getattr(plan, name) != getattr(rebuilt, name)
            ]
    return checked, wrong


def run_servers(run):
    """Every server of a run, with its post-run plan cache."""
    return [server for servers in run.server_sets.values() for server in servers]


if __name__ == "__main__":
    failed = False
    for dataset_id in DATASETS:
        descriptor = dataset(dataset_id)
        run = run_dataset(
            descriptor, client_queries=int(descriptor.client_queries * SCALE),
        )
        checked, wrong = plan_mismatches(run_servers(run))
        print(f"{dataset_id}: {checked} plans, {len(wrong)} mismatched fields")
        print("\n".join(wrong[:20]), end="\n" if wrong else "")
        failed = failed or bool(wrong) or not checked
    sys.exit(1 if failed else 0)
