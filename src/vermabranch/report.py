"""Verification records, the bundles that collect them, and the JSON report
schema.  Records and bundles are ``namedtuple`` subclasses, as the variable
sets, the contexts and the branching sets are."""

from __future__ import annotations

import json
from collections import namedtuple
from typing import Dict, List, Optional

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "discrepancy-reported"


class VerificationRecord(namedtuple("VerificationRecord", "check_id anchor status witness",
                                    defaults=(None,))):
    """One check: its ID, the anchor in the paper, its status and, for a
    failed or discrepancy-reported check, the witness text.  The fields are
    read-only; equality and hash are those of the tuple of the fields."""

    __slots__ = ()

    def to_dict(self) -> Dict:
        d = {"check-id": self.check_id, "anchor": self.anchor, "status": self.status}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


def record(check_id: str, anchor: str, ok: bool, witness=None) -> VerificationRecord:
    """A pass or fail record.  A failed check keeps its witness: a string, a
    value rendered here, or a zero-argument callable called here that returns
    either.  A passing one builds and renders nothing."""
    if ok:
        return VerificationRecord(check_id, anchor, PASS)
    if callable(witness):
        witness = witness()
    if witness is not None and not isinstance(witness, str):
        witness = witness.render()
    return VerificationRecord(check_id, anchor, FAIL, witness)


class ReportBundle(namedtuple("ReportBundle", "records data")):
    """A named batch of records plus free-form data tables.  The fields are
    read-only, but the list and the dict they hold grow; a list is not
    hashable, so neither is a bundle."""

    __slots__ = ()

    def __new__(cls, records: Optional[List[VerificationRecord]] = None,
                data: Optional[Dict[str, object]] = None):
        return super().__new__(cls, [] if records is None else records,
                               {} if data is None else data)

    def add(self, rec: VerificationRecord):
        self.records.append(rec)

    def check(self, check_id: str, anchor: str, ok: bool, witness=None):
        self.add(record(check_id, anchor, ok, witness))

    def extend(self, other: "ReportBundle"):
        """Append other's records and data; colliding data keys raise ValueError."""
        clash = sorted(self.data.keys() & other.data.keys())
        if clash:
            raise ValueError(f"report data keys collide: {', '.join(clash)}")
        self.records.extend(other.records)
        self.data.update(other.data)

    @property
    def failed(self) -> List[VerificationRecord]:
        return [r for r in self.records if r.status == FAIL]

    def ok(self) -> bool:
        return not self.failed


def render_json(bundle: ReportBundle, config: Dict, seed: int | None = None) -> str:
    """Stable JSON: records sorted by check-id, keys sorted, fixed separators."""
    meta = {"config": config, "seed": seed, "version": SCHEMA_VERSION}
    records = sorted((r.to_dict() for r in bundle.records), key=lambda d: d["check-id"])
    doc = {"meta": meta, "records": records}
    if bundle.data:
        doc["data"] = bundle.data
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
