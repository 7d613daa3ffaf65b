"""Malformed JSONL traces fail with one ``ValueError`` naming file and line.

``read_jsonl`` backs ``--load x.jsonl[.gz]``.  Random bytes, truncated or
corrupt gzip, text that is not UTF-8 or not JSON, and records with a
missing, mistyped or out-of-range field must all raise ``ValueError``
(which the CLI prints as one ``--load:`` line), never a traceback.
"""

import gzip
import json
import random

import pytest

from repro.store.io import iter_jsonl, read_jsonl, record_to_dict, write_jsonl
from tests.test_store import make_record

GOOD = {"start_time": 0.0, "duration": 1.0, "honeypot_id": "h",
        "protocol": "ssh", "client_ip": 1}


def _random_bytes(n):
    return bytes(random.Random(5).randrange(256) for _ in range(n))


def _write_lines(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def _gzip_trace(path, rows=2000):
    write_jsonl([make_record(client_ip=i) for i in range(rows)], path)
    return path.read_bytes()


class TestUnreadable:
    def test_random_bytes_gz(self, tmp_path):
        path = tmp_path / "x.jsonl.gz"
        path.write_bytes(_random_bytes(300))
        with pytest.raises(ValueError, match=r"x\.jsonl\.gz: line 1: .*gzip"):
            read_jsonl(path)

    def test_truncated_gz(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        data = _gzip_trace(path)
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(ValueError, match=r"t\.jsonl\.gz: line \d+: .*ended"):
            read_jsonl(path)

    def test_corrupt_gz_body(self, tmp_path):
        path = tmp_path / "c.jsonl.gz"
        data = _gzip_trace(path)
        path.write_bytes(data[:20] + bytes(b ^ 0x55 for b in data[20:60])
                         + data[60:])
        with pytest.raises(ValueError, match=r"c\.jsonl\.gz: line \d+"):
            read_jsonl(path)

    def test_random_bytes_plain(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b"\xb5" + _random_bytes(300))
        with pytest.raises(ValueError, match=r"r\.jsonl: line 1: "):
            read_jsonl(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="nope.jsonl"):
            read_jsonl(tmp_path / "nope.jsonl")


class TestMalformedRecords:
    @pytest.mark.parametrize("record, reason", [
        ({k: v for k, v in GOOD.items() if k != "start_time"},
         "missing field 'start_time'"),
        ({k: v for k, v in GOOD.items() if k != "client_ip"},
         "missing field 'client_ip'"),
        (dict(GOOD, start_time="x"), "could not convert"),
        (dict(GOOD, start_time=None), "float"),
        (dict(GOOD, duration=float("nan")), "finite"),
        (dict(GOOD, honeypot_id=5), "'honeypot_id' is not a string"),
        (dict(GOOD, commands="ls"), "'commands' is not a list of strings"),
        (dict(GOOD, uris=[1]), "'uris' is not a list of strings"),
        (dict(GOOD, client_ip=2 ** 70), "'client_ip' out of range"),
        (dict(GOOD, client_ip=-1), "'client_ip' out of range"),
        (dict(GOOD, n_login_attempts=70000), "'n_login_attempts' out of range"),
        ([1, 2], "not a JSON object"),
    ])
    def test_bad_field_names_the_line(self, tmp_path, record, reason):
        path = tmp_path / "m.jsonl"
        _write_lines(path, [GOOD, GOOD, record])
        with pytest.raises(ValueError) as exc:
            read_jsonl(path)
        message = str(exc.value)
        assert message.startswith(f"{path}: line 3: not a session record")
        assert reason in message

    def test_bad_json_names_the_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps(GOOD) + "\n\n{not json\n")
        with pytest.raises(ValueError, match=r"j\.jsonl: line 3: "):
            list(iter_jsonl(path))

    def test_good_records_still_load(self, tmp_path):
        path = tmp_path / "ok.jsonl.gz"
        records = [make_record(client_ip=i) for i in range(5)]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record_to_dict(record)) + "\n\n")
        assert [r.client_ip for r in iter_jsonl(path)] == list(range(5))


class TestCliLoad:
    @pytest.mark.parametrize("name, content", [
        ("x.jsonl.gz", _random_bytes(300)),
        ("x.jsonl", json.dumps({"duration": 1.0}).encode() + b"\n"),
        ("x.jsonl", b"{oops\n"),
    ])
    def test_prints_one_line(self, tmp_path, name, content):
        from repro.__main__ import main

        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(SystemExit) as exc:
            main(["report", "--scale", "80000", "--load", str(path)])
        message = str(exc.value.code)
        assert message.startswith("--load: ") and name in message
        assert "\n" not in message

    def test_truncated_gz(self, tmp_path):
        from repro.__main__ import main

        path = tmp_path / "t.jsonl.gz"
        data = _gzip_trace(path)
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(SystemExit) as exc:
            main(["report", "--scale", "80000", "--load", str(path)])
        assert str(exc.value.code).startswith("--load: ")
