"""The committed output corpus: every record recomputed bit for bit.

``tests/data/corpus.json`` was written by ``tests/make_corpus.py``; a change
that moves any bit of a series value, an oracle value or a CLI line fails
here, naming the first records that moved and by how many ulps.
``make_corpus.py --check`` names all of them.
"""

import make_corpus


def test_every_record_is_reproduced():
    expected = make_corpus.load()
    actual = make_corpus.compute()
    assert make_corpus.differences(expected, actual) == ""
    assert make_corpus.render(actual) == make_corpus.PATH.read_text()


def test_a_difference_names_the_record_and_its_ulps():
    one = [0, 1, 0, 1]  # 1.0
    expected = [
        {"id": "a", "precision": 64, "value": {"lo": one, "k": 3}},
        {"id": "b", "precision": 64, "value": [0, 3, -1, 2]},
        {"id": "c", "precision": None, "value": {"code": 0, "out": "x = 1.25\n"}},
    ]
    actual = [
        {"id": "a", "precision": 64, "value": {"lo": [0, 2**63 + 1, -63, 64], "k": 3}},
        {"id": "b", "precision": 64, "value": [0, 3, -1, 2]},
        {"id": "c", "precision": None, "value": {"code": 2, "out": "x = 1.35\n"}},
    ]
    assert make_corpus.differences(expected, actual, first=1) == (
        "2 of 3 records differ; the first 1:\na: lo: moved by +1 ulps")
    assert make_corpus.differences(expected, actual).splitlines()[2] == (
        "c: code: 0 -> 2; out: from character 6, 'x = 1.25\\n' -> 'x = 1.35\\n'")
    assert make_corpus.differences(expected, actual[:2]) == (
        "the record ids differ: missing ['c'], new []")


def test_check_prints_every_difference_and_writes_nothing(monkeypatch, tmp_path, capsys):
    expected = [{"id": name, "precision": 64, "value": [0, 1, 0, 1]} for name in "abcdefg"]
    actual = [dict(r, value=[0, 2**63 + 1, -63, 64]) for r in expected]
    path = tmp_path / "corpus.json"
    path.write_text(make_corpus.render(expected))
    monkeypatch.setattr(make_corpus, "PATH", path)
    monkeypatch.setattr(make_corpus, "compute", lambda: actual)
    assert make_corpus.main(["--check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "7 of 7 records differ:"
    assert lines[1:] == [f"{name}: value: moved by +1 ulps" for name in "abcdefg"]
    assert path.read_text() == make_corpus.render(expected)
    monkeypatch.setattr(make_corpus, "compute", lambda: expected)
    assert make_corpus.main(["--check"]) == 0
    assert capsys.readouterr().out == "every record of corpus.json is reproduced\n"
