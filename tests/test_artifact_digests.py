"""The digest comparison of ``tests/artifact_digests.py``."""

import json

import artifact_digests


def test_diff_lists_exit_code_moves_first(tmp_path, capsys):
    old = {"a #0 exit": 0, "a #0 state.json": "1", "b #0 exit": 0,
           "b #0 monitor.csv": "2", "c #0 spectrum.csv": "3"}
    new = {"a #0 exit": 0, "a #0 state.json": "9", "b #0 exit": 2,
           "d #0 events.csv": "4", "c #0 spectrum.csv": "3"}
    assert artifact_digests.diff(old, new) == [
        "moved b #0 exit: 0 -> 2",
        "moved a #0 state.json: 1 -> 9",
        "removed b #0 monitor.csv",
        "added d #0 events.csv",
    ]
    paths = []
    for name, digests in [("old", old), ("new", new), ("same", old)]:
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(digests))
    assert artifact_digests.main(["--diff", str(paths[0]), str(paths[1])]) == 1
    assert capsys.readouterr().out.endswith("4 of 6 entries differ\n")
    assert artifact_digests.main(["--diff", str(paths[0]), str(paths[2])]) == 0
    assert capsys.readouterr().out == "0 of 5 entries differ\n"
