"""A seeded fuzzer of the exit contract: mutated shipped configs, run in
process through `cli.main` with one worker, exit 0, 2 or 3, and an error
exit ends stderr with its JSON line.

Each case takes a shipped config and mutates some of its maps (degree up to
30, coefficients up to 40 digits, poles at rational points, shared factors,
constant and linear maps), its point (0, 1, infinity, a pole, a large or
malformed value), places, epsilon, word and cMode.  Every case keeps small
caps (depth <= 4, bitCap <= 2 * 10^4, nodeCap <= 10^4), so a run is short
work or a work-limit exit.
"""

import json
import random
from pathlib import Path

from orbitint.cli import main

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
SUBCOMMANDS = ("orbit", "canonical", "system-height", "gamma", "census", "ratios", "bounds")
CASES = 210


def _coefficient(rng):
    return rng.choice((1, -1, 2, 3)) if rng.random() < 0.6 else rng.randrange(-10 ** 40, 10 ** 40)


def _map(rng):
    """A map entry, mostly valid, and the rational poles it is known to have."""
    if rng.random() < 0.05:   # a shared factor, or a constant or linear map
        return rng.choice(("(z^2-1)/(z-1)", "z/z", "5", "z+1")), []
    d = rng.choice((2, 2, 3, 3, 4, 5, 8, 12, 30))
    kind = rng.randrange(5)
    if kind == 0:
        return f"z^{d}+{abs(_coefficient(rng))}", []
    if kind == 1:
        return f"{_coefficient(rng)}/z^{d}", ["0"]
    if kind == 2:
        a = rng.randrange(-3, 4)
        return f"(z^{d}+1)/(z-{a})" if a >= 0 else f"(z^{d}+1)/(z+{-a})", [str(a)]
    f = [_coefficient(rng) if rng.random() < 0.5 else 0 for _ in range(d + 1)]
    g = [_coefficient(rng) if rng.random() < 0.3 else 0 for _ in range(rng.randrange(1, d + 2))]
    f[-1] = f[-1] or 1
    g[0] = g[0] or 1
    if kind == 3:
        return {"f": f, "g": g}, []
    return {"f": [str(c) for c in f], "g": g}, []


def _pick(rng, valid, invalid):
    """A valid choice, or an invalid one one time in twenty."""
    return rng.choice(invalid if rng.random() < 0.05 else valid)


def _mutate(rng, raw):
    cfg = dict(raw)
    maps = list(cfg["system"]["maps"] if isinstance(cfg["system"], dict) else cfg["system"])
    poles = []
    for i in range(len(maps)):
        if rng.random() < 0.6:
            maps[i], known = _map(rng)
            poles += known
    if rng.random() < 0.2:
        entry, known = _map(rng)
        maps.append(entry)
        poles += known
    cfg["system"] = {"maps": maps} if rng.random() < 0.5 else maps
    points = ["0", "1", "-1", "inf", "[1:0]", "2", "1/3", str(10 ** 30 + 7), *poles]
    if rng.random() < 0.7:
        cfg["point"] = _pick(rng, points, ["x", "1/0"])
    if rng.random() < 0.3:
        cfg["pointA"] = _pick(rng, points, ["[0:0]"])
    if rng.random() < 0.5:
        names = rng.sample(("inf", "p2", "p3", "p5", "p7"), rng.randrange(0, 4))
        cfg["places"] = _pick(rng, [names], [names + ["p4"], names + ["q"]])
    if rng.random() < 0.4:
        cfg["epsilon"] = _pick(rng, ("1/2", "1", "1/7", "1/1000"), ("0", "2", "-1/2"))
    if rng.random() < 0.5:
        letters = [rng.randrange(1, len(maps) + 1) for _ in range(rng.randrange(1, 4))]
        letters = _pick(rng, [letters], [letters + [len(maps) + 1], []])
        cfg["word"] = (letters if rng.random() < 0.3 else
                       {"letters": letters, "mode": rng.choice(("periodic", "finite"))})
    if rng.random() < 0.3:
        cfg["cMode"] = _pick(rng, ("certified", "empirical"), ("exact",))
    if rng.random() < 0.3:
        cfg["averagedLevel"] = rng.randrange(0, 3)
    cfg["depth"] = rng.randrange(0, 5)
    cfg["heightDepth"] = rng.randrange(1, 5)
    cfg["hminPeriodBound"] = rng.randrange(1, 3)
    cfg["workLimits"] = {"bitCap": round(2 ** rng.uniform(6, 14.28)),     # <= 2 * 10^4
                         "nodeCap": round(10 ** rng.uniform(0, 4))}
    return cfg


def test_mutated_configs_keep_the_exit_contract(tmp_path, capsys):
    rng = random.Random(20191)
    shipped = [json.loads(path.read_text(encoding="utf-8")) for path in CONFIGS]
    seen = {0: 0, 2: 0, 3: 0}
    for case in range(CASES):
        cfg = _mutate(rng, rng.choice(shipped))
        path = tmp_path / f"case{case}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        sub = SUBCOMMANDS[case % len(SUBCOMMANDS)]
        code = main([sub, "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code in seen, (sub, cfg, err[-2000:])
        if code:
            kind = json.loads(err.strip().splitlines()[-1])["kind"]
            assert kind == {2: "validation", 3: "work-limit"}[code], (sub, cfg)
        seen[code] += 1
    assert main(["verify", "--seed", str(rng.randrange(1000)),
                 "--out", str(tmp_path / "out")]) == 0
    assert all(seen.values()), seen   # each exit taken at least once
