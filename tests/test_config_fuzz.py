"""A seeded fuzzer of the exit contract: mutated shipped configs, run in
process through `cli.main` with one worker, exit 0, 2 or 3, and an error
exit ends stderr with its JSON line.  Mutated argv (a bad integer option,
an unknown flag, a missing --config) exits 2 with the JSON line of a
validation error.

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
ARGV_CASES = 150
# Options each subcommand takes: canonical walks heightDepth steps and has
# no --depth; verify reads no config.
INT_OPTIONS = {sub: ("--depth", "--workers", "--seed", "--precision") for sub in SUBCOMMANDS}
INT_OPTIONS["canonical"] = ("--workers", "--seed", "--precision")
INT_OPTIONS["verify"] = ("--seed", "--precision")
# Neither a flag of the parser nor a prefix of one, which argparse would take.
UNKNOWN_FLAGS = ("--bogus", "--nodeCap", "--outdir", "--config-file", "--depth2", "-q", "-")


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


def _bad_integer(rng):
    """An integer option's value that no run accepts: over the interpreter's
    digit limit (4,300 digits by default), negative, non-numeric or empty."""
    kind = rng.randrange(4)
    if kind == 0:
        digits = "".join(rng.choices("0123456789", k=rng.randrange(4400, 6000)))
        return rng.choice(("", "-", "+")) + str(rng.randrange(1, 10)) + digits
    if kind == 1:
        return str(-rng.randrange(1, 10 ** rng.randrange(1, 40)))
    if kind == 2:
        return rng.choice(("abc", "1e3", "0x10", "3.5", "--5", "12a", "1/2", "inf"))
    return rng.choice(("", " "))


def _mutate_argv(rng, config, out):
    """A subcommand's argv with one fault: a bad integer option, an unknown
    flag (with or without a value, anywhere after the subcommand) or a
    missing --config (the flag, or only its value)."""
    sub = rng.choice(SUBCOMMANDS + ("verify",))
    argv = [sub] + ([] if sub == "verify" else ["--config", config]) + ["--out", out]
    kind = rng.randrange(2 if sub == "verify" else 3)
    if kind == 0:
        argv += [rng.choice(INT_OPTIONS[sub]), _bad_integer(rng)]
    elif kind == 1:
        at = rng.randrange(1, len(argv) + 1)
        argv[at:at] = [rng.choice(UNKNOWN_FLAGS)] + [str(rng.randrange(10))] * rng.randrange(2)
    else:
        argv.remove(config)
        if rng.random() < 0.5:
            argv.remove("--config")
    return argv


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:   # argparse's usage errors
        return exc.code


def test_mutated_argv_exits_2_with_the_json_line(tmp_path, capsys):
    rng = random.Random(20192)
    for _ in range(ARGV_CASES):
        argv = _mutate_argv(rng, str(rng.choice(CONFIGS)), str(tmp_path / "out"))
        code = _exit_code(argv)
        err = capsys.readouterr().err
        shown = [arg if len(arg) < 50 else f"<{len(arg)} characters>" for arg in argv]
        assert code == 2, (shown, err[-500:])
        assert json.loads(err.strip().splitlines()[-1])["kind"] == "validation", shown
