"""Byte-identical outputs.

md5s of `superlum diagram` in SVG and in JSON, recorded from the per-event
implementation of diagrams.py and render.py, for the four fixtures and five
seeded bundles, each at rest, at V = 0.6, at W = 2.5 and at W = inf; and md5s
of the default `superlum verify --seed N` report and of `superlum verify
--seed 0` under each sabotage switch and a tight tolerance, recorded from
the column verify rows once sum_fails_multiplicativity's two invariants
share beta and gamma; one md5 over the suite reports of seeds 0-39 in those
four modes, recorded while five rows still drew one trial at a time; and
the exit code and stdout md5 of `superlum diagram` on labels that templates
or encoders could mangle, on events without segments, on drawings of
1023-1025 rows and on the 10**5-event chain, recorded before the drawing
and the report were written from columns; and the exit code and md5s of
stdout and stderr of `superlum scan`, recorded from the scan that valued
each n's trials in one array."""

import hashlib
import json
import math
import random

import pytest

from superlum.cli import main
from superlum.diagrams import CLASSIFY_TOL, FIXTURE_NAMES
from superlum.verify import run_suite, suite_report

FRAMES = {
    "rest": [],
    "V=0.6": ["--boost-v", "0.6"],
    "W=2.5": ["--boost-w", "2.5"],
    "W=inf": ["--infinite"],
}
BUNDLE_SEEDS = (1, 2, 3, 4, 5)
MARKUP = '<&"'


def _bundle(seed: int) -> dict:
    """Chains of events whose legs are slow, fast, simultaneous (dt = 0),
    luminal, or within CLASSIFY_TOL of the cone on either side; some labels
    carry markup, some events share coordinates (equal segment sort keys),
    and one sits at (-0.0, 0.0).  The segment graph is a forest, so it has
    no cycle in any frame."""
    rng = random.Random(seed)
    events, segments = {}, []
    for w in range(rng.randint(5, 8)):
        label = f"w{w}" + (MARKUP[w % 3] + MARKUP if rng.random() < 0.3 else "")
        t, x = rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)
        prev = f"{label}.0"
        events[prev] = [t, x]
        for k in range(1, rng.randint(3, 6)):
            dt = rng.uniform(0.2, 1.5)
            leg = rng.choice(("slow", "fast", "simultaneous", "luminal", "edge"))
            v = rng.choice((-1.0, 1.0))
            if leg == "slow":
                v *= rng.uniform(0.0, 0.8)
            elif leg == "fast":
                v *= rng.uniform(1.3, 5.0)
            if leg == "simultaneous":
                dt, dx = 0.0, rng.uniform(-2.0, 2.0)
            elif leg == "edge":
                dx = v * dt + rng.choice((-1.0, 1.0)) * CLASSIFY_TOL * rng.uniform(0.2, 1.8)
            else:
                dx = v * dt
            label_k = f"{label}.{k}"
            events[label_k] = [t + dt, x + dx]
            segments.append([prev, label_k] if rng.random() < 0.8 else [label_k, prev])
            t, x, prev = t + dt, x + dx, label_k
        twin = f"{label}.twin"
        events[twin] = list(events[prev])
        events[twin][0] += 0.5
        events[f"{label}.twin2"] = list(events[twin])
        segments += [[prev, twin], [prev, f"{label}.twin2"]]
    labels = list(events)
    events["origin"] = [-0.0, 0.0]
    segments.append(["origin", labels[0]])
    first = labels[0][:-2]
    return {"c": 1.0, "events": events, "segments": segments, "source": labels[0],
            "sinks": [f"{first}.twin", f"{first}.twin2"]}


# md5 of (SVG on stdout, JSON report on stdout), keyed by input and frame
EXPECTED = {
    ('fig2a', 'rest'):
        ('9328785f87538dc667ae73fa97d8f7b7',
         '67d756e4680cf9deb7feb0ca50568772'),
    ('fig2a', 'V=0.6'):
        ('2801fecfe7e1a11ccf82013b4aad1cf2',
         '18249949338f119f265966b2983f0feb'),
    ('fig2a', 'W=2.5'):
        ('7a45a368b27a4041f02079088914f7a3',
         '70a4227541dc8861c395b92802c397f0'),
    ('fig2a', 'W=inf'):
        ('f8f82a9383c83d66170fadbdab3b312a',
         '4a3bfe03ba54546acde35ac35722ba58'),
    ('fig3a', 'rest'):
        ('e220dc8fdd72f366b3762dcf79cea9e4',
         'bf1e4375899a9da82a77a2fc8f020236'),
    ('fig3a', 'V=0.6'):
        ('0a5e513275e9b70259521d9400e40714',
         '884bcc6b844cf6af7cda2bc44737946b'),
    ('fig3a', 'W=2.5'):
        ('f3696182cac93c9ecf2429f0b73b6afa',
         'b587a005e6593719ce8fa8923c91b26b'),
    ('fig3a', 'W=inf'):
        ('be9d172a3d9a963109609e144513f2da',
         'f9e455597799b81bad773ffa9b72dd95'),
    ('fig4a', 'rest'):
        ('1d3858f459e5b7d50d83409b253d9ecd',
         '8ea71d4174bc4ed258380bedd525b42d'),
    ('fig4a', 'V=0.6'):
        ('c75e10e30a1b7171c304ea58e10d7a4e',
         'dbff5200b08135e104a306c154951031'),
    ('fig4a', 'W=2.5'):
        ('47e8a965ce00757056e5e965a9bb4ec8',
         '37f25a400627f59df1c9bebbd4d0b92c'),
    ('fig4a', 'W=inf'):
        ('19b9b5babf9078b86e5de2892f7ce162',
         '4c1c356a892e606c193a299874f2e32f'),
    ('fig5a', 'rest'):
        ('4d39aa7c40afcc2a05dc0d0874267a1b',
         'bc589467f470e6b645d9a0abde5b1d0a'),
    ('fig5a', 'V=0.6'):
        ('647dc6a38e80e448e72260ed45db78c1',
         '96ce75bb77e00fb235416f1c159fb103'),
    ('fig5a', 'W=2.5'):
        ('6f2b3053abf5108d2ecb2c659847165e',
         '0008d9719bf8772c211196969c9b7f17'),
    ('fig5a', 'W=inf'):
        ('cded9af8d8f00a69c1b1b07f9dcf6f84',
         '4eb6edecc6f9f8f7da59fd5000438dcb'),
    ('bundle1', 'rest'):
        ('efb3df740afed9bf81fcc8b82bcc622b',
         '9d9eece8ea2c2ee16b7d59288e508ce3'),
    ('bundle1', 'V=0.6'):
        ('3e9067dbce60bee257885db0cbce9a79',
         '28b79b77846eec3ec0542f3cf8eec8da'),
    ('bundle1', 'W=2.5'):
        ('f43b8a387fb2f1e3ac679a480df52203',
         'aa2f5639c9f2f405f0b5bac230567f29'),
    ('bundle1', 'W=inf'):
        ('3e03420c74a23d9ce5a0108e750d721b',
         'a2e6d44b922bd90a3a80daf5178b82f4'),
    ('bundle2', 'rest'):
        ('78bd15535b3af1cbb2edaed6218f90f6',
         '8abe67d18181b33934ed269ebca42b56'),
    ('bundle2', 'V=0.6'):
        ('a1ceac1bf0b5ab0f0257f88833e86299',
         '2393c388c55a42c986f4f7e10004fa6c'),
    ('bundle2', 'W=2.5'):
        ('52dd0577b9218b8b4bf75bd245e2580f',
         'ef0ddf01bcfa980a2d6bc57308c876ba'),
    ('bundle2', 'W=inf'):
        ('2c94df1cb007878aa3bac19d43400bb6',
         '3d58f6fe08c0df08dae3a66fc8245359'),
    ('bundle3', 'rest'):
        ('5dce0e7daf45cb5b41013bd963a8c135',
         'ab1e22ac8c5a316d22306bd6ddc5b285'),
    ('bundle3', 'V=0.6'):
        ('1fc7ca7e4189557b0634c1b697d451e6',
         '65e8155bc8a551155468221c83309e0f'),
    ('bundle3', 'W=2.5'):
        ('c712822b8944853dca55638fc44b20d1',
         '3d8817ae62a0dccc457d9d8dd5e56ce7'),
    ('bundle3', 'W=inf'):
        ('3ea3f3c35d31f20047e4c53ab857abdb',
         '57bac8193667490b8e2942e6d2e7e378'),
    ('bundle4', 'rest'):
        ('17405f93f926850d9a420bf8a2d76e4d',
         'f9e9048d52e85ea393a44474c6b9fe4a'),
    ('bundle4', 'V=0.6'):
        ('dfcedaddd86a37262b031f6ce3f356a7',
         '7609bb01ec9166c868650f7919cd6666'),
    ('bundle4', 'W=2.5'):
        ('aaa5826a44b6e02d594518f01607bc47',
         '94c0357acb5d3fc614327854b6a6d3d3'),
    ('bundle4', 'W=inf'):
        ('9df48791c95d6b3484878073de519a20',
         '1796852e5c5041e7096c4fc08ff2275b'),
    ('bundle5', 'rest'):
        ('e27522482fda172bd038aa493fe82a99',
         '64766a71447cf021e9eb734f22bf7656'),
    ('bundle5', 'V=0.6'):
        ('9af7fdefb2e50c44ca122891751412ff',
         'e5872b103f80c9b7f81afdb4e1d85046'),
    ('bundle5', 'W=2.5'):
        ('0ed8c9d483e73ba2449be57a895b32f3',
         'f18d3a0e3b5ea06f7c73376157211207'),
    ('bundle5', 'W=inf'):
        ('6c4500cba72ccc3c99d2771553162e44',
         '5773df2e493d47b406c72667cb345ad9'),
}


def _cases():
    for name in (*FIXTURE_NAMES, *(f"bundle{s}" for s in BUNDLE_SEEDS)):
        for frame in FRAMES:
            yield name, frame


@pytest.mark.parametrize("name,frame", list(_cases()))
def test_diagram_outputs_are_byte_identical(name, frame, tmp_path, capsys):
    if name.startswith("bundle"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_bundle(int(name[6:]))), encoding="utf-8")
        source = str(path)
    else:
        source = name
    digests = []
    for fmt in ("svg", "json"):
        assert main(["diagram", "--input", source, "--format", fmt,
                     "--title", f"{name} {frame}", *FRAMES[frame]]) == 0
        digests.append(hashlib.md5(capsys.readouterr().out.encode()).hexdigest())
    assert tuple(digests) == EXPECTED[name, frame]


# md5 of the default `superlum verify --seed N` report on stdout
VERIFY_EXPECTED = {
    0: "cebf9880e0684efde487e163e569252d",
    1: "9b6000df7c924be09312c248adae343f",
    7: "cb89dae1879ff253a39ed1432045a3ff",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_EXPECTED))
def test_verify_output_is_byte_identical(seed, capsys):
    assert main(["verify", "--seed", str(seed)]) == 0
    digest = hashlib.md5(capsys.readouterr().out.encode()).hexdigest()
    assert digest == VERIFY_EXPECTED[seed]


# md5 and exit code of `superlum verify --seed 0 FLAGS` on stdout
VERIFY_MODES_EXPECTED = {
    "--break-antisymmetric-term": ("7d41900c8a77a57bb2abf71a5ec8f230", 1),
    "--perturb-cauchy 1e-3": ("6848692c770fae2362b9bae57cbc9785", 1),
    "--tolerance 1e-12": ("c53dd0768d7f54c94a0d6964ebf1c77f", 0),
}


@pytest.mark.parametrize("flags", sorted(VERIFY_MODES_EXPECTED))
def test_verify_modes_are_byte_identical(flags, capsys):
    digest, code = VERIFY_MODES_EXPECTED[flags]
    assert main(["verify", "--seed", "0", *flags.split()]) == code
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == digest


# md5 of the suite_report JSON lines of run_suite seeds 0-39, each seed in
# the clean mode, under each sabotage switch and at a tight tolerance
SUITE_MODES = ({}, {"break_antisymmetric_term": True}, {"perturb_cauchy": 1e-3},
               {"tolerance": 1e-12})
SUITE_REPORTS_EXPECTED = "792808d814989de2b71ef7ac5c4cc22c"


def test_suite_reports_of_forty_seeds_are_byte_identical():
    digest = hashlib.md5()
    for seed in range(40):
        for knobs in SUITE_MODES:
            report = suite_report(run_suite(seed=seed, **knobs), seed, **knobs)
            digest.update((json.dumps(report) + "\n").encode())
    assert digest.hexdigest() == SUITE_REPORTS_EXPECTED


# Labels that a %-template, a str.format template, the markup escaper or the
# JSON string encoder could mangle, one per event of a small scenario.
ODD_LABELS = ("%", "%s", "{0}", '&<>"', "événement→μ", "two\nlines", "50%% %d")
# The drawing writes its rows in strings of this many, so the sizes around it
# meet a string boundary exactly, one row short of it and one row past it.
CHUNK_SIZES = (1023, 1024, 1025)


def _odd_labels() -> dict:
    """A chain through events named by ODD_LABELS, with a slow, a fast and a
    luminal leg, declaring the first as source and the last as sink."""
    events = {label: [0.7 * k, (-0.4, 1.9, 1.0)[k % 3] * 0.7 * k - k % 2]
              for k, label in enumerate(ODD_LABELS)}
    segments = [[a, b] for a, b in zip(ODD_LABELS, ODD_LABELS[1:])]
    return {"c": 1.0, "events": events, "segments": segments,
            "source": ODD_LABELS[0], "sinks": [ODD_LABELS[-1]]}


def _no_segments() -> dict:
    return {"c": 1.0, "events": {"a": [0.0, 0.0], "b<": [1.5, -0.25], "c&": [-2.0, 3.0]},
            "segments": []}


def _rows(n: int) -> dict:
    """n events and n segments: a chain with slow, fast, simultaneous and
    luminal legs, plus one chord, so that the SVG has n line rows and n mark
    rows; one label in 50 carries markup."""
    rng = random.Random(n)
    events, t, x = {}, 0.0, 0.0
    for k in range(n):
        events[f"r{k}" + (MARKUP if k % 50 == 7 else "")] = [t, x]
        dt = rng.uniform(0.1, 0.6) * rng.choice((0.0, 1.0, 1.0))
        dx = (rng.uniform(-3.0, 3.0) if dt == 0.0
              else dt * rng.choice((rng.uniform(-0.9, 0.9), rng.uniform(1.2, 4.0), 1.0)))
        t, x = t + dt, x + dx
    labels = list(events)
    segments = [[a, b] for a, b in zip(labels, labels[1:])] + [[labels[0], labels[2]]]
    return {"c": 1.0, "events": events, "segments": segments}


def _chain(n: int) -> dict:
    """The n-event chain of alternating x of the path census benchmark."""
    events = {f"c{i}": [float(i), 0.1 * (i % 2)] for i in range(n)}
    segments = [[f"c{i}", f"c{i + 1}"] for i in range(n - 1)]
    return {"c": 1.0, "events": events, "segments": segments,
            "source": "c0", "sinks": [f"c{n - 1}"]}


def _more_cases():
    yield "odd_labels", _odd_labels, ("rest", "W=2.5"), ("svg", "json")
    yield "no_segments", _no_segments, ("rest", "W=inf"), ("svg", "json")
    for n in CHUNK_SIZES:
        yield f"rows{n}", lambda n=n: _rows(n), ("rest", "W=2.5"), ("svg", "json")
    yield "chain100000", lambda: _chain(10**5), ("V=0.6",), ("json",)


# (exit code, md5 of stdout) of `superlum diagram`, keyed by input, frame and
# format, recorded from the per-row formatting of render.py and the indented
# json.dumps of the report.  A diagram with events but no segments has no
# roles to report, so its JSON report exits 2.
MORE_EXPECTED = {
    ('odd_labels', 'rest', 'svg'): (0, '6e3f883302ef2c248012e84f1cd907c6'),
    ('odd_labels', 'rest', 'json'): (0, '946289e87e3886e3c6c175d8e6bb91a5'),
    ('odd_labels', 'W=2.5', 'svg'): (0, '3c7b1eec0673963084fff7e468204b1d'),
    ('odd_labels', 'W=2.5', 'json'): (0, '484ad221e4070c5c9fed7cff4dba8acd'),
    ('no_segments', 'rest', 'svg'): (0, '6c90aafda9515ed5d3a393baf8607510'),
    ('no_segments', 'rest', 'json'): (2, 'd41d8cd98f00b204e9800998ecf8427e'),
    ('no_segments', 'W=inf', 'svg'): (0, '4a22d008af7cef4d278c5c9732e6ffce'),
    ('no_segments', 'W=inf', 'json'): (2, 'd41d8cd98f00b204e9800998ecf8427e'),
    ('rows1023', 'rest', 'svg'): (0, '0fdd7d1ed56772ce8e3a36f8136f56b5'),
    ('rows1023', 'rest', 'json'): (0, 'e44fd59fe85ec5fe229662e8f6642019'),
    ('rows1023', 'W=2.5', 'svg'): (0, 'c74e3e9e8e0f22f6f3a748bc169ce40f'),
    ('rows1023', 'W=2.5', 'json'): (0, '94f7ee57d17d3241071d402441f1daf0'),
    ('rows1024', 'rest', 'svg'): (0, '6a85e65ac6775a29662a52f32c73777f'),
    ('rows1024', 'rest', 'json'): (0, 'fbfaf69e3f445deee7a3d94d8fa8292b'),
    ('rows1024', 'W=2.5', 'svg'): (0, '4c125937d09b7e229f723fdac45eed85'),
    ('rows1024', 'W=2.5', 'json'): (0, 'a191dac77364950e9e4d38c448c734d1'),
    ('rows1025', 'rest', 'svg'): (0, 'a35199a2ca97ad06bf801deff22096a1'),
    ('rows1025', 'rest', 'json'): (0, 'ff6b01c8c4f6e465dd8774134cd7d37b'),
    ('rows1025', 'W=2.5', 'svg'): (0, '094dd16708cabdc30b6d1f75a155866e'),
    ('rows1025', 'W=2.5', 'json'): (0, '749f468c407c42afcee54bd431f2b10d'),
    ('chain100000', 'V=0.6', 'json'): (0, '269f022221cd39e3211977a7cd8d1a5b'),
}


def _run_case(make, frame: str, fmt: str, tmp_path, capsys) -> tuple[int, str]:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(make()), encoding="utf-8")
    code = main(["diagram", "--input", str(path), "--format", fmt,
                 "--title", "%s {0} & <b> 100%", *FRAMES[frame]])
    return code, hashlib.md5(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("name,make,frame,fmt", [
    (name, make, frame, fmt) for name, make, frames, fmts in _more_cases()
    for frame in frames for fmt in fmts])
def test_chunked_and_odd_label_outputs_are_byte_identical(name, make, frame, fmt,
                                                          tmp_path, capsys):
    assert _run_case(make, frame, fmt, tmp_path, capsys) == MORE_EXPECTED[name, frame, fmt]


# Inputs of `superlum scan` and their seeds: the default input, an imaginary
# and a real spec and the overflowing spec at the benchmark's n values and
# 100 trials, and a complex alpha whose trials at n = 10**4 straddle
# SAFE_EXPONENT: 10 of them reach |Re(alpha*phi)| > 600 and 90 do not.
BENCH_NS = [100, 1000, 10000]
HALF = {"low": 0.0, "high": math.pi}
SCAN_CASES = {
    "default": None,
    "imaginary": ({"alpha": [0.0, -1.1], "beta": 2.4, "gamma": 0.7, "n_values": BENCH_NS,
                   "trials": 100, "sampler": HALF}, 11),
    "real": ({"alpha": [0.6, 0.0], "beta": 1.2, "gamma": 1.1, "n_values": BENCH_NS,
              "trials": 100, "sampler": HALF}, 12),
    "overflow": ({"alpha": [300.0, 0.0], "beta": 0.0, "gamma": 1.0, "n_values": BENCH_NS,
                  "trials": 100, "sampler": HALF}, 13),
    "straddle": ({"alpha": [0.7, 0.3], "beta": 2.0, "gamma": 1.0, "n_values": [100, 10000],
                  "trials": 100, "sampler": {"low": 0.0, "high": 857.153}}, 4),
}
# (exit code, md5 of stdout, md5 of stderr)
SCAN_EXPECTED = {
    "default": (0, "c0d42dbb4e03dcef2b11ee4fa87f37cb", "d41d8cd98f00b204e9800998ecf8427e"),
    "imaginary": (0, "51c8eb658ae162740346864ab0fb9b5e", "d41d8cd98f00b204e9800998ecf8427e"),
    "real": (0, "7d6f630d437635afde74caf03f1b0b63", "d41d8cd98f00b204e9800998ecf8427e"),
    "overflow": (2, "d41d8cd98f00b204e9800998ecf8427e", "73e7eab492ced0d22bdcbb3152d285b3"),
    "straddle": (0, "2e4073e8418b48a434d744049ea98ebd", "d41d8cd98f00b204e9800998ecf8427e"),
}


@pytest.mark.parametrize("name", sorted(SCAN_CASES))
def test_scan_outputs_are_byte_identical(name, tmp_path, capsys):
    argv = ["scan"]
    if SCAN_CASES[name] is not None:
        data, seed = SCAN_CASES[name]
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        argv += ["--input", str(path), "--seed", str(seed)]
    code = main(argv)
    out = capsys.readouterr()
    assert (code, *(hashlib.md5(text.encode()).hexdigest() for text in (out.out, out.err))
            ) == SCAN_EXPECTED[name]
