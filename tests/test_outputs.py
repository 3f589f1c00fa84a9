"""Byte-identical outputs.

md5s of `superlum diagram` in SVG and in JSON, recorded from the per-event
implementation of diagrams.py and render.py, for the four fixtures and five
seeded bundles, each at rest, at V = 0.6, at W = 2.5 and at W = inf (the
15 bundle frames where an edge leg changed class re-recorded once the
luminal band became relative to the segment's speed); and md5s
of the default `superlum verify --seed N` report and of `superlum verify
--seed 0` under each sabotage switch and a tight tolerance, recorded from
the column verify rows once sum_fails_multiplicativity's two invariants
share beta and gamma; one md5 over the suite reports of seeds 0-39 in those
four modes, recorded while five rows still drew one trial at a time (seeds
0 and 7, the modes and the forty seeds re-recorded once every power was a
product of repeated squares, which moved newton_convolution; seeds 0, 1
and 7, the modes and the forty seeds re-recorded once the five rows that
draw sizes and permutations read them from one fixed-width rng.random
block, which moved those rows and the expansion and closure rows that draw
after them; and the same once each random boost read three fixed columns of
its row's block, which shifted the draws of every row from
light_cone_preservation on);
and
the exit code and stdout md5 of `superlum diagram` on labels that templates
or encoders could mangle, on events without segments, on drawings of
1023-1025 rows and on the 10**5-event chain, recorded before the drawing
and the report were written from columns; and the exit code and md5s of
stdout and stderr of `superlum scan`, recorded from the scan that valued
each n's trials in one array; and md5s of the `superlum boost`, `compose`
and `amplitude` reports, recorded while a hand-written copy of
json.dumps(indent=2, sort_keys=True) still wrote them."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

import pytest

import superlum
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
    luminal, or CLASSIFY_TOL times 0.2-1.8 from the cone on either side in
    the diagram's units, which puts such a leg inside or outside the
    relative luminal band by its extent; some labels carry markup, some
    events share coordinates (equal segment sort keys), and one sits at
    (-0.0, 0.0).  The segment graph is a forest, so it has
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
        ('8a2629e1e84d01d84e646b775fe38a1c',
         '513a2b3c7ebb89406b50c37107cbb2c9'),
    ('bundle1', 'V=0.6'):
        ('0cf771251bf89adaf22e328116d6226c',
         '872706cae61f3a741e55eef028c77190'),
    ('bundle1', 'W=2.5'):
        ('c680f0af8b67d25707ca8eb3cd259a7f',
         'd08ac48595ab9d277703804f3d09efe8'),
    ('bundle1', 'W=inf'):
        ('f9e9444b61a1e156aa2db99ce6ba9252',
         'f3227f92735abfe32e149bbb9626fc79'),
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
        ('930f2fa30ad14721b6936eef5ba0fa1f',
         '45968d79b1b0c2f7a784e792322594ba'),
    ('bundle3', 'V=0.6'):
        ('4a9a085f9d0083da27bbbeed01396153',
         'e0ad30d59439a8fc3c44cd76c64d1d13'),
    ('bundle3', 'W=2.5'):
        ('c712822b8944853dca55638fc44b20d1',
         '3d8817ae62a0dccc457d9d8dd5e56ce7'),
    ('bundle3', 'W=inf'):
        ('319571f67dea23a2841274de3068d631',
         'a18df312aa67f9c90247baeda73cbfe2'),
    ('bundle4', 'rest'):
        ('b5d3c8a21aa93f3b33e56c570c0b6e2b',
         '8e9f5b7eebce6a8d54487224f7f04899'),
    ('bundle4', 'V=0.6'):
        ('9e8c40d752103a9a12bff3c8721d13ae',
         '0c4e169121e5eb0000fa25c8dbaf5a0d'),
    ('bundle4', 'W=2.5'):
        ('5d95a45575bd5dd34d3aceedb4bef2d9',
         '518ebe12aff2cd06998c63d94e0bbcbe'),
    ('bundle4', 'W=inf'):
        ('ff7db72f3941fa323af308db27147219',
         '91b3c2eb86fe19a0f5e5e43c3b86af6a'),
    ('bundle5', 'rest'):
        ('98abbf3039f84ecc65a331cb10699565',
         '4b7d6c85fca66c3c4c53459bf27c86fa'),
    ('bundle5', 'V=0.6'):
        ('df82885a56c9fc7454185f32416eac39',
         '0440315c4fd80c8de8247e1fd52b9cec'),
    ('bundle5', 'W=2.5'):
        ('f3e688b5945576d54b74af6c5e1b3e85',
         'e959bcca83118ade0f1343ba3506c21f'),
    ('bundle5', 'W=inf'):
        ('6dfc6c4767c0fa44ec94b23bb6b81aab',
         'e57bcffdbd4f181849afef53272745f2'),
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
    0: "9cda0c2fb7bdf80e1cab73f4c27ac000",
    1: "215a6754c61a826ce9ab0f2c774cfd85",
    7: "c8ebc50b443688749e64d926cb3eabbf",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_EXPECTED))
def test_verify_output_is_byte_identical(seed, capsys):
    assert main(["verify", "--seed", str(seed)]) == 0
    digest = hashlib.md5(capsys.readouterr().out.encode()).hexdigest()
    assert digest == VERIFY_EXPECTED[seed]


# md5 and exit code of `superlum verify --seed 0 FLAGS` on stdout
VERIFY_MODES_EXPECTED = {
    "--break-antisymmetric-term": ("b5ca5162a7ba9d39ea1d7e3eaf70b352", 1),
    "--perturb-cauchy 1e-3": ("8782170fbca9fdb43e672f29051025d6", 1),
    "--tolerance 1e-12": ("247f0c6040d8939a9380449c61d4d0bf", 0),
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
SUITE_REPORTS_EXPECTED = "63a4ba6d78f229d5f878fb85cad47915"


def test_suite_reports_of_forty_seeds_are_byte_identical():
    digest = hashlib.md5()
    for seed in range(40):
        for knobs in SUITE_MODES:
            report = suite_report(run_suite(seed=seed, **knobs), seed, **knobs)
            digest.update((json.dumps(report) + "\n").encode())
    assert digest.hexdigest() == SUITE_REPORTS_EXPECTED


# numpy's AVX-512 levels, which numpy's float64 power, exp and log kernels
# take where the CPU has them
AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
# The newton_convolution deviations of run_suite seeds 0-39, power sums of
# negative and positive bases up to order 20, and the phases of 50 random
# timelike paths, as float.hex
_POWER_BITS = """
import numpy as np
import superlum as sl
from superlum.verify import run_suite


def power_bits():
    rng = np.random.default_rng(37)
    phases = rng.uniform(-2.0, 2.0, 1000)
    dt = rng.uniform(0.1, 1.0, (50, 5))
    t = np.cumsum(np.hstack([np.zeros((50, 1)), dt]), axis=1)
    x = np.cumsum(np.hstack([np.zeros((50, 1)), dt * rng.uniform(-0.99, 0.99, dt.shape)]), axis=1)
    return {
        "newton_convolution": [r.deviation.hex() for seed in range(40)
                               for r in run_suite(seed=seed) if r.name == "newton_convolution"],
        "power_sum": [sl.power_sum(k, phases).hex() for k in range(21)],
        "path_phase": [sl.path_phase(sl.Path(tuple(map(sl.Event1p1, ti, xi)))).hex()
                       for ti, xi in zip(t.tolist(), x.tolist())],
    }
"""


def test_power_bits_do_not_depend_on_numpy_simd_dispatch():
    """A child process with numpy's AVX-512 kernels switched off (the
    variable acts only on the child) gives the bits of this process: powers
    are IEEE products, and v**2 is v * v, on every dispatch level."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        pytest.skip(f"numpy {np.__version__} does not report its CPU features")
    missing = [f for f in AVX512 if f not in __cpu_dispatch__ or not __cpu_features__.get(f)]
    if missing:
        pytest.skip(f"numpy does not dispatch {' '.join(missing)} in this process (not on "
                    "this CPU, or switched off), so a child without AVX-512 would run the "
                    "same kernels")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(AVX512),
           "PYTHONPATH": str(Path(superlum.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", _POWER_BITS + "import json; print(json.dumps(power_bits()))"],
        env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    here = {}
    exec(_POWER_BITS, here)
    assert json.loads(child.stdout) == here["power_bits"]()


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


# Inputs of the small JSON reports: an event boosted on each branch in 1+1
# and in 1+3 dimensions, a pair of boosts composed for each pairing of
# branches, and one phase set summed into an amplitude.  Each report has the
# same bits with numpy's AVX-512 kernels switched off.
EVENT_1P1, EVENT_1P3 = [1.25, -0.4], [1.25, -0.4, 0.3, 2.0]
REPORT_CASES = {
    "boost 1+1 subluminal": ("boost", {"c": 1.0, "event": EVENT_1P1,
                                       "boost": {"branch": "subluminal", "speed": 0.6}}),
    "boost 1+1 superluminal": ("boost", {"c": 1.0, "event": EVENT_1P1,
                                         "boost": {"branch": "superluminal", "speed": 2.5}}),
    "boost 1+3 subluminal": ("boost", {"c": 1.0, "event": EVENT_1P3, "boost": {
        "branch": "subluminal", "speed": [0.3, -0.2, 0.5]}}),
    "boost 1+3 superluminal": ("boost", {"c": 1.0, "event": EVENT_1P3, "boost": {
        "branch": "superluminal", "speed": [1.5, 2.0, -0.7]}}),
    "compose subluminal subluminal": ("compose", {"boosts": [
        {"branch": "subluminal", "speed": 0.6}, {"branch": "subluminal", "speed": -0.3}]}),
    "compose subluminal superluminal": ("compose", {"boosts": [
        {"branch": "subluminal", "speed": 0.6}, {"branch": "superluminal", "speed": 2.5}]}),
    "compose superluminal subluminal": ("compose", {"boosts": [
        {"branch": "superluminal", "speed": -3.0}, {"branch": "subluminal", "speed": 0.45}]}),
    "compose superluminal superluminal": ("compose", {"boosts": [
        {"branch": "superluminal", "speed": 2.5}, {"branch": "superluminal", "speed": 4.0}]}),
    "amplitude": ("amplitude", {"phases": [0.0, 0.7, 1.9, 3.1, -2.2], "alpha_mag": 1.3}),
}
# md5 of each report on stdout
REPORT_EXPECTED = {
    "boost 1+1 subluminal": "17da707d98d4329adffb63d9040fa895",
    "boost 1+1 superluminal": "a8f3572686ca4af52884f0afbe0503d4",
    "boost 1+3 subluminal": "23b5605f6ac44e039f664cbf9be6c075",
    "boost 1+3 superluminal": "343aaf07debf180f02ff55d42d9484cd",
    "compose subluminal subluminal": "d0fc02d637abe7b69fea6c980d716d81",
    "compose subluminal superluminal": "6027b7d98d743a85603f6a272e96e571",
    "compose superluminal subluminal": "33cc19e0880aecf123741a39cc1a85c9",
    "compose superluminal superluminal": "49f4a723a0112dfe458671e6349c97a9",
    "amplitude": "d1779c90188a494a88e50e7b1ff4de65",
}


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_small_reports_are_byte_identical(name, tmp_path, capsys):
    command, data = REPORT_CASES[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main([command, "--input", str(path)]) == 0
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == REPORT_EXPECTED[name]
