"""Every kind of sparse generator, pinned bit for bit.

Builds type, backward, ancestor-type, pair and conditioned generators on
fixed parameters and compares the sha256 of each one's states, CSR
arrays, nnz and Feynman-Kac diagonal with generator_digests.json, so a
change to how generators are assembled proves "no generator changed"
here.  The backward generators' transition records are pinned too, in
order and with their rates' exact bits, since Q sums the rates into each
target and would not see a swapped kind or a reordered record.  Like test_output_digests.py, the digests are stored with the
numpy and scipy versions that produced them and the test skips under
any others.  After an intended change, regenerate the file with

    PYTHONPATH=src python tests/test_generator_digests.py
"""
import hashlib
import json
import pathlib

import numpy as np
import pytest
import scipy

from moranlines import BpState, canonical_start, finite_stationary_law
from moranlines.backward import enumerate_transitions
from moranlines.exact import build_bp_generator, build_type_generator
from moranlines.reduced import (CatChainSpec, DistChainSpec, cat_generator,
                                dist_generator, _transformed_generator)

from helpers import mk

DIGESTS = pathlib.Path(__file__).resolve().parent / "generator_digests.json"

PI = ((0.3, 0.7), (0.3, 0.7))  # parent-independent two-type kernel

# label -> parameters: the duality-sweep test model, a parent-independent
# two-type kernel (which the reduced chains need), d = 3, S = N and S = 0
MODELS = {
    "n3d2": mk(3, B=0.8, b=((0.7, 0.3), (0.2, 0.8)), S=1.0),
    "n4pi": mk(4, B=0.6, b=PI, S=1.5),
    "n2d3": mk(2, d=3, B=1.1, b=((0.2, 0.5, 0.3), (0.6, 0.1, 0.3),
                                 (0.25, 0.25, 0.5)), S=2.0,
               chi=(0.0, 0.4, 1.0)),
    "n4full": mk(4, B=0.6, b=PI, S=4.0),
    "n4neutral": mk(4, B=0.9, S=0.0),
}


def _duality_starts(p):
    """The starts duality-sweep uses: every single site 0 type, and every
    typed pair on sites 0 and 1."""
    starts = [canonical_start(p, {0: u}) for u in range(p.d)]
    starts += [canonical_start(p, {0: u, 1: v})
               for u in range(p.d) for v in range(p.d)]
    return starts


def _chain_starts(p):
    """The starts cross-check conditions on."""
    return ([canonical_start(p, {0: u}) for u in (0, 1)]
            + [canonical_start(p, {0: u, 1: v})
               for u, v in ((0, 0), (1, 1), (0, 1))])


def generators() -> dict:
    """label -> generator, over every builder."""
    gens = {}
    for label, p in MODELS.items():
        gens[f"type/{label}"] = build_type_generator(p)
        gens[f"bp/{label}"] = build_bp_generator(p, _duality_starts(p))
    p = MODELS["n4pi"]
    law = finite_stationary_law(p)
    gens["cat/finite/plain"] = cat_generator(CatChainSpec.finite_n(p, law=law))
    gens["cat/limit/plain"] = cat_generator(CatChainSpec.limit(p), n_top=6)
    for absorbed in (True, False):
        tag = "absorbed" if absorbed else "transient"
        gens[f"dist/finite/{tag}"] = dist_generator(
            DistChainSpec.finite_n(p, law=law), with_absorbed=absorbed)
        gens[f"dist/limit/{tag}"] = dist_generator(
            DistChainSpec.limit(p), n_top=5, with_absorbed=absorbed)
    gens["transformed/n4pi"] = _transformed_generator(p, _chain_starts(p), law)
    return gens


def _state_key(s):
    if isinstance(s, BpState):
        return (s.j_sites, s.marks, s.active, s.d)
    return s


def digest(gen) -> str:
    h = hashlib.sha256()
    h.update(repr(tuple(_state_key(s) for s in gen.states)).encode())
    Q = gen.Q
    for arr in (Q.data, Q.indices, Q.indptr):
        h.update(str(arr.dtype).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(str(Q.nnz).encode())
    fk = gen.fk_diagonal
    h.update(b"None" if fk is None else fk.tobytes())
    return h.hexdigest()


def records_digest(gen, p) -> str:
    """sha256 of every (kind, rate bits, marks, active) record, in order,
    over the generator's states."""
    h = hashlib.sha256()
    for s in gen.states:
        for kind, rate, marks, active in enumerate_transitions(s, p):
            h.update(repr((kind, rate.hex(), marks, active)).encode())
    return h.hexdigest()


def digests() -> dict:
    """label -> digest, over every generator and every backward model's
    records."""
    gens = generators()
    out = {label: digest(gen) for label, gen in gens.items()}
    for label, p in MODELS.items():
        out[f"records/{label}"] = records_digest(gens[f"bp/{label}"], p)
    return out


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def test_generators_match_recorded_digests():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if recorded["versions"] != _versions():
        pytest.skip(f"digests recorded with {recorded['versions']}, "
                    f"running {_versions()}")
    assert digests() == recorded["digests"]


if __name__ == "__main__":
    payload = {"versions": _versions(), "digests": digests()}
    DIGESTS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(payload['digests'])} digests to {DIGESTS}")
