"""The neighborhoods of the four extension-field benchmark maps, pinned.

Each map of ``perfbench/maps/ext_*.json`` is run through ``run_pipeline``
with its map file's settings. The search record and the period bound must
equal ``perfbench/reference.json``; the Teichmuller center (every
coordinate int, at tag 64), the reduced linear part L, the translation c
(coordinates over F_p of each entry) and the affine order are pinned to
the values of the PadicElement loops that the ring O/p^s replaced.
"""

import json
from pathlib import Path

import pytest

from padicdyn.certify import run_pipeline
from padicdyn.mapfile import load_map_file

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = json.loads(
    (ROOT / "perfbench" / "reference.json").read_text())["extfield"]

# the coordinate ints of each center coordinate, tag 64
CENTERS = {
    "ext_a_p7": [[
        457768589843585554590862949235968893667563991112651373,
        540249525594756884842569080433699592152040193465259256], [
        457768589843585554590862949235968893667563991112651373,
        540249525594756884842569080433699592152040193465259256]],
    "ext_b_p7": [[
        761991897792250145547710913327002927088051303018587028,
        540249525594756884842569080433699592152040193465259256], [
        761991897792250145547710913327002927088051303018587028,
        540249525594756884842569080433699592152040193465259256]],
    "ext_c_p7": [[
        1219760487635835700138573862562971820755615294131238400,
        0], [
        457768589843585554590862949235968893667563991112651373,
        540249525594756884842569080433699592152040193465259256]],
    "ext_d_p11": [[
        1177846510761021562482687812032280815774064987960974964828708710155,
        771721163412082500174645612423813785917509994786411667204279421771,
        2013884769724164593976708143062680990504890007446241272747823246340]],
}

# L and c as coordinates over F_p of each entry, and the affine order
PINS = {
    "ext_a_p7": ([[[2, 0], [0, 0]], [[0, 0], [2, 0]]],
                 [[3, 4], [3, 4]], 3),
    "ext_b_p7": ([[[2, 0], [0, 0]], [[0, 0], [2, 0]]],
                 [[0, 1], [0, 1]], 3),
    "ext_c_p7": ([[[4, 0], [1, 1]], [[0, 0], [1, 0]]],
                 [[3, 3], [0, 0]], 3),
    "ext_d_p11": ([[[4, 2, 0]]], [[0, 5, 7]], 665),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_extfield_neighborhood_is_pinned(name):
    cfg = load_map_file(ROOT / "perfbench" / "maps" / f"{name}.json")
    pipe = run_pipeline(cfg.map, prime=cfg.prime, e=cfg.e,
                        precision=cfg.precision, degree=cfg.degree,
                        m_max=cfg.m_max, lift=cfg.lift)
    rec, nbhd, ref = pipe.record, pipe.nbhd, REFERENCE[name]
    assert (rec.m, rec.period, rec.enumeration_index) == \
        (ref["m"], ref["period"], ref["enumeration_index"])
    assert {str(k): v for k, v in rec.visited.items()} == ref["visited"]
    assert pipe.bound.bound == ref["bound"]
    assert [y.coords() for y in nbhd.center] == CENTERS[name]
    assert all(y.prec == 64 for y in nbhd.center)
    L = [[x.coords() for x in row] for row in nbhd.L]
    assert (L, [x.coords() for x in nbhd.c], nbhd.affine_order) == PINS[name]
