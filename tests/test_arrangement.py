"""The arrangement's face walk on a half-edge successor array, against the
walk on per-node position lookups that it replaced."""

import pytest

from nscurves.arrangement import Arrangement, Cell, Fragment
from nscurves.bicorn import triple_config
from nscurves.errors import InternalInvariantError
from nscurves.pairconfig import draw_pair
from nscurves.surface import parse_surface_spec
from nscurves.verify import sample_curve, sample_pair
from conftest import SURFACE_SPECS, seeded


class _OracleArrangement(Arrangement):
    """The arrangement as built before the successor array: each face walk
    step finds the arriving cell's place at its node in a dict."""

    def __init__(self, drawing):
        self.drawing = d = drawing
        self.cells = []
        self.fragments = []
        self._links = None
        surf = d.surface
        geo = d.geometry()

        chords_by_tri = {}
        for sid in sorted(geo.chords):
            for ch in geo.chords[sid]:
                chords_by_tri.setdefault(ch.tri, []).append(ch)
        on_chord = {}
        for sid, events in geo.events.items():
            for cr in events:
                on_chord.setdefault((sid, cr.param_of(sid)[0]), []).append(cr)

        incident = {}
        self.side_cells = {}

        def add_cell(cell, slot_a, slot_b):
            self.cells.append(cell)
            incident.setdefault((cell.tri, cell.a), []).append(
                (slot_a, cell.id, 1))
            incident.setdefault((cell.tri, cell.b), []).append(
                (slot_b, cell.id, -1))

        for tri in range(surf.ntri):
            for s in range(3):
                e = surf.side_edge[(tri, s)]
                pts = list(d.edge_pts[e])
                front = surf.side_local_direction_is_front(tri, s)
                if not front:
                    pts = list(reversed(pts))
                seq = [("c", s)] + [("p", p) for p in pts] + [("c", (s + 1) % 3)]
                n_gaps = len(pts) + 1
                for k in range(n_gaps):
                    gap = k if front else n_gaps - 1 - k
                    cell = Cell(len(self.cells), tri, "side", seq[k],
                                seq[k + 1], edge=e, gap=gap)
                    add_cell(cell, 0, 2)
                    self.side_cells.setdefault((e, gap), {})[tri] = cell
            for ch in chords_by_tri.get(tri, ()):
                crs = on_chord.get((ch.sid, ch.idx), [])
                keys = ([("p", ch.pa)] + [("x", cr.id) for cr in crs]
                        + [("p", ch.pb)])
                slots = [1]
                for cr in crs:
                    if ch.sid == cr.sid_a:
                        slots += [2, 0]
                    elif cr.sign > 0:
                        slots += [3, 1]
                    else:
                        slots += [1, 3]
                slots.append(1)
                for k in range(len(keys) - 1):
                    add_cell(Cell(len(self.cells), tri, "chord", keys[k],
                                  keys[k + 1], sid=ch.sid),
                             slots[2 * k], slots[2 * k + 1])

        index_at = {}
        for key, lst in incident.items():
            lst.sort()
            for pos, (_, cell_id, end) in enumerate(lst):
                index_at[(key, cell_id, end)] = pos

        def next_halfedge(cell_id, direction):
            cell = self.cells[cell_id]
            key = (cell.tri, cell.b if direction == 1 else cell.a)
            lst = incident[key]
            pos = index_at[(key, cell_id, -direction)]
            _, nxt_id, nxt_end = lst[pos - 1]
            return nxt_id, nxt_end

        euler = [0] * surf.ntri
        for tri, _ in incident:
            euler[tri] += 1
        for cell in self.cells:
            euler[cell.tri] -= 1
        visited = set()
        for cell in self.cells:
            for direction in (1, -1):
                start = (cell.id, direction)
                if start in visited:
                    continue
                walk = []
                cur = start
                outer = False
                while True:
                    visited.add(cur)
                    walk.append(cur)
                    outer = outer or (cur[1] == -1
                                      and self.cells[cur[0]].kind == "side")
                    cur = next_halfedge(*cur)
                    if cur == start:
                        break
                    if cur in visited:
                        raise InternalInvariantError("face walk collided")
                euler[cell.tri] += 1
                if not outer:
                    self.fragments.append(Fragment(
                        len(self.fragments), cell.tri, walk))

        for tri in range(surf.ntri):
            if euler[tri] != 2:
                raise InternalInvariantError(
                    "rotation system of triangle %d is not planar" % tri)

        self.frag_of_halfedge = {}
        for fr in self.fragments:
            for he in fr.walk:
                self.frag_of_halfedge[he] = fr.id


def _contents(arr):
    """Everything an arrangement builds, with cells read as their fields."""
    def fields(cell):
        return (cell.id, cell.tri, cell.kind, cell.a, cell.b, cell.edge,
                cell.gap, cell.sid)

    return {
        "cells": [fields(c) for c in arr.cells],
        "fragments": [(f.id, f.tri, f.walk) for f in arr.fragments],
        "side_cells": {key: {tri: fields(c) for tri, c in by_tri.items()}
                       for key, by_tri in arr.side_cells.items()},
        "frag_of_halfedge": list(arr.frag_of_halfedge.items()),
        "links": [(fa, fb, fields(c)) for fa, fb, c in arr.fragment_links()],
    }


def _drawings(spec, seed):
    """A solo, a pair and a triple drawing, seeded."""
    surf, rng = parse_surface_spec(spec), seeded(seed)
    a, b, _ = sample_pair(surf, rng, 1, 6, 120)
    cfg = triple_config(a, b, sample_curve(surf, rng, 120))
    return [a.drawing, draw_pair(a, b).drawing, cfg.drawing]


@pytest.mark.parametrize("spec", SURFACE_SPECS)
def test_successor_walk_builds_the_oracle_arrangement(spec):
    strands, signs = 0, set()
    for seed in range(8):
        for d in _drawings(spec, 300 + seed):
            got, want = Arrangement(d), _OracleArrangement(d)
            assert _contents(got) == _contents(want)
            assert got.fragment_links() is got.fragment_links()
            strands += len(d.strands)
            signs.update(cr.sign for cr in d.geometry().crossings)
    assert strands == 8 * (1 + 2 + 3) and signs == {1, -1}
