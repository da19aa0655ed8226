from __future__ import annotations

from bpdmn.render import to_dot

from conftest import load


def test_shapes_per_element_kind(travel):
    dot = to_dot(travel)
    assert '"arch_db" [shape=cylinder' in dot
    assert '"plan" [shape=note' in dot
    assert '"check_cc" [shape=box' in dot
    assert '"gw" [shape=diamond' in dot
    assert '"n_start" [shape=circle' in dot
    assert '"n_end" [shape=doublecircle' in dot


def test_guard_appears_as_edge_label(travel):
    dot = to_dot(travel)
    assert '"gw" -> "split" [label="response.valid"]' in dot


def test_hide_data_strips_data_elements(travel):
    dot = to_dot(travel, hide_data=True)
    assert "cylinder" not in dot and "note" not in dot
    assert '"plan"' not in dot
    assert '"check_cc"' in dot  # control flow survives


def test_black_box_pool_rendered_dashed():
    dot = to_dot(load("patterns/p15.bpdmn.json"))
    assert '"env" [shape=box, style=dashed' in dot
    assert "arrowhead=open" in dot  # message flow styling


def test_message_label_names_each_attached_object_once():
    # eco's mf1 attaches Order_ID in both directions
    dot = to_dot(load("eco.bpdmn.json"))
    assert '"t_send" -> "m_start" [style=dashed, arrowhead=open, label="Order_ID"];' in dot
    # p17's mf1 attaches o as an input only
    dot = to_dot(load("patterns/p17.bpdmn.json"))
    assert '"env" -> "t1" [style=dashed, arrowhead=open, label="o"];' in dot


def test_quoting_is_safe():
    dot = to_dot(load("eco.bpdmn.json"))
    assert 'label="Archive' not in dot  # sanity: travel-only label absent
    assert dot.count('"') % 2 == 0
