#!/usr/bin/env python3
"""Generate the committed fixture corpus under fixtures/.

Every fixture is built through the model constructors and written with the
canonical serializer, so each file is guaranteed to parse, round-trip, and
(for the non-negative fixtures) validate cleanly.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bpdmn import validator
from bpdmn.expr import parse_expr
from bpdmn.format import serialize_diagram
from bpdmn.model import (
    CopyRule,
    DataMapping,
    DataObject,
    DataStore,
    Diagram,
    Effect,
    Entity,
    ExplicitDataFlow,
    Generalization,
    MessageFlow,
    Node,
    ObjectAttachment,
    Pool,
    Relationship,
    Scope,
    SequenceFlow,
    StoreInsert,
    StoreRead,
    TaskBehavior,
    Variable,
)

ROOT = Path(__file__).resolve().parent.parent / "fixtures"


# -- tiny constructors ------------------------------------------------------


def task(i: str, name: str | None = None, **kw) -> Node:
    return Node(i, name or i, "task", **kw)


def start(i: str = "s", name: str = "Start") -> Node:
    return Node(i, name, "start_event_none")


def mstart(i: str, name: str) -> Node:
    return Node(i, name, "start_event_message")


def end(i: str = "e", name: str = "End") -> Node:
    return Node(i, name, "end_event")


def flow(i: str, a: str, b: str, atts=(), guard: str | None = None) -> SequenceFlow:
    return SequenceFlow(
        i, a, b, attachments=list(atts), guard=parse_expr(guard) if guard else None
    )


def a_in(obj: str, optional: bool = False) -> ObjectAttachment:
    return ObjectAttachment(obj, "input", optional)


def a_out(obj: str) -> ObjectAttachment:
    return ObjectAttachment(obj, "output")


def obj(i: str, *variables: str, name: str | None = None, **kw) -> DataObject:
    return DataObject(i, name or i, variables=[Variable(v) for v in variables], **kw)


def store(i: str, *entities: Entity, name: str | None = None, **kw) -> DataStore:
    return DataStore(i, name or i, entities=list(entities), **kw)


def mapping(i: str, src: str, dst: str, *rules: tuple[str, str]) -> DataMapping:
    return DataMapping(i, src, dst, [CopyRule(parse_expr(f), t) for f, t in rules])


def e(target: str, expr: str) -> Effect:
    head, _, path = target.partition(".")
    return Effect(head, path, parse_expr(expr))


def insert(store_id: str, entity: str, **assignments: str) -> StoreInsert:
    return StoreInsert(store_id, entity, {k: parse_expr(v) for k, v in assignments.items()})


def read(store_id: str, entity: str, into: str, where: str | None = None) -> StoreRead:
    return StoreRead(store_id, entity, into, parse_expr(where) if where else None)


def write(relpath: str, diagram: Diagram, expect_valid: bool = True) -> None:
    diags = validator.validate(diagram)
    if expect_valid and validator.has_errors(diags):
        raise SystemExit(f"{relpath}: unexpected errors:\n" + "\n".join(map(str, diags)))
    path = ROOT / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(serialize_diagram(diagram), encoding="utf-8")
    print(f"wrote {path}")


# -- travel agency model ----------------------------------------------------


def travel() -> Diagram:
    pool = Pool(
        "travel_agency",
        "Travel Agency",
        nodes=[
            mstart("n_start", "Receive Travel Request"),
            task("check_cc", "Check Credit Card"),
            Node("gw", "Card Valid?", "gateway_exclusive_data"),
            Node("split", "Split", "gateway_parallel"),
            task("check_hotel", "Check Hotel Reservation"),
            task("check_car", "Check Car Reservation"),
            task("check_flight", "Check Flight Reservation"),
            Node("join", "Join", "gateway_parallel"),
            task("archive", "Archive Travel Plan"),
            end("n_end", "Trip Planned"),
            end("n_end_invalid", "Invalid Card"),
        ],
        sequence_flows=[
            flow("f01", "n_start", "check_cc", [a_out("input"), a_in("input"), a_in("request")]),
            flow("f02", "check_cc", "gw", [a_out("response")]),
            flow("f03", "gw", "split", guard="response.valid"),
            flow("f04", "split", "check_hotel", [a_in("hotelRequest")]),
            flow("f05", "split", "check_car", [a_in("carRequest")]),
            flow("f06", "split", "check_flight", [a_in("flightRequest")]),
            flow("f07", "check_hotel", "join", [a_out("hotelResponse")]),
            flow("f08", "check_car", "join", [a_out("carResponse")]),
            flow("f09", "check_flight", "join", [a_out("flightResponse")]),
            flow(
                "f10",
                "join",
                "archive",
                [a_in("carResponse"), a_in("flightResponse"), a_in("hotelResponse")],
            ),
            flow("f11", "archive", "n_end", [a_out("plan"), a_in("plan")]),
            flow("f12", "gw", "n_end_invalid"),
        ],
        explicit_data_flows=[ExplicitDataFlow("ef1", "archive", "arch_db", "plan")],
    )
    return Diagram(
        "travel",
        pools=[pool],
        stores=[
            store(
                "arch_db",
                Entity("Reservation", [Variable("car"), Variable("flight"), Variable("hotel")]),
                name="Archive (DB)",
            )
        ],
        objects=[
            obj(
                "input",
                "cardNumber",
                "cardType",
                "carCompany",
                "flightCompany",
                "hotelCompany",
            ),
            obj("request", "cardNumber", "cardType", name="doCreditCardCheckingRequest"),
            DataObject(
                "response",
                "doCreditCardCheckingResponse",
                variables=[
                    Variable("carCompany"),
                    Variable("flightCompany"),
                    Variable("hotelCompany"),
                    Variable("valid", "boolean"),
                ],
            ),
            obj("hotelRequest", "name"),
            obj("carRequest", "name"),
            obj("flightRequest", "name"),
            obj("hotelResponse", "confirmation"),
            obj("carResponse", "confirmation"),
            obj("flightResponse", "confirmation"),
            obj("plan", "car", "flight", "hotel"),
        ],
        mappings=[
            mapping(
                "dm1",
                "input",
                "request",
                ("input.cardNumber", "cardNumber"),
                ("input.cardType", "cardType"),
            ),
            mapping("dm2", "response", "hotelRequest", ("response.hotelCompany", "name")),
            mapping("dm3", "response", "carRequest", ("response.carCompany", "name")),
            mapping("dm4", "response", "flightRequest", ("response.flightCompany", "name")),
        ],
        behaviors={
            "check_cc": TaskBehavior(
                effects=[
                    e("response.valid", "request.cardNumber = '12345678'"),
                    e("response.hotelCompany", "input.hotelCompany"),
                    e("response.carCompany", "input.carCompany"),
                    e("response.flightCompany", "input.flightCompany"),
                ]
            ),
            "check_hotel": TaskBehavior(
                effects=[e("hotelResponse.confirmation", "hotelRequest.name")]
            ),
            "check_car": TaskBehavior(effects=[e("carResponse.confirmation", "carRequest.name")]),
            "check_flight": TaskBehavior(
                effects=[e("flightResponse.confirmation", "flightRequest.name")]
            ),
            "archive": TaskBehavior(
                effects=[
                    e("plan.hotel", "hotelResponse.confirmation"),
                    e("plan.car", "carResponse.confirmation"),
                    e("plan.flight", "flightResponse.confirmation"),
                ],
                store_actions=[
                    insert(
                        "arch_db",
                        "Reservation",
                        hotel="plan.hotel",
                        car="plan.car",
                        flight="plan.flight",
                    )
                ],
            ),
        },
        start_inputs={
            "input": {
                "cardNumber": "12345678",
                "cardType": "VISA",
                "hotelCompany": "Hilton",
                "carCompany": "Hertz",
                "flightCompany": "Alitalia",
            }
        },
    )


# -- engineering change order model -----------------------------------------


def eco() -> Diagram:
    pool_tech = Pool(
        "pool_tech",
        "Technical Office",
        nodes=[
            mstart("t_start", "Receive ECO Request"),
            task("t_submit", "Submit Form"),
            task("t_send", "Send Order ID"),
            end("t_end", "Request Filed"),
        ],
        sequence_flows=[
            flow("f1", "t_start", "t_submit", [a_out("ECO_Request"), a_in("ECO_Request")]),
            flow("f2", "t_submit", "t_send", [a_out("Form_Data"), a_in("Form_Data")]),
            flow("f3", "t_send", "t_end"),
        ],
        explicit_data_flows=[
            ExplicitDataFlow("ef_docs", "docs", "t_submit", "Filling_Instructions", optional=True),
            ExplicitDataFlow("ef_store", "t_submit", "OracleDB", "Form_Data"),
        ],
    )
    pool_maint = Pool(
        "pool_maint",
        "Maintenance Office",
        nodes=[
            mstart("m_start", "Receive Order"),
            task("m_check", "Check ECO Data"),
            Node("m_gw", "ECO Data OK?", "gateway_exclusive_data"),
            task("m_process", "Process ECO"),
            task("m_notify", "Notify Technical Office"),
            end("m_end", "ECO Processed"),
            end("m_end2", "ECO Rejected"),
        ],
        sequence_flows=[
            flow("g1", "m_start", "m_check", [a_in("Input"), a_in("Order_ID")]),
            flow("g2", "m_check", "m_gw", [a_out("Checked_Data")]),
            flow("g3", "m_gw", "m_process", [a_in("Checked_Data")], guard="Checked_Data.ok"),
            flow("g4", "m_process", "m_end"),
            flow("g5", "m_gw", "m_notify"),
            flow("g6", "m_notify", "m_end2", [a_out("Notification")]),
        ],
        explicit_data_flows=[ExplicitDataFlow("ef_read", "OracleDB", "m_check", "ECO_Data")],
    )
    return Diagram(
        "eco",
        pools=[pool_maint, pool_tech],
        stores=[
            store(
                "OracleDB",
                Entity("Device", [Variable("description"), Variable("deviceID")]),
                name="OracleDB",
            ),
            store("docs", Entity("Manual", [Variable("url")]), name="Documentation", icon="folder"),
        ],
        objects=[
            obj(
                "ECO_Request",
                "componentID",
                "deviceID",
                "procedureManager",
                "replacedComponent",
            ),
            obj("Form_Data", "componentID", "deviceID", "procedureManager", "replacedComponent"),
            DataObject(
                "Filling_Instructions",
                "Filling Instructions",
                stereotype="document",
                variables=[Variable("url")],
                url="store://docs/Manual",
            ),
            obj("Order_ID", "id"),
            DataObject(
                "ECO_Data",
                "Eco Data",
                variables=[Variable("Device.description"), Variable("Device.deviceID")],
                origin_store="OracleDB",
            ),
            obj("Input", "device", name="Input"),
            DataObject("Checked_Data", "Checked Data", variables=[Variable("ok", "boolean")]),
            obj("Notification", "text"),
        ],
        mappings=[mapping("dm_eco", "ECO_Data", "Input", ("ECO_Data.Device.deviceID", "device"))],
        message_flows=[
            MessageFlow("mf1", "t_send", "m_start", [a_out("Order_ID"), a_in("Order_ID")]),
            MessageFlow("mf2", "m_notify", "pool_tech", [a_out("Notification")]),
        ],
        behaviors={
            "t_submit": TaskBehavior(
                effects=[
                    e("Form_Data.componentID", "ECO_Request.componentID"),
                    e("Form_Data.deviceID", "ECO_Request.deviceID"),
                    e("Form_Data.procedureManager", "ECO_Request.procedureManager"),
                    e("Form_Data.replacedComponent", "ECO_Request.replacedComponent"),
                ],
                store_actions=[
                    insert(
                        "OracleDB",
                        "Device",
                        deviceID="Form_Data.deviceID",
                        description="Form_Data.replacedComponent",
                    )
                ],
            ),
            "t_send": TaskBehavior(effects=[e("Order_ID.id", "Form_Data.deviceID")]),
            "m_check": TaskBehavior(
                effects=[e("Checked_Data.ok", "Input.device = 'D100'")],
                store_actions=[
                    read("OracleDB", "Device", "ECO_Data", where="Device.deviceID = Order_ID.id")
                ],
            ),
            "m_notify": TaskBehavior(effects=[e("Notification.text", "'ECO data rejected'")]),
        },
        start_inputs={
            "ECO_Request": {
                "componentID": "C7",
                "deviceID": "D100",
                "procedureManager": "Rossi",
                "replacedComponent": "valve",
            }
        },
    )


# -- small execution-semantics fixtures -------------------------------------


def handoff_direct() -> Diagram:
    pool = Pool(
        "p",
        "Producer Consumer",
        nodes=[start(), task("t_a", "A"), task("t_b", "B"), end()],
        sequence_flows=[
            flow("f1", "s", "t_a"),
            flow("f2", "t_a", "t_b", [a_out("x"), a_in("x")]),
            flow("f3", "t_b", "e"),
        ],
    )
    return Diagram(
        "handoff_direct",
        pools=[pool],
        objects=[obj("x", "v")],
        behaviors={"t_a": TaskBehavior(effects=[e("x.v", "1")])},
    )


def handoff_shared_store() -> Diagram:
    p1 = Pool(
        "p1",
        "Writer",
        nodes=[start("s1"), task("t_a", "A"), end("e1")],
        sequence_flows=[
            flow("f1", "s1", "t_a"),
            flow("f2", "t_a", "e1", [a_out("x1")]),
        ],
        explicit_data_flows=[ExplicitDataFlow("ef1", "t_a", "st", "x1")],
    )
    p2 = Pool(
        "p2",
        "Reader",
        nodes=[start("s2"), task("t_b", "B"), end("e2")],
        sequence_flows=[flow("g1", "s2", "t_b"), flow("g2", "t_b", "e2")],
        explicit_data_flows=[ExplicitDataFlow("ef2", "st", "t_b", "x2")],
    )
    return Diagram(
        "handoff_shared_store",
        pools=[p1, p2],
        stores=[store("st", Entity("Item", [Variable("v")]), name="Shared Store")],
        objects=[obj("x1", "v"), obj("x2", "Item.v", origin_store="st")],
        behaviors={
            "t_a": TaskBehavior(
                effects=[e("x1.v", "7")], store_actions=[insert("st", "Item", v="x1.v")]
            ),
            "t_b": TaskBehavior(store_actions=[read("st", "Item", "x2")]),
        },
    )


def handoff_global_store() -> Diagram:
    p1 = Pool(
        "p1",
        "Writer",
        nodes=[start("s1"), task("t_a", "A"), end("e1")],
        sequence_flows=[
            flow("f1", "s1", "t_a"),
            flow("f2", "t_a", "e1", [a_out("x1")]),
        ],
        explicit_data_flows=[ExplicitDataFlow("ef1", "t_a", "st", "x1")],
    )
    p2 = Pool(
        "p2",
        "Reader Writer",
        nodes=[start("s2"), task("t_b", "B"), end("e2")],
        sequence_flows=[
            flow("g1", "s2", "t_b"),
            flow("g2", "t_b", "e2", [a_out("x3")]),
        ],
        explicit_data_flows=[
            ExplicitDataFlow("ef2", "st", "t_b", "x2"),
            ExplicitDataFlow("ef3", "t_b", "st", "x3"),
        ],
    )
    return Diagram(
        "handoff_global_store",
        pools=[p1, p2],
        stores=[store("st", Entity("Item", [Variable("v")]), name="Global Store")],
        objects=[obj("x1", "v"), obj("x2", "Item.v", origin_store="st"), obj("x3", "v")],
        behaviors={
            "t_a": TaskBehavior(
                effects=[e("x1.v", "7")], store_actions=[insert("st", "Item", v="x1.v")]
            ),
            "t_b": TaskBehavior(
                effects=[e("x3.v", "x2.Item.v")],
                store_actions=[read("st", "Item", "x2"), insert("st", "Item", v="x3.v")],
            ),
        },
    )


def deadlock() -> Diagram:
    # A requires an object produced only downstream: valid but stuck forever
    pool = Pool(
        "p",
        "Deadlock",
        nodes=[start(), task("t_a", "A"), task("t_b", "B"), end()],
        sequence_flows=[
            flow("f1", "s", "t_a", [a_in("y")]),
            flow("f2", "t_a", "t_b"),
            flow("f3", "t_b", "e", [a_out("y")]),
        ],
    )
    return Diagram("deadlock", pools=[pool], objects=[obj("y", "v")])


def empty() -> Diagram:
    return Diagram("empty")


# -- validator rule fixtures ------------------------------------------------


def linear(diagram_id: str, f2_atts=(), **kw) -> Diagram:
    pool = Pool(
        "p",
        "P",
        nodes=[start(), task("t1"), end()],
        sequence_flows=[flow("f1", "s", "t1"), flow("f2", "t1", "e", list(f2_atts))],
        explicit_data_flows=kw.pop("explicit", []),
    )
    return Diagram(diagram_id, pools=[pool], **kw)


def validator_fixtures() -> dict[str, tuple[Diagram, bool]]:
    out: dict[str, tuple[Diagram, bool]] = {}

    out["good_v1"] = (linear("good_v1", [a_out("o"), a_in("o")], objects=[obj("o", "v")]), True)
    out["bad_v1"] = (linear("bad_v1", [a_in("o")], objects=[obj("o", "v")]), False)

    out["good_v2"] = (
        linear("good_v2", [a_out("o"), a_in("o", optional=True)], objects=[obj("o", "v")]),
        True,
    )
    out["bad_v2"] = (
        linear(
            "bad_v2",
            [ObjectAttachment("o", "output", optional=True), a_in("o")],
            objects=[obj("o", "v")],
        ),
        False,
    )

    def v3(diagram_id: str, rule: tuple[str, str]) -> Diagram:
        return linear(
            diagram_id,
            [a_out("a"), a_in("b")],
            objects=[obj("a", "x"), obj("b", "y")],
            mappings=[mapping("m1", "a", "b", rule)],
        )

    out["good_v3"] = (v3("good_v3", ("a.x", "y")), True)
    out["bad_v3"] = (v3("bad_v3", ("a.nope", "y")), False)

    def v4(diagram_id: str, right: str) -> Diagram:
        return linear(
            diagram_id,
            stores=[
                DataStore(
                    "st",
                    "Store",
                    entities=[Entity("E", [Variable("f")]), Entity("F", [Variable("g")])],
                    relationships=[Relationship("rel", "E", right)],
                    generalizations=[Generalization("E", "F")],
                )
            ],
        )

    out["good_v4"] = (v4("good_v4", "F"), True)
    out["bad_v4"] = (v4("bad_v4", "Missing"), False)

    def v5(diagram_id: str, reader_id: str) -> Diagram:
        pool = Pool(
            "p",
            "P",
            nodes=[start(), Node("sp", "Block", "sub_process"), task("t1"), end()],
            sequence_flows=[
                flow("f1", "s", "sp"),
                flow("f2", "sp", "t1"),
                flow("f3", "t1", "e"),
            ],
            explicit_data_flows=[ExplicitDataFlow("ef1", "st", reader_id, "o")],
        )
        return Diagram(
            diagram_id,
            pools=[pool],
            stores=[
                DataStore(
                    "st", "Local Store", entities=[Entity("E", [Variable("f")])], scope=Scope.of("sp")
                )
            ],
            objects=[obj("o", "v")],
        )

    out["good_v5"] = (v5("good_v5", "sp"), True)
    out["bad_v5"] = (v5("bad_v5", "t1"), False)

    def v6(diagram_id: str, same_pool: bool) -> Diagram:
        p1 = Pool(
            "p1",
            "P1",
            nodes=[start("s1"), task("t1"), task("t2"), end("e1")],
            sequence_flows=[
                flow("f1", "s1", "t1"),
                flow("f2", "t1", "t2"),
                flow("f3", "t2", "e1"),
            ],
        )
        p2 = Pool(
            "p2",
            "P2",
            nodes=[start("s2"), task("t3"), end("e2")],
            sequence_flows=[flow("g1", "s2", "t3"), flow("g2", "t3", "e2")],
        )
        target = "t2" if same_pool else "t3"
        return Diagram(
            diagram_id,
            pools=[p1, p2],
            objects=[obj("o", "v")],
            message_flows=[MessageFlow("mf1", "t1", target, [a_out("o"), a_in("o")])],
        )

    out["good_v6"] = (v6("good_v6", same_pool=False), True)
    out["bad_v6"] = (v6("bad_v6", same_pool=True), False)

    out["good_v7"] = (
        Diagram(
            "good_v7",
            pools=[Pool("p", "P", nodes=[start(), end()], sequence_flows=[flow("f1", "s", "e")])],
        ),
        True,
    )
    out["bad_v7"] = (Diagram("bad_v7", pools=[Pool("p", "P", nodes=[task("t1")])]), False)

    def v8(diagram_id: str, var: str) -> Diagram:
        return linear(
            diagram_id,
            explicit=[ExplicitDataFlow("ef1", "st", "t1", "o")],
            stores=[store("st", Entity("E", [Variable("f")]))],
            objects=[DataObject("o", "o", variables=[Variable(var)], origin_store="st")],
        )

    out["good_v8"] = (v8("good_v8", "E.f"), True)
    out["bad_v8"] = (v8("bad_v8", "E.g"), False)

    out["good_v9"] = (
        linear("good_v9", stores=[store("st", Entity("E", [Variable("f")]), collapsed=True)]),
        True,
    )
    out["bad_v9"] = (
        linear("bad_v9", stores=[DataStore("st", "Store", collapsed=True)]),
        True,  # V9 is a warning, not an error
    )
    return out


# -- pattern exemplars ------------------------------------------------------


def two_tasks(diagram_id: str, f2_atts=(), f3_atts=(), **kw) -> Diagram:
    pool = Pool(
        "p",
        "P",
        nodes=kw.pop("nodes", [start(), task("t1"), task("t2"), end()]),
        sequence_flows=[
            flow("f1", "s", "t1"),
            flow("f2", "t1", "t2", list(f2_atts)),
            flow("f3", "t2", "e", list(f3_atts)),
        ],
        explicit_data_flows=kw.pop("explicit", []),
    )
    return Diagram(diagram_id, pools=[pool], **kw)


def handoff(diagram_id: str) -> Diagram:
    """t1 produces o, t2 consumes it over the connecting sequence flow."""
    return two_tasks(diagram_id, [a_out("o"), a_in("o")], objects=[obj("o", "v")])


def env_store_read(diagram_id: str, multi_instance: bool = False) -> Diagram:
    pool = Pool(
        "p",
        "P",
        nodes=[start(), task("t1", multi_instance=multi_instance), end()],
        sequence_flows=[flow("f1", "s", "t1"), flow("f2", "t1", "e")],
        explicit_data_flows=[ExplicitDataFlow("ef1", "st", "t1", "o")],
    )
    return Diagram(
        diagram_id,
        pools=[pool],
        stores=[store("st", Entity("E", [Variable("f")]))],
        objects=[obj("o", "v")],
    )


def env_store_write(diagram_id: str) -> Diagram:
    return linear(
        diagram_id,
        [a_out("o")],
        explicit=[ExplicitDataFlow("ef1", "t1", "st", "o")],
        stores=[store("st", Entity("E", [Variable("f")]))],
        objects=[obj("o", "v")],
    )


def black_box_send(diagram_id: str) -> Diagram:
    p1 = Pool(
        "p1",
        "Case",
        nodes=[start(), task("t1"), end()],
        sequence_flows=[flow("f1", "s", "t1"), flow("f2", "t1", "e")],
    )
    return Diagram(
        diagram_id,
        pools=[p1, Pool("env", "Environment")],
        objects=[obj("o", "v")],
        message_flows=[MessageFlow("mf1", "t1", "env", [a_out("o")])],
    )


def sub_process_io(diagram_id: str) -> Diagram:
    pool = Pool(
        "p",
        "P",
        nodes=[start(), Node("sp", "Block", "sub_process"), end()],
        sequence_flows=[
            flow("f1", "s", "sp", [a_out("o"), a_in("o")]),
            flow("f2", "sp", "e", [a_out("q"), a_in("q")]),
        ],
    )
    return Diagram(diagram_id, pools=[pool], objects=[obj("o", "v"), obj("q", "v")])


def message_start_data(diagram_id: str) -> Diagram:
    pool = Pool(
        "p",
        "P",
        nodes=[mstart("ms", "Receive"), task("t1"), end()],
        sequence_flows=[
            flow("f1", "ms", "t1", [a_out("o"), a_in("o")]),
            flow("f2", "t1", "e"),
        ],
    )
    return Diagram(diagram_id, pools=[pool], objects=[obj("o", "v")])


def pattern_fixtures() -> dict[str, Diagram]:
    out: dict[str, Diagram] = {}
    out["p1"] = handoff("p1")
    out["p2"] = (lambda: _p2())()
    out["p4"] = env_store_read("p4", multi_instance=True)
    out["p5"] = _p5("p5")
    out["p7"] = _two_pool_store("p7")
    out["p8"] = env_store_read("p8")
    out["p9"] = handoff("p9")
    out["p10"] = sub_process_io("p10")
    out["p11"] = sub_process_io("p11")
    out["p12"] = env_store_read("p12", multi_instance=True)
    out["p13"] = _p13()
    out["p14"] = _two_pool_store("p14")
    out["p15"] = black_box_send("p15")
    out["p16"] = env_store_read("p16")
    out["p17"] = _p17()
    out["p18"] = env_store_write("p18")
    out["p19"] = env_store_write("p19")
    out["p20"] = env_store_read("p20")
    out["p21"] = message_start_data("p21")
    out["p22"] = black_box_send("p22")
    out["p23"] = env_store_write("p23")
    out["p24"] = env_store_read("p24")
    out["p25"] = _p25()
    out["p26"] = black_box_send("p26")
    out["p27"] = handoff("p27")
    out["p28"] = handoff("p28")
    out["p29"] = _p29()
    out["p30"] = _p30()
    out["p31"] = _p31()
    out["p32"] = _p32("p32")
    out["p33"] = _p32("p33")
    out["p34"] = handoff("p34")
    out["p36"] = handoff("p36")
    out["p38"] = message_start_data("p38")
    out["p39"] = _p39("p39")
    out["p40"] = _p40()
    out["p_structure"] = handoff("p_structure")
    out["p_explicit_data_flow"] = _p39("p_explicit_data_flow")
    out["p_data_control_flow"] = handoff("p_data_control_flow")
    out["p_process_data_store"] = _p5("p_process_data_store")
    return out


def _p2() -> Diagram:
    pool = Pool(
        "p",
        "P",
        nodes=[start(), Node("sp", "Block", "sub_process"), end()],
        sequence_flows=[flow("f1", "s", "sp"), flow("f2", "sp", "e")],
        explicit_data_flows=[ExplicitDataFlow("ef1", "st", "sp", "o")],
    )
    return Diagram(
        "p2",
        pools=[pool],
        stores=[
            DataStore("st", "Local", entities=[Entity("E", [Variable("f")])], scope=Scope.of("sp"))
        ],
        objects=[obj("o", "v")],
    )


def _p5(diagram_id: str) -> Diagram:
    return two_tasks(
        diagram_id,
        [a_out("o1")],
        explicit=[
            ExplicitDataFlow("ef1", "t1", "st", "o1"),
            ExplicitDataFlow("ef2", "st", "t2", "o2"),
        ],
        stores=[store("st", Entity("E", [Variable("f")]))],
        objects=[obj("o1", "v"), obj("o2", "v")],
    )


def _two_pool_store(diagram_id: str) -> Diagram:
    p1 = Pool(
        "p1",
        "Writer",
        nodes=[start("s1"), task("t1"), end("e1")],
        sequence_flows=[flow("f1", "s1", "t1"), flow("f2", "t1", "e1", [a_out("o1")])],
        explicit_data_flows=[ExplicitDataFlow("ef1", "t1", "st", "o1")],
    )
    p2 = Pool(
        "p2",
        "Reader",
        nodes=[start("s2"), task("t2"), end("e2")],
        sequence_flows=[flow("g1", "s2", "t2"), flow("g2", "t2", "e2")],
        explicit_data_flows=[ExplicitDataFlow("ef2", "st", "t2", "o2")],
    )
    return Diagram(
        diagram_id,
        pools=[p1, p2],
        stores=[store("st", Entity("E", [Variable("f")]))],
        objects=[obj("o1", "v"), obj("o2", "v")],
    )


def _p13() -> Diagram:
    pool = Pool(
        "p",
        "P",
        nodes=[start(), task("t1", multi_instance=True), end()],
        sequence_flows=[flow("f1", "s", "t1"), flow("f2", "t1", "e", [a_out("o"), a_in("o")])],
    )
    return Diagram("p13", pools=[pool], objects=[obj("o", "v")])


def _p17() -> Diagram:
    p1 = Pool(
        "p1",
        "Case",
        nodes=[start(), task("t1"), end()],
        sequence_flows=[flow("f1", "s", "t1"), flow("f2", "t1", "e")],
    )
    return Diagram(
        "p17",
        pools=[p1, Pool("env", "Environment")],
        objects=[obj("o", "v")],
        message_flows=[MessageFlow("mf1", "env", "t1", [a_in("o")])],
    )


def _p25() -> Diagram:
    p1 = Pool(
        "p1",
        "Case",
        nodes=[mstart("ms", "Receive"), task("t1"), end()],
        sequence_flows=[flow("f1", "ms", "t1"), flow("f2", "t1", "e")],
    )
    return Diagram(
        "p25",
        pools=[p1, Pool("env", "Environment")],
        message_flows=[MessageFlow("mf1", "env", "ms")],
    )


def _p29() -> Diagram:
    return linear(
        "p29",
        [a_out("o2")],
        explicit=[
            ExplicitDataFlow("ef1", "st", "t1", "o1"),
            ExplicitDataFlow("ef2", "t1", "st", "o2"),
        ],
        stores=[store("st", Entity("E", [Variable("f")]))],
        objects=[obj("o1", "v"), obj("o2", "v")],
    )


def _p30() -> Diagram:
    return linear(
        "p30",
        [a_out("o"), a_in("o")],
        objects=[DataObject("o", "Shared Document", url="https://example.org/doc/1")],
    )


def _p31() -> Diagram:
    return two_tasks(
        "p31",
        [a_in("o")],
        explicit=[ExplicitDataFlow("ef1", "st", "t1", "o")],
        stores=[store("st", Entity("E", [Variable("f")]))],
        objects=[
            DataObject("o", "o", variables=[Variable("E.f")], origin_store="st")
        ],
    )


def _p32(diagram_id: str) -> Diagram:
    return two_tasks(
        diagram_id,
        [a_out("a"), a_in("b")],
        objects=[obj("a", "x"), obj("b", "y")],
        mappings=[mapping("m1", "a", "b", ("a.x", "y"))],
    )


def _p39(diagram_id: str) -> Diagram:
    return two_tasks(
        diagram_id,
        explicit=[ExplicitDataFlow("ef1", "t1", "t2", "o")],
        objects=[obj("o", "v")],
    )


def _p40() -> Diagram:
    pool = Pool(
        "p",
        "P",
        nodes=[
            start(),
            task("t1"),
            Node("gw", "Route", "gateway_exclusive_data"),
            end("e1"),
            end("e2"),
        ],
        sequence_flows=[
            flow("f1", "s", "t1"),
            flow("f2", "t1", "gw", [a_out("o"), a_in("o")]),
            flow("f3", "gw", "e1", guard="o.v = 1"),
            flow("f4", "gw", "e2"),
        ],
    )
    return Diagram("p40", pools=[pool], objects=[obj("o", "v", name="o")])


def all_fixtures() -> dict[str, tuple[Diagram, bool]]:
    """Every committed fixture: path under fixtures/ -> (diagram, expected valid)."""
    out = {
        "travel.bpdmn.json": (travel(), True),
        "eco.bpdmn.json": (eco(), True),
        "empty.bpdmn.json": (empty(), True),
        "deadlock.bpdmn.json": (deadlock(), True),
        "handoff/direct.bpdmn.json": (handoff_direct(), True),
        "handoff/shared_store.bpdmn.json": (handoff_shared_store(), True),
        "handoff/global_store.bpdmn.json": (handoff_global_store(), True),
    }
    for name, entry in validator_fixtures().items():
        out[f"validator/{name}.bpdmn.json"] = entry
    for name, diagram in pattern_fixtures().items():
        out[f"patterns/{name}.bpdmn.json"] = (diagram, True)
    return out


def main() -> None:
    for relpath, (diagram, expect_valid) in all_fixtures().items():
        write(relpath, diagram, expect_valid=expect_valid)


if __name__ == "__main__":
    main()
