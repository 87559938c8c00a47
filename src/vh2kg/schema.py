"""Vocabulary constants for the event-centric knowledge-graph schema."""

from .rdf import AN, HO, HRA, RDF, RDFS, VH2KG, X3DO
from .scripts import CATEGORIES

# classes
ACTIVITY = VH2KG + "Activity"
EVENT = VH2KG + "Event"
END_EVENT = VH2KG + "EndEvent"
SITUATION = VH2KG + "Situation"
STATE = VH2KG + "State"
STATE_TYPE = VH2KG + "StateType"
CHARACTER = VH2KG + "Character"
ROOM = VH2KG + "Room"
SHAPE = X3DO + "Shape"

CATEGORY_CLASSES = {name: HO + name for name in CATEGORIES}

# risk vocabulary
RISK_EVENT = HRA + "RiskEvent"
RISK_HIGH = HRA + "DoSomethingToHighPositionObject"
RISK_LOW = HRA + "GrabLowPositionObject"
RISK_FACTOR = HRA + "riskFactor"

# properties
AGENT = VH2KG + "agent"
HAS_EVENT = VH2KG + "hasEvent"
EVENT_NUMBER = VH2KG + "eventNumber"
ACTION = VH2KG + "action"
MAIN_OBJECT = VH2KG + "mainObject"
TARGET_OBJECT = VH2KG + "targetObject"
PLACE = VH2KG + "place"
FROM = VH2KG + "from"
TO = VH2KG + "to"
PREVIOUS_EVENT = VH2KG + "previousEvent"
NEXT_EVENT = VH2KG + "nextEvent"   # inverse of previousEvent (extension)
SITUATION_BEFORE = VH2KG + "situationBeforeEvent"
SITUATION_AFTER = VH2KG + "situationAfterEvent"
PART_OF = VH2KG + "partOf"
IS_STATE_OF = VH2KG + "isStateOf"
STATE_PROP = VH2KG + "state"
NEXT_STATE = VH2KG + "nextState"
PREVIOUS_STATE = VH2KG + "previousState"
AFFORDS = VH2KG + "affords"
ATTRIBUTE = VH2KG + "attribute"
BBOX = VH2KG + "bbox"
HEIGHT = VH2KG + "height"
TIME_PROP = VH2KG + "time"         # duration in seconds (decimal)
VIRTUAL_HOME = VH2KG + "virtualHome"
HAS_ACTIVITY = VH2KG + "hasActivity"

BBOX_CENTER = X3DO + "bboxCenter"
BBOX_SIZE = X3DO + "bboxSize"

RDF_TYPE = RDF + "type"
RDF_FIRST = RDF + "first"
RDF_REST = RDF + "rest"
RDF_NIL = RDF + "nil"
RDF_VALUE = RDF + "value"
RDFS_LABEL = RDFS + "label"
RDFS_COMMENT = RDFS + "comment"
RDFS_SUBCLASS = RDFS + "subClassOf"

ACTION_NS = AN


def action_iri(verb: str) -> str:
    return AN + verb
