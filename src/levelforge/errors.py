"""Exception hierarchy shared across the generator."""


class LevelforgeError(Exception):
    """Base class for all levelforge errors."""


# -- database --------------------------------------------------------------

class ParseError(LevelforgeError):
    """Database or level document is not well-formed JSON."""


class SchemaError(LevelforgeError):
    """Document structure does not match the published schema."""


class UnresolvedReferenceError(LevelforgeError):
    """A facility or mechanic name does not resolve within the database."""


# -- constraints -----------------------------------------------------------

class UnknownKind(LevelforgeError):
    """Constraint kind is not valid for the evaluation tier it was passed to."""


# -- arrangement -----------------------------------------------------------

class ArrangementFailed(LevelforgeError):
    """Room arrangement could not place an initial room on floor 0."""


class DisconnectedFloor(ArrangementFailed):
    """A floor's rooms cannot be connected through shared walls."""


# -- layout ----------------------------------------------------------------

class InfeasibleRoom(LevelforgeError):
    """A facility footprint can never fit inside its room."""


class NoAdaptableFacilities(LevelforgeError):
    """Perturbation requested on a room with no movable facilities."""


# -- mechanics -------------------------------------------------------------

class UnboundMechanic(LevelforgeError):
    """Fitness evaluation received an assignment missing a mechanic."""


class NoRooms(LevelforgeError):
    """Mechanic assignment requested on a level without rooms."""


class NoFreeSpace(LevelforgeError):
    """Every sampled candidate pose overlaps existing facilities."""


# -- navsim ----------------------------------------------------------------

class UnreachableRoom(LevelforgeError):
    """Rerun validation could not path to a room on a repaired level."""


class UnreachableKey(LevelforgeError):
    """Objective simulation could not path to a placed key."""


# -- harness ---------------------------------------------------------------

class ConfigError(LevelforgeError):
    """A level configuration or environment setting does not hold a valid value."""
