"""The base of every typed error toolrouter raises."""


class ToolrouterError(Exception):
    """Bad input to toolrouter; each module's error base subclasses it."""
