"""Sum-to-scalar projection families and robust self-testing of their strategies.

Each public name lives in its defining module and is imported from there,
as in ``from projsum.families import four_family``.  ``import projsum``
loads no submodule and gives only ``__version__``.
"""

__version__ = "0.1.0"
