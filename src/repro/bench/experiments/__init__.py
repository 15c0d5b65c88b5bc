"""One module per table/figure of the paper's evaluation section."""

from . import (
    scaling_multigpu,
    fig5,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    table1,
    table2,
    table3,
    table4,
)

ALL_EXPERIMENTS = {
    "scaling_multigpu": scaling_multigpu,
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "fig5": fig5,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
}

__all__ = ["ALL_EXPERIMENTS"] + sorted(ALL_EXPERIMENTS)
