"""Mini-IR: types, parser, printer, validator, interpreter/profiler."""

from .core import (
    BINOPS_FLOAT, BINOPS_INT, CASTS, FCMP_PREDS, ICMP_PREDS, OPCODES,
    OPCODE_INDEX, TERMINATORS, TYPE_TAGS, TYPE_WIDTH,
    Block, Function, Instr, IRError, Lit, Module, Operand, Reg,
    clone_function, operand_slot_types, postorder, structurally_equal,
    wrap_int, zero_literal,
)
from .interp import (
    DEFAULT_FUEL, REGION_BASE, SCRATCH_BASE, SCRATCH_SIZE,
    Arena, ExecResult, HeapImage, InterpError, Program, Trace, interpret,
    run_heap_image,
)
from .parser import ParseError, parse_module
from .printer import print_function, print_instr, print_module
from .validate import (ValidationError, check_function, must_assigned_at,
                       unassigned_uses, validate_module)

__all__ = [
    "OPCODES", "OPCODE_INDEX", "TYPE_TAGS", "TYPE_WIDTH", "TERMINATORS",
    "BINOPS_INT", "BINOPS_FLOAT", "CASTS", "ICMP_PREDS", "FCMP_PREDS",
    "Block", "Function", "Instr", "IRError", "Lit", "Module", "Operand", "Reg",
    "clone_function", "operand_slot_types", "postorder", "structurally_equal",
    "wrap_int", "zero_literal",
    "DEFAULT_FUEL", "REGION_BASE", "SCRATCH_BASE", "SCRATCH_SIZE",
    "Arena", "ExecResult", "HeapImage", "InterpError", "Program", "Trace",
    "interpret", "run_heap_image",
    "ParseError", "parse_module",
    "print_function", "print_instr", "print_module",
    "ValidationError", "check_function", "must_assigned_at",
    "unassigned_uses", "validate_module",
]
