//===- Printer.h - Textual IR emission ---------------------------*- C++ -*-=//
//
// Renders modules/functions in LLVM-flavoured textual form. Unnamed values
// and blocks receive sequential %N numbering exactly once per print, in the
// LLVM style (arguments, then blocks/instructions in program order).
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_IR_PRINTER_H
#define VERIOPT_IR_PRINTER_H

#include <string>

namespace veriopt {

class Function;
class Module;
class Instruction;

/// Print a whole module (declarations first, then definitions). With
/// \p NameFree every value and block prints as if unnamed, so naming
/// variants of the same IR print identically (the canonical form).
std::string printModule(const Module &M, bool NameFree = false);

/// Print a single function definition or declaration.
std::string printFunction(const Function &F, bool NameFree = false);

} // namespace veriopt

#endif // VERIOPT_IR_PRINTER_H
