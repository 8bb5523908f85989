// HemC code generation: AST -> HRISC instructions in a HOF template.
//
// Code model (chosen to match the paper's constraints):
//   * every global access materializes a full 32-bit address with a LUI/ORI pair,
//     relocated via HI16/LO16 — the R3000 gp-relative short form is never used
//     ("ldl insists that modules be compiled with a flag that disables use of the
//     processor's ... global pointer register", §3);
//   * direct calls emit JAL with a JUMP26 relocation; when the static linker finds the
//     target outside the 256 MB region it interposes a trampoline;
//   * arguments are passed on the stack (pushed last-first); return value in $v0;
//   * $fp-relative frames; a binary operator's left value waits in $t0 (leaf right
//     operand) or $t3-$t7 (right operand without a call), else on the $sp stack.
#ifndef SRC_LANG_CODEGEN_H_
#define SRC_LANG_CODEGEN_H_

#include <string>

#include "src/base/status.h"
#include "src/lang/ast.h"
#include "src/obj/object_file.h"

namespace hemlock {

// Generates a relocatable object module from a parsed program.
Result<ObjectFile> GenerateCode(const Program& program, const std::string& module_name);

}  // namespace hemlock

#endif  // SRC_LANG_CODEGEN_H_
